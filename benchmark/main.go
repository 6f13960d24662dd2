// Command benchmark is the repository's benchmark: it boots the real
// server in-process over loopback TCP, drives it from this process
// with the pipelined binary client, prints every metric by name with
// its unit, checks the outputs, and exits non-zero on a failed check.
// See README.md in this directory and BENCHMARK.json at the root.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Exit codes.
const (
	exitOK      = 0
	exitFailed  = 1 // a check failed or the run could not complete
	exitUsage   = 2
	exitInvalid = 3 // the load generator, not the server, limited the run
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr *os.File) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "workload to run (default: all four)")
		seed         = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = fs.Int("seconds", 20, "seconds one run measures (closed phase + open phase)")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass and a layer replay")
		smoke        = fs.Bool("smoke", false, "at most a second per phase: checks the plumbing, measures nothing")
		runs         = fs.Int("runs", 1, "repeat each workload this many times, on seeds seed, seed+1, ...")
		out          = fs.String("out", "", "append the runs to this results file (for `compare`)")
		dataRoot     = fs.String("data-root", "", "where durable workloads put their data directories (default .bench_build/data; removed after the run)")
		traceDir     = fs.String("trace-dir", filepath.Join("benchmark", "out"), "where traced runs write trace-<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-smoke] [-runs n] [-out file]")
		fmt.Fprintln(stderr, "       benchmark compare [-allow-env-mismatch] A.json B.json")
		return exitUsage
	}
	todo := specs
	if *workloadName != "" {
		s, ok := specByName(*workloadName)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workloadName)
			return exitUsage
		}
		todo = []spec{s}
	}
	root, err := dataRootDir(*dataRoot)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return exitFailed
	}
	cfg := runConfig{
		Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke,
		DataRoot: root, TraceDir: *traceDir, Log: stderr,
	}
	env := captureEnv(root)
	code := exitOK
	var last *runRecord
	for r := 0; r < *runs; r++ {
		for _, s := range todo {
			cfg.Seed = *seed + int64(r)
			rec, err := runWorkload(s, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", s.Name, err)
				return exitFailed
			}
			rec.Env = env
			decls := endToEnd
			if cfg.Trace {
				decls = perLayer
			}
			printMetrics(stdout, s.Name, decls, rec.Metrics)
			for _, f := range rec.Failures {
				fmt.Fprintf(stderr, "benchmark: %s: CHECK FAILED: %s\n", s.Name, f)
			}
			if rec.Invalid != "" {
				fmt.Fprintf(stderr, "benchmark: %s: INVALID RUN, not reported: %s\n", s.Name, rec.Invalid)
			}
			if c := exitCode(rec); c != exitOK {
				if code != exitFailed {
					code = c
				}
				continue
			}
			if *out != "" {
				if err := appendRun(*out, rec); err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return exitFailed
				}
			}
			last = rec
		}
	}
	if code != exitOK {
		return code
	}
	// The last line of standard output is the run's result object.
	return printResult(stdout, last)
}

// exitCode is what one run's record means for the process.
func exitCode(rec *runRecord) int {
	switch {
	case len(rec.Failures) > 0:
		return exitFailed
	case rec.Invalid != "":
		return exitInvalid
	}
	return exitOK
}

// resultLine is the one-line JSON object a run ends with.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w io.Writer, rec *runRecord) int {
	b, err := json.Marshal(resultLine{
		Correct: true, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics,
	})
	if err != nil {
		return exitFailed
	}
	fmt.Fprintln(w, string(b))
	return exitOK
}

// runConfig is what every workload of an invocation shares.
type runConfig struct {
	Seed     int64
	Seconds  int
	Trace    bool
	Smoke    bool
	DataRoot string
	TraceDir string
	Log      io.Writer
	// dropResponse is a test hook handed to the untraced pass's load
	// generator (see loadgen.dropResponse).
	dropResponse func(n uint64) bool
}

// phases splits the run's measured seconds. Untraced, half goes to the
// closed phase and half to the open phase. Traced, the per-layer
// metrics need four things: an untraced closed phase (the base of
// trace.overhead_share), an open phase (p99, generator lateness), the
// traced closed phase, and the layer replay.
func (c runConfig) phases() (pt phaseTimes, traced, replay time.Duration) {
	total := time.Duration(c.Seconds) * time.Second
	if c.Smoke {
		q := 300 * time.Millisecond
		return phaseTimes{Warmup: q, Closed: q, Open: q}, q, q
	}
	if !c.Trace {
		return phaseTimes{Warmup: 2 * time.Second, Closed: total / 2, Open: total / 2}, 0, 0
	}
	q := total / 4
	return phaseTimes{Warmup: 2 * time.Second, Closed: q, Open: q}, q, q
}

// runRecord is one run of one workload, as stored in a results file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Smoke     bool               `json:"smoke,omitempty"`
	Spec      spec               `json:"spec"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	PhaseWall map[string]float64 `json:"phase_wall_s"`
	Failures  []string           `json:"failures,omitempty"`
	Invalid   string             `json:"invalid,omitempty"`
	Env       envBlock           `json:"env"`
}

// maxLate is the generator lateness (p99) above which an open phase is
// invalid; openTries is how many open phases a run may take to get a
// valid one.
const (
	maxLate   = 5 * time.Millisecond
	openTries = 3
)

// minFill is the closed-phase bundle fill (mean occupancy over the
// bundle the in-flight count can fill) below which bundles were being
// closed by the flush timer: the generator, not the server, was the
// limit. Unsharded only: a shard unit answers each transaction as it
// finishes, so its callers come back one by one and its bundles are
// closed by the timer however fast the generator is.
const minFill = 0.25

// runWorkload runs one workload once and returns its record.
func runWorkload(s spec, cfg runConfig) (*runRecord, error) {
	rec := &runRecord{
		Workload: s.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Smoke: cfg.Smoke,
		Spec: s, PhaseWall: map[string]float64{},
	}
	wall := func(name string, t0 time.Time) { rec.PhaseWall[name] = time.Since(t0).Seconds() }
	pt, tracedFor, replayFor := cfg.phases()
	if cfg.Smoke {
		s.Pool = min(s.Pool, 1<<12) // generating 65k transactions is most of a smoke run
	}

	t0 := time.Now()
	in, err := buildInputs(s, cfg.Seed)
	if err != nil {
		return nil, err
	}
	wall("generate", t0)

	t0 = time.Now()
	inst, setup, err := bootMedian(s, cfg.Seed, cfg.DataRoot, bootOptions{}, cfg.Smoke)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	wall("setup", t0)

	// One context bounds every submission of the run: a response that
	// never arrives fails the exactly-once check, it does not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	l := newLoadgen(ctx, inst, in)
	l.dropResponse = cfg.dropResponse
	if !cfg.Trace {
		// Only the replay needs these; dropped, they are not marked by
		// every GC cycle of the measured phases.
		in.Txns, in.Frames = nil, nil
	}

	t0 = time.Now()
	closed := runClosed(inst, l, pt)
	wall("warmup+closed", t0)
	t0 = time.Now()
	// An open phase whose generator ran late is not reported. A stall
	// of the box (another process, the hypervisor) is enough to cause
	// one, so the phase is tried again before the run is given up.
	var open openResult
	var late []time.Duration
	for try := 0; try < openTries; try++ {
		open = runOpen(inst, l, pt.Open, cfg.Seed+int64(try))
		late = sortedCopy(open.Late)
		if lp := percentile(late, 990); lp > maxLate && !cfg.Smoke {
			rec.Invalid = fmt.Sprintf("generator ran late: p99 %.2f ms > %.0f ms", ms(lp), ms(maxLate))
			fmt.Fprintf(cfg.Log, "benchmark: %s seed=%d: open phase %d: %s\n", s.Name, cfg.Seed, try+1, rec.Invalid)
			continue
		}
		rec.Invalid = ""
		break
	}
	wall("open", t0)
	t0 = time.Now()
	rec.Failures = checkServed(inst, l)
	wall("shutdown+checks", t0)

	lat := sortedCopy(open.okLatencies())
	if !cfg.Smoke {
		if p := highestSupported(len(lat)); p < 950 {
			rec.Failures = append(rec.Failures, fmt.Sprintf("open phase: %d samples support no percentile above p%g", len(lat), float64(p)/10))
		}
		if fill := occupancy(s, closed) / float64(min(s.Bundle, s.InFlight)); s.Shards <= 1 && fill < minFill {
			rec.Invalid = fmt.Sprintf("generator saturated in the closed phase: bundles %.0f%% full", fill*100)
		}
	}
	rec.Attempted = l.tally.attempted.Load()
	rec.Failed = l.tally.failed.Load()

	if !cfg.Trace {
		m := newMetricSet(endToEnd)
		m.set("throughput_txn_s", closed.Throughput)
		m.set("latency_p50_ms", ms(percentile(lat, 500)))
		m.set("latency_p95_ms", ms(percentile(lat, 950)))
		m.set("allocs_per_txn", float64(closed.Mallocs)/float64(max(closed.Committed, 1)))
		m.set("setup_s", setup.Seconds())
		rec.Metrics = m.m
		fmt.Fprintf(cfg.Log, "benchmark: %s seed=%d: %s; p95 over %d samples, late p99 %.3f ms\n",
			s.Name, cfg.Seed, &l.tally, len(lat), ms(percentile(late, 990)))
		return rec, nil
	}

	m := newMetricSet(perLayer)
	m.set("client.latency_p99_ms", ms(percentile(lat, 990)))
	m.set("loadgen.offered_txn_s", float64(len(open.Late))/open.Elapsed.Seconds())
	m.set("loadgen.late_p99_ms", ms(percentile(late, 990)))
	if err := tracedRun(s, cfg, in, l, closed, tracedFor, replayFor, m, rec); err != nil {
		return nil, err
	}
	if miss := m.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("traced run left metrics unset: %v", miss)
	}
	rec.Metrics = m.m
	return rec, nil
}

func newLoadgen(ctx context.Context, inst *instance, in *inputs) *loadgen {
	return &loadgen{conns: inst.conns, reqs: in.Reqs, writes: in.Writes, ctx: ctx}
}
