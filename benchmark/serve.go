package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/history"
	"tskd/internal/partition"
	"tskd/internal/server"
	"tskd/internal/storage"
	"tskd/internal/wal"
)

// A run sets the server up at least minSetupRuns times, and keeps
// going (up to maxSetupRuns) until it has spent setupBudget doing so;
// setup_s is the median. A set-up of a 1k-record in-memory server is
// under a millisecond, and only many of them give a median that
// repeats.
const (
	minSetupRuns = 5
	maxSetupRuns = 200
	setupBudget  = time.Second
)

// syncTimer times every fsync of the live log through the public
// DurabilityOptions.WrapSyncer hook (traced runs only).
type syncTimer struct {
	mu sync.Mutex
	d  []time.Duration
}

func (st *syncTimer) wrap(s wal.Syncer) wal.Syncer { return timedSyncer{s, st} }

func (st *syncTimer) durations() []time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]time.Duration(nil), st.d...)
}

type timedSyncer struct {
	wal.Syncer
	st *syncTimer
}

func (t timedSyncer) Sync() error {
	t0 := time.Now()
	err := t.Syncer.Sync()
	d := time.Since(t0)
	t.st.mu.Lock()
	t.st.d = append(t.st.d, d)
	t.st.mu.Unlock()
	return err
}

// instance is one booted server with its client connections.
type instance struct {
	spec  spec
	srv   *server.Server
	conns []*client.PipelinedConn
	dir   string // data directory; "" in memory
	setup time.Duration
	down  bool
}

// bootOptions are the things a traced pass adds to a server.
type bootOptions struct {
	recorder *history.Recorder
	fsync    *syncTimer
}

// boot builds the database, opens the server (recovering its fresh
// data directory when durable), starts it and dials the connections.
// The time all that takes is the instance's setup time.
func boot(s spec, seed int64, dataRoot string, o bootOptions) (*instance, error) {
	in := &instance{spec: s}
	t0 := time.Now()
	gen := s.ycsb()
	cfg := server.Config{
		Addr:          "127.0.0.1:0",
		Bundle:        s.Bundle,
		FlushInterval: flushInterval,
		Core:          core.Options{Workers: workers, Protocol: ccProtocol, Seed: seed, Recorder: o.recorder},
		// The closed phase is a standing queue by construction, which
		// the adaptive shedder would (rightly, for a live service)
		// shed, and a slow fsync would trip the WAL breaker into
		// refusals. Both are off so that no operation fails and a
		// stall shows as latency; backpressure is the bounded queue.
		Overload: server.OverloadOptions{DisableShed: true, DisableBreaker: true},
	}
	if s.Shards > 1 {
		cfg.Shards = s.Shards
		cfg.ShardDB = func(int) *storage.DB { return gen.BuildDB() }
		cfg.ShardPartitioner = func(i int) partition.Partitioner { return partition.NewStrife(seed + int64(i)) }
	} else {
		cfg.DB = gen.BuildDB()
		cfg.Partitioner = partition.NewStrife(seed)
	}
	if s.Durable {
		dir, err := os.MkdirTemp(dataRoot, s.Name+"-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
		cfg.Durability = &server.DurabilityOptions{
			Dir: dir, GroupWindow: walGroupWindow,
			CheckpointBytes: walCheckpointBytes, SegmentBytes: walSegmentBytes,
		}
		if o.fsync != nil {
			cfg.Durability.WrapSyncer = o.fsync.wrap
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		in.removeDir()
		return nil, fmt.Errorf("server.New: %w", err)
	}
	if err := srv.Start(); err != nil {
		in.removeDir()
		return nil, fmt.Errorf("server.Start: %w", err)
	}
	in.srv = srv
	for i := 0; i < connections; i++ {
		c, err := client.DialPipelined(srv.Addr(), client.PipelineConfig{Proto: client.ProtoBinary, Window: s.InFlight})
		if err != nil {
			in.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		in.conns = append(in.conns, c)
	}
	in.setup = time.Since(t0)
	return in, nil
}

// shutdown drains the server and closes the connections; the data
// directory stays for the recovery check.
func (in *instance) shutdown() error {
	if in.down {
		return nil
	}
	in.down = true
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	for _, c := range in.conns {
		c.Close()
	}
	return err
}

func (in *instance) removeDir() {
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// close shuts down and removes the data directory.
func (in *instance) close() {
	if in.srv != nil {
		in.shutdown()
	}
	in.removeDir()
}

// bootMedian sets the server up repeatedly (once, in a smoke run),
// keeps the last instance and returns the median set-up time.
func bootMedian(s spec, seed int64, dataRoot string, o bootOptions, smoke bool) (*instance, time.Duration, error) {
	least, most := minSetupRuns, maxSetupRuns
	if smoke {
		least, most = 1, 1
	}
	var times []time.Duration
	var in *instance
	var spent time.Duration
	for i := 0; i < most && (i < least || spent < setupBudget); i++ {
		if in != nil {
			in.close()
		}
		var err error
		if in, err = boot(s, seed, dataRoot, o); err != nil {
			return nil, 0, err
		}
		times = append(times, in.setup)
		spent += in.setup
	}
	return in, percentile(sortedCopy(times), 500), nil
}

// phaseTimes are how long each phase measures.
type phaseTimes struct {
	Warmup, Closed, Open time.Duration
}

// closedResult is what the closed phase measured.
type closedResult struct {
	Elapsed    time.Duration
	Committed  uint64
	Mallocs    uint64
	Before     server.Stats
	After      server.Stats
	Throughput float64
}

// runClosed warms the server up and then measures the closed phase:
// one continuous closed loop, so the measured window holds no start-up
// or drain transient. The window opens and closes on a bundle
// completion: a bundle's commits land all at once, and a window cut at
// arbitrary instants would gain or lose a whole bundle at either end
// (5% of a ten-second window when a bundle takes half a second).
func runClosed(in *instance, l *loadgen, pt phaseTimes) closedResult {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		l.closedLoop(in.spec.InFlight, stop)
		close(done)
	}()
	time.Sleep(pt.Warmup)
	before, t0 := nextBundle(in.srv)
	m0 := mallocs()
	time.Sleep(time.Until(t0.Add(pt.Closed)))
	after, t1 := nextBundle(in.srv)
	r := closedResult{Before: before, After: after, Mallocs: mallocs() - m0}
	close(stop)
	<-done
	r.Elapsed = t1.Sub(t0)
	r.Committed = r.After.Committed - r.Before.Committed
	r.Throughput = float64(r.Committed) / r.Elapsed.Seconds()
	return r
}

// nextBundle polls the server's counters until one more bundle has
// completed and returns the counters and the time of that moment (the
// server updates the bundle and commit counts together). A server that
// completes no bundle within a few seconds is read as it is.
func nextBundle(srv *server.Server) (server.Stats, time.Time) {
	first, from := srv.Stats(), time.Now()
	for time.Since(from) < 5*time.Second {
		wallClock{}.Sleep(500 * time.Microsecond)
		if st := srv.Stats(); st.Bundles != first.Bundles {
			return st, time.Now()
		}
	}
	return srv.Stats(), time.Now()
}

// runOpen offers Poisson arrivals at the workload's pinned rate.
func runOpen(in *instance, l *loadgen, d time.Duration, seed int64) openResult {
	n := int(in.spec.OpenRate * d.Seconds())
	if n < 1 {
		n = 1
	}
	due := poissonDue(n, in.spec.OpenRate, seed)
	base := l.next.Add(uint64(n)) - uint64(n)
	return openLoop(wallClock{}, due, in.spec.InFlight, func(k int) bool {
		_, ok := l.submitOne(base + uint64(k) + 1)
		return ok
	})
}

// okLatencies returns the latencies of the arrivals that committed.
func (r openResult) okLatencies() []time.Duration {
	out := make([]time.Duration, 0, len(r.Latency))
	for k, ok := range r.OK {
		if ok {
			out = append(out, r.Latency[k])
		}
	}
	return out
}

// checkServed runs the output checks every served pass shares and
// returns one line per failure. It shuts the server down.
func checkServed(in *instance, l *loadgen) []string {
	var bad []string
	t := &l.tally
	if t.submits.Load() != t.responses.Load() {
		bad = append(bad, fmt.Sprintf("exactly-once: %d submissions got %d responses", t.submits.Load(), t.responses.Load()))
	}
	if t.attempted.Load() != t.committed.Load()+t.failed.Load() {
		bad = append(bad, fmt.Sprintf("exactly-once: %d transactions, %d committed + %d failed", t.attempted.Load(), t.committed.Load(), t.failed.Load()))
	}
	if err := in.shutdown(); err != nil {
		bad = append(bad, "shutdown: "+err.Error())
	}
	st := in.srv.Stats()
	if st.Committed != t.committed.Load() {
		bad = append(bad, fmt.Sprintf("commit count: clients saw %d commits, server counted %d", t.committed.Load(), st.Committed))
	}
	if st.ResultsStreamed != t.responses.Load()-t.refused() && in.spec.Shards <= 1 {
		// Unsharded, every executed outcome is streamed exactly once
		// (refusals are answered on the admission path instead).
		bad = append(bad, fmt.Sprintf("exactly-once: server streamed %d outcomes for %d executed responses", st.ResultsStreamed, t.responses.Load()-t.refused()))
	}
	if st.TwoPC != nil && st.TwoPC.InDoubt != 0 {
		bad = append(bad, fmt.Sprintf("2PC: %d transactions still in doubt after shutdown", st.TwoPC.InDoubt))
	}
	if in.spec.Durable {
		bad = append(bad, checkRecovery(in, l, st)...)
	}
	return bad
}

// checkRecovery recovers the data directory read-only over a fresh
// base and compares the result with the live database: every row
// equal, and one log record per acknowledged commit that wrote (a
// read-only commit logs nothing), each either replayed or under the
// checkpoint.
func checkRecovery(in *instance, l *loadgen, st server.Stats) []string {
	var bad []string
	rec, info, _, err := server.Recover(in.dir, in.spec.ycsb().BuildDB())
	if err != nil {
		return []string{"recover: " + err.Error()}
	}
	if info.NextLSN != st.WALRecords {
		bad = append(bad, fmt.Sprintf("recover: log holds %d records, server appended %d", info.NextLSN, st.WALRecords))
	}
	if acked := l.tally.committedWrites.Load(); st.WALRecords != acked {
		bad = append(bad, fmt.Sprintf("recover: %d writing commits acknowledged, %d records logged", acked, st.WALRecords))
	}
	if uint64(info.Replayed)+info.CheckpointLSN < st.WALRecords {
		bad = append(bad, fmt.Sprintf("recover: checkpoint at %d + %d replayed does not cover %d records", info.CheckpointLSN, info.Replayed, st.WALRecords))
	}
	if diff := diffDB(in.srv.DB(), rec); diff != "" {
		bad = append(bad, "recover: "+diff)
	}
	return bad
}

// diffDB reports the first difference between two databases' rows, or
// "" when every row of every table matches.
func diffDB(live, rec *storage.DB) string {
	// YCSB uses one table; walking ids keeps the check schema-free.
	for id := uint16(0); id < 64; id++ {
		lt, rt := live.Table(id), rec.Table(id)
		if lt == nil && rt == nil {
			continue
		}
		if lt == nil || rt == nil {
			return fmt.Sprintf("table %d exists on one side only", id)
		}
		if ln, rn := lt.Len(), rt.Len(); ln != rn {
			return fmt.Sprintf("table %d: %d live rows, %d recovered", id, ln, rn)
		}
		diff := ""
		lt.Range(func(r *storage.Row) bool {
			o := rt.Get(r.Key.Row())
			if o == nil {
				diff = fmt.Sprintf("row %v missing after recovery", r.Key)
				return false
			}
			a, b := r.Load().Fields, o.Load().Fields
			if len(a) != len(b) {
				diff = fmt.Sprintf("row %v: %d fields live, %d recovered", r.Key, len(a), len(b))
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					diff = fmt.Sprintf("row %v field %d: live %d, recovered %d", r.Key, i, a[i], b[i])
					return false
				}
			}
			return true
		})
		if diff != "" {
			return diff
		}
	}
	return ""
}

// dataRootDir creates (if needed) and returns the directory durable
// workloads put their data directories under.
func dataRootDir(root string) (string, error) {
	if root == "" {
		root = filepath.Join(".bench_build", "data")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return root, nil
}
