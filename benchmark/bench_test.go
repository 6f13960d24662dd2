package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"tskd/internal/clock"
)

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {99, 500}, {100, 900}, {199, 900},
		{200, 950}, {999, 950}, {1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Exactly ten samples lie beyond the pick.
	if n, p := 200, highestSupported(200); n-rank(n, p) != 10 {
		t.Errorf("p%d of %d samples leaves %d beyond, want 10", p, n, n-rank(n, p))
	}
	lat := make([]time.Duration, 200)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(lat, 950); got != 190*time.Millisecond {
		t.Errorf("p95 of 1..200 ms = %v, want 190ms", got)
	}
}

// stallClock is a fake clock whose Sleep overshoots once: the
// generator stalling.
type stallClock struct {
	*clock.Fake
	mu      sync.Mutex
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *stallClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.sleeps++
	if c.sleeps == c.stallAt {
		d += c.stall
	}
	c.mu.Unlock()
	c.Advance(d)
}

func TestOpenLoopLatencyIsFromDueTime(t *testing.T) {
	clk := &stallClock{Fake: clock.NewFake(time.Unix(1000, 0)), stallAt: 3, stall: 50 * time.Millisecond}
	due := make([]time.Duration, 10)
	for k := range due {
		due[k] = time.Duration(k) * 10 * time.Millisecond
	}
	// Service takes no time at all, so every millisecond of latency is
	// the generator's doing.
	res := openLoop(clk, due, 1, func(int) bool { return true })
	wantLate := []int{0, 0, 0, 50, 40, 30, 20, 10, 0, 0}
	for k, want := range wantLate {
		if got := res.Late[k]; got != time.Duration(want)*time.Millisecond {
			t.Errorf("arrival %d handed over %v late, want %dms", k, got, want)
		}
		if res.Latency[k] < res.Late[k] {
			t.Errorf("arrival %d: latency %v is less than its lateness %v: not timed from the due time", k, res.Latency[k], res.Late[k])
		}
		if !res.OK[k] {
			t.Errorf("arrival %d not marked ok", k)
		}
	}
	// The stall hit arrival 3, but 4..7 were due during it and pay too.
	if res.Latency[5] < 30*time.Millisecond {
		t.Errorf("arrival 5 latency %v: a stalled sender must inflate later requests", res.Latency[5])
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 1, Name: "a.child", Start: 12, End: 17},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{50, 15, 30, 30, 5} {
		if self[i] != want {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want)
		}
	}
	if got := selfByName(spans)["root"]; got != 50 {
		t.Errorf("selfByName root = %d, want 50", got)
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, s := range specs {
		s.Pool = 1 << 10
		stream := func(seed int64) []byte {
			in, err := buildInputs(s, seed)
			if err != nil {
				t.Fatal(err)
			}
			return bytes.Join(in.Frames, nil)
		}
		a, b, c := stream(7), stream(7), stream(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request streams", s.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", s.Name)
		}
	}
	if a, b := poissonDue(100, 1000, 7), poissonDue(100, 1000, 7); a[99] != b[99] {
		t.Error("the same seed gave two different arrival schedules")
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric tables of this
// package and BENCHMARK.json in step, both ways.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json declares %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if !name.MatchString(d.Name) {
			t.Errorf("bad metric name %q", d.Name)
		}
		if i < len(bf.EndToEnd) {
			if j := bf.EndToEnd[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
				t.Errorf("end_to_end[%d]: BENCHMARK.json has %+v, the program %+v", i, j, d)
			}
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if !name.MatchString(d.Name) {
			t.Errorf("bad metric name %q", d.Name)
		}
		if i < len(bf.PerLayer) {
			if j := bf.PerLayer[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("per_layer[%d]: BENCHMARK.json has %+v, the program %+v", i, j, d)
			}
		}
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := bf.Workloads[i]; w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workloads[%d]: BENCHMARK.json has %+v, the program {%s %s}", i, w, s.Name, s.Why)
		}
	}
}

func smokeConfig(t *testing.T, trace bool) runConfig {
	dir := t.TempDir()
	return runConfig{
		Seed: 3, Seconds: 1, Trace: trace, Smoke: true,
		DataRoot: dir, TraceDir: filepath.Join(dir, "out"), Log: io.Discard,
	}
}

// TestSmokeAllWorkloads runs every workload end to end in smoke mode,
// traced: the untraced pass with its checks (the durable one recovers
// its data directory), the traced pass with the serializability check,
// and the replay. Every metric it prints must be a declared one, and
// every declared one must be printed.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, s := range specs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t, true)
			rec, err := runWorkload(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rec.Failures {
				t.Errorf("check failed: %s", f)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", rec.Attempted, rec.Failed)
			}
			if len(rec.Metrics) != len(perLayer) {
				t.Errorf("printed %d metrics, %d are declared", len(rec.Metrics), len(perLayer))
			}
			for name, m := range rec.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.TraceDir, "trace-"+s.Name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
			if left, _ := os.ReadDir(cfg.DataRoot); len(left) != 1 { // only the trace directory
				t.Errorf("data root not cleaned up: %d entries left", len(left))
			}
		})
	}
}

func TestSmokeEndToEndMetrics(t *testing.T) {
	t.Parallel()
	s, _ := specByName(wire)
	rec, err := runWorkload(s, smokeConfig(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Failures) != 0 {
		t.Errorf("checks failed: %v", rec.Failures)
	}
	for _, d := range endToEnd {
		if m, ok := rec.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("%s = %+v (present %v): want a positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
	if len(rec.Metrics) != len(endToEnd) {
		t.Errorf("printed %d metrics, %d are declared", len(rec.Metrics), len(endToEnd))
	}
}

// TestDroppedResponseFailsTheRun breaks the program's output on
// purpose: one response never reaches its caller, and the run must say
// so.
func TestDroppedResponseFailsTheRun(t *testing.T) {
	t.Parallel()
	s, _ := specByName(wire)
	cfg := smokeConfig(t, false)
	cfg.dropResponse = func(n uint64) bool { return n == 100 }
	rec, err := runWorkload(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Failures) == 0 {
		t.Fatal("a dropped response went unnoticed")
	}
	if code := exitCode(rec); code != exitFailed {
		t.Errorf("exit code %d, want %d", code, exitFailed)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := spread([]float64{4, 1, 2}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	runs := func(tput ...float64) []*runRecord {
		var out []*runRecord
		for _, v := range tput {
			out = append(out, &runRecord{Workload: hot, Metrics: map[string]metric{
				"throughput_txn_s": {Value: v, Unit: "1/s"},
			}})
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []*runRecord
		want string
	}{
		{"same", runs(100, 101, 102, 103), runs(100, 101, 102, 103), verdictOK},
		{"within the bound", runs(100, 101, 102, 103), runs(95, 96, 97, 98), verdictOK},
		{"worse", runs(100, 101, 102, 103), runs(80, 81, 82, 83), verdictWorse},
		{"better is ok", runs(100, 101, 102, 103), runs(150, 151, 152, 153), verdictOK},
		{"too noisy to tell", runs(60, 100, 140, 180), runs(100, 101, 102, 103), verdictUnresolved},
	} {
		rows := compareRuns(bf, c.a, c.b)
		if len(rows) != 1 || rows[0].Verdict != c.want {
			t.Errorf("%s: rows %+v, want one row with verdict %s", c.name, rows, c.want)
		}
	}
	if msg := envMismatch(envBlock{NProc: 2, GoVersion: "go1.24.0"}, envBlock{NProc: 4, GoVersion: "go1.24.0"}); msg == "" {
		t.Error("different nproc not reported")
	}
	if msg := envMismatch(envBlock{NProc: 2, GoVersion: "go1.24.0"}, envBlock{NProc: 2, GoVersion: "go1.24.0"}); msg != "" {
		t.Errorf("equal environments reported as %q", msg)
	}
}
