package bench

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"tskd/internal/core"
	"tskd/internal/metrics"
	"tskd/internal/server"
	"tskd/internal/workload"
)

// histData records the durations into a fresh histogram and exports it.
func histData(ds ...time.Duration) metrics.HistogramData {
	var h metrics.Histogram
	for _, d := range ds {
		h.Record(d)
	}
	return h.Data()
}

func repeatDur(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// Golden merge math: a known population split unevenly across four
// results must produce these exact merged percentiles. The sample
// values are exact bucket lower bounds of the log-bucketed histogram
// (powers of two), so quantiles are exact, not approximations:
// 500×524288ns, 300×1048576ns, 200×2097152ns.
func TestMergeGoldenPercentiles(t *testing.T) {
	pop := append(repeatDur(524288, 500), append(repeatDur(1048576, 300), repeatDur(2097152, 200)...)...)
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	shares := []int{350, 250, 250, 150} // uneven on purpose
	var results []Result
	off := 0
	for i, n := range shares {
		part := pop[off : off+n]
		off += n
		elapsed := int64(1e9)
		if i == 0 {
			elapsed = 2e9 // slowest result defines the merged window
		}
		results = append(results, Result{
			ElapsedNS: elapsed,
			Counts:    Counts{Sent: uint64(n), Committed: uint64(n)},
			Latency:   histData(part...),
		})
	}
	s, err := Merge(results)
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{
		ElapsedS:       2.0,
		ThroughputTxnS: 500, // 1000 terminal / 2s
		GoodputTxnS:    500,
		P50US:          524,  // 524288ns
		P90US:          2097, // 2097152ns (rank 899 falls past the 800 cumulative)
		P99US:          2097,
		P999US:         2097,
		MaxUS:          2097,
		MeanUS:         996, // (500·524288 + 300·1048576 + 200·2097152)/1000 ns
	}
	got := s
	got.Counts = Counts{}
	got.PerSecond = nil
	got.QueueP99US, got.ExecP99US = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged summary:\n got %+v\nwant %+v", got, want)
	}
	if s.Counts.Committed != 1000 || s.Counts.Sent != 1000 {
		t.Errorf("merged counts: %+v", s.Counts)
	}
}

// Property: merged percentiles must equal whole-population percentiles
// exactly — the merge math may never depend on how the population was
// partitioned across results.
func TestMergedPercentilesEqualPopulation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nParts := 1 + rng.Intn(6)
		var whole metrics.Histogram
		parts := make([]metrics.Histogram, nParts)
		counts := make([]uint64, nParts)
		for i := 0; i < 3000; i++ {
			d := time.Duration(rng.Intn(1<<33) + 1)
			a := rng.Intn(nParts)
			whole.Record(d)
			parts[a].Record(d)
			counts[a]++
		}
		results := make([]Result, nParts)
		for i := range results {
			results[i] = Result{
				ElapsedNS: 1e9,
				Counts:    Counts{Sent: counts[i], Committed: counts[i]},
				Latency:   parts[i].Data(),
			}
		}
		s, err := Merge(results)
		if err != nil {
			return false
		}
		return s.P50US == whole.Quantile(0.50).Microseconds() &&
			s.P90US == whole.Quantile(0.90).Microseconds() &&
			s.P99US == whole.Quantile(0.99).Microseconds() &&
			s.P999US == whole.Quantile(0.999).Microseconds() &&
			s.MaxUS == whole.Max().Microseconds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMergeRejectsCorruptResult(t *testing.T) {
	good := Result{ElapsedNS: 1e9, Counts: Counts{Sent: 1, Committed: 1}, Latency: histData(time.Millisecond)}
	bad := good
	bad.Latency.Total++ // bucket sum no longer matches
	if _, err := Merge([]Result{good, bad}); err == nil {
		t.Error("merge accepted corrupt histogram data")
	}
	if _, err := Merge(nil); err == nil {
		t.Error("merge accepted empty result set")
	}
	lying := good
	lying.Counts.Committed = 0 // fewer commits than latency samples
	if _, err := Merge([]Result{lying}); err == nil {
		t.Error("merge accepted more latency samples than commits")
	}
	overcount := good
	overcount.PerSecond = []uint64{100, 100} // more decisions than terminal outcomes
	if _, err := Merge([]Result{overcount}); err == nil {
		t.Error("merge accepted an oversized per-second series")
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Addr: "a", Mode: "closed", Clients: 1, N: 1, Records: 1, OpsPerTxn: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bad := []Spec{
		{},
		{Addr: "a", Mode: "sideways", Clients: 1, N: 1, Records: 1, OpsPerTxn: 1},
		{Addr: "a", Mode: "closed", Clients: 0, N: 1, Records: 1, OpsPerTxn: 1},
		{Addr: "a", Mode: "open", Conns: 1, Rate: 0, N: 1, Records: 1, OpsPerTxn: 1},
		{Addr: "a", Mode: "open", Conns: 0, Rate: 1, N: 1, Records: 1, OpsPerTxn: 1},
		{Addr: "a", Mode: "open", Conns: 1, Rate: 1, N: 1, Records: 1, OpsPerTxn: 1, Arrival: "bursty"},
		{Addr: "a", Mode: "closed", Clients: 1, N: 0, Records: 1, OpsPerTxn: 1},
		{Addr: "a", Mode: "closed", Clients: 1, N: 1, Records: 1, OpsPerTxn: 1, MultiKey: 0.5},
		{Addr: "a", Mode: "closed", Clients: 1, N: 1, Records: 1, OpsPerTxn: 1, Reliable: true, Conns: 2},
		{Addr: "a", Mode: "closed", Clients: 1, N: 1, Records: 1, OpsPerTxn: 1, Theta: -0.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func startTestServer(t *testing.T) *server.Server {
	t.Helper()
	gen := workload.YCSB{Records: 2000, Theta: 0.5, OpsPerTxn: 4, ReadRatio: 0.5, RMW: true}
	s, err := server.New(server.Config{
		Addr:          "127.0.0.1:0",
		Bundle:        64,
		FlushInterval: time.Millisecond,
		DB:            gen.BuildDB(),
		Core:          core.Options{Workers: 2, Protocol: "OCC", Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// End to end: closed, reliable and open runs against a live server.
// Every generated transaction reaches exactly one terminal outcome and
// the summary covers every commit.
func TestRunLocalEndToEnd(t *testing.T) {
	srv := startTestServer(t)
	base := Spec{
		Addr: srv.Addr(), N: 300,
		Records: 2000, Theta: 0.5, OpsPerTxn: 4, ReadRatio: 0.5, RMW: true, Seed: 7,
	}
	closed, reliable, open := base, base, base
	closed.Mode, closed.Clients = "closed", 4
	reliable.Mode, reliable.Clients, reliable.Reliable = "closed", 2, true
	open.Mode, open.Conns, open.Rate, open.Arrival = "open", 2, 5000, "uniform"
	for _, spec := range []Spec{closed, reliable, open} {
		res, err := RunLocal(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s reliable=%v: %v", spec.Mode, spec.Reliable, err)
		}
		s, err := Merge([]Result{res})
		if err != nil {
			t.Fatal(err)
		}
		if s.Counts.Errors != 0 {
			t.Errorf("%s reliable=%v: errors: %+v", spec.Mode, spec.Reliable, s.Counts)
		}
		if got := s.Counts.Terminal(); got != uint64(spec.N) {
			t.Errorf("%s reliable=%v: terminal outcomes = %d, want %d (%+v)", spec.Mode, spec.Reliable, got, spec.N, s.Counts)
		}
		if s.Counts.Committed == 0 || s.ThroughputTxnS <= 0 || s.P50US <= 0 {
			t.Errorf("%s reliable=%v: implausible summary: %+v", spec.Mode, spec.Reliable, s)
		}
	}
}
