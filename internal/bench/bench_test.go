package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
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
// agents must produce these exact merged percentiles. The sample
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
			elapsed = 2e9 // slowest agent defines the merged window
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
		Agents:         4,
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
// exactly — the coordinator's merge math may never depend on how the
// population was partitioned across agents.
func TestMergedPercentilesEqualPopulation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nAgents := 1 + rng.Intn(6)
		var whole metrics.Histogram
		parts := make([]metrics.Histogram, nAgents)
		counts := make([]uint64, nAgents)
		for i := 0; i < 3000; i++ {
			d := time.Duration(rng.Intn(1<<33) + 1)
			a := rng.Intn(nAgents)
			whole.Record(d)
			parts[a].Record(d)
			counts[a]++
		}
		results := make([]Result, nAgents)
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
}

func TestSpecSplit(t *testing.T) {
	spec := Spec{
		Mode: "closed", Addr: "x", Clients: 10, Conns: 7, N: 103,
		Rate: 9000, Records: 100, OpsPerTxn: 4, Seed: 5,
	}
	for _, n := range []int{1, 2, 3, 4, 7} {
		parts := spec.Split(n)
		if len(parts) != n {
			t.Fatalf("split %d: %d parts", n, len(parts))
		}
		var totalN, totalClients int
		var totalRate float64
		seeds := map[int64]bool{}
		for _, p := range parts {
			totalN += p.N
			totalClients += p.Clients
			totalRate += p.Rate
			seeds[p.Seed] = true
		}
		if totalN != spec.N {
			t.Errorf("split %d: N sums to %d", n, totalN)
		}
		if n <= spec.Clients && totalClients != spec.Clients {
			t.Errorf("split %d: clients sum to %d", n, totalClients)
		}
		if totalRate < spec.Rate-1e-6 || totalRate > spec.Rate+1e-6 {
			t.Errorf("split %d: rate sums to %f", n, totalRate)
		}
		if len(seeds) != n {
			t.Errorf("split %d: seeds not distinct", n)
		}
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

// End to end: two in-process agents driven by a coordinator against a
// live server. Every generated transaction must reach exactly one
// terminal outcome and the merged histogram must cover every commit.
func TestAgentCoordinatorEndToEnd(t *testing.T) {
	srv := startTestServer(t)
	var agents []*AgentClient
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		go ServeAgent(ln, ln.Addr().String(), nil)
		a, err := DialAgent(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(a.Close)
		agents = append(agents, a)
	}
	total := Spec{
		Addr: srv.Addr(), Mode: "closed", Clients: 4, N: 300,
		Records: 2000, Theta: 0.5, OpsPerTxn: 4, ReadRatio: 0.5, RMW: true, Seed: 7,
	}
	results, err := Coordinate(agents, total.Split(len(agents)), 200*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Merge(results)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counts.Errors != 0 {
		t.Errorf("errors: %+v", s.Counts)
	}
	if got := s.Counts.Terminal(); got != 300 {
		t.Errorf("terminal outcomes = %d, want 300 (%+v)", got, s.Counts)
	}
	if s.Counts.Committed == 0 || s.ThroughputTxnS <= 0 || s.P50US <= 0 {
		t.Errorf("implausible summary: %+v", s)
	}
	for i, r := range results {
		if r.Agent == "" {
			t.Errorf("result %d unlabeled", i)
		}
	}
	// The control connection is reusable: a second, smaller round.
	total.N, total.Seed = 60, 8
	results, err = Coordinate(agents, total.Split(len(agents)), 200*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s, err = Merge(results)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counts.Terminal() != 60 {
		t.Errorf("second round terminal = %d", s.Counts.Terminal())
	}
}

// agentEnv puts a re-exec of this test binary into load-agent mode, so
// SpawnLocalAgents runs against real subprocesses.
const agentEnv = "TSKD_BENCH_TEST_AGENT"

func TestMain(m *testing.M) {
	if os.Getenv(agentEnv) != "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%s%s\n", ListenBanner, ln.Addr())
		ServeAgent(ln, ln.Addr().String(), nil)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// The -local-agents path: two agent subprocesses, spawned and
// coordinated against a live server, account for every transaction.
func TestSpawnLocalAgents(t *testing.T) {
	srv := startTestServer(t)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(agentEnv, "1")
	agents, stop, err := SpawnLocalAgents(2, self)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	total := Spec{
		Addr: srv.Addr(), Mode: "closed", Clients: 4, N: 200,
		Records: 2000, Theta: 0.5, OpsPerTxn: 4, ReadRatio: 0.5, RMW: true, Seed: 3,
	}
	results, err := Coordinate(agents, total.Split(len(agents)), 200*time.Millisecond, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Merge(results)
	if err != nil {
		t.Fatal(err)
	}
	if s.Agents != 2 || results[0].Agent == results[1].Agent {
		t.Errorf("want two distinct agents, got %q and %q", results[0].Agent, results[1].Agent)
	}
	if got := s.Counts.Terminal(); got != uint64(total.N) {
		t.Errorf("terminal outcomes = %d, want %d (%+v)", got, total.N, s.Counts)
	}
	if s.Counts.Errors != 0 {
		t.Errorf("errors: %+v", s.Counts)
	}
}

// The agent must reject a malformed spec at prepare rather than fail at
// start, and survive to serve a correct session afterwards.
func TestAgentRejectsBadSpec(t *testing.T) {
	srv := startTestServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go ServeAgent(ln, "a1", nil)
	a, err := DialAgent(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	if err := a.Prepare(Spec{Mode: "sideways"}); err == nil {
		t.Fatal("bad spec accepted")
	}
	good := Spec{Addr: srv.Addr(), Mode: "closed", Clients: 1, N: 10,
		Records: 2000, Theta: 0.5, OpsPerTxn: 4, ReadRatio: 0.5, RMW: true, Seed: 1}
	if err := a.Prepare(good); err != nil {
		t.Fatalf("good spec after bad one: %v", err)
	}
	if err := a.Start(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	res, err := a.Collect(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Terminal() != 10 {
		t.Errorf("terminal = %d", res.Counts.Terminal())
	}
}

func TestResultRoundTrip(t *testing.T) {
	var h metrics.Histogram
	h.Record(time.Millisecond)
	h.Record(2 * time.Millisecond)
	r := Result{
		Agent: "a0", ElapsedNS: 123456789,
		Counts:    Counts{Sent: 3, Committed: 2, Aborted: 1},
		Latency:   h.Data(),
		PerSecond: []uint64{2, 1},
	}
	got, err := DecodeResult(EncodeResult(r))
	if err != nil {
		t.Fatal(err)
	}
	s1, err1 := Merge([]Result{r})
	s2, err2 := Merge([]Result{got})
	if err1 != nil || err2 != nil || s1.P99US != s2.P99US || s1.Counts != s2.Counts {
		t.Errorf("round trip changed the result: %+v vs %+v", s1, s2)
	}
	// Lying per-second series must be rejected.
	r.PerSecond = []uint64{100, 100}
	if _, err := DecodeResult(EncodeResult(r)); err == nil {
		t.Error("oversized per-second series accepted")
	}
}
