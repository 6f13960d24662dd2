package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/shard"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// startSharded boots a loopback server in sharded mode: each shard
// owns a full YCSB replica (ownership is by key hash; non-owned rows
// are simply never touched).
func startSharded(t *testing.T, shards int, mut func(*Config)) (*Server, workload.YCSB) {
	t.Helper()
	ycsb := workload.YCSB{Records: 2000, Theta: 0.9, OpsPerTxn: 8, ReadRatio: 0.5, RMW: true}
	cfg := Config{
		Addr:          "127.0.0.1:0",
		HTTPAddr:      "127.0.0.1:0",
		Shards:        shards,
		ShardDB:       func(int) *storage.DB { return ycsb.BuildDB() },
		Bundle:        32,
		FlushInterval: 2 * time.Millisecond,
		QueueDepth:    1024,
		Core:          core.Options{Workers: 2, Protocol: "SILO", Seed: 1},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s, ycsb
}

// genShardedRequests builds wire requests whose key footprints are
// confined per shard.Confine: crossFrac of them span two shards, the
// rest stay on one. Returns the requests plus the cross-shard count.
func genShardedRequests(t *testing.T, ycsb workload.YCSB, shards, n int, crossFrac float64, seed int64) ([]client.Request, int) {
	t.Helper()
	c := ycsb
	c.Txns = n
	c.Seed = seed
	w := c.Generate()
	_, cross := shard.Confine(w, shards, crossFrac, uint64(ycsb.Records), seed)
	reqs := make([]client.Request, len(w))
	for i, tx := range w {
		req, err := client.NewRequest(0, tx)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	return reqs, cross
}

// submitUntilCommitted drives one request closed-loop, retrying
// rejected responses (2PC vote-no under contention surfaces as
// Rejected with a retry hint) until it commits.
func submitUntilCommitted(t *testing.T, conn *client.PipelinedConn, req client.Request) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := conn.Submit(context.Background(), req)
		if err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		switch resp.Status {
		case client.StatusCommit:
			return
		case client.StatusRejected:
			if time.Now().After(deadline) {
				t.Errorf("still rejected after 10s: %+v", resp)
				return
			}
			wait := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if wait <= 0 {
				wait = time.Millisecond
			}
			time.Sleep(wait)
		default:
			t.Errorf("status %q (%s)", resp.Status, resp.Error)
			return
		}
	}
}

// TestShardedEndToEnd drives a 4-shard server over TCP with a mix of
// single- and cross-shard transactions and checks the rolled-up and
// per-shard counters, including over /metrics.
func TestShardedEndToEnd(t *testing.T) {
	const shards = 4
	s, ycsb := startSharded(t, shards, nil)
	defer s.Shutdown(context.Background())

	const clients, perClient = 2, 120
	totalCross := 0
	var crossMu sync.Mutex
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			reqs, cross := genShardedRequests(t, ycsb, shards, perClient, 0.25, int64(300+ci))
			crossMu.Lock()
			totalCross += cross
			crossMu.Unlock()
			for _, req := range reqs {
				submitUntilCommitted(t, conn, req)
			}
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := s.Stats()
	const n = clients * perClient
	if st.Committed != n {
		t.Errorf("committed %d, want %d", st.Committed, n)
	}
	if len(st.Shards) != shards {
		t.Fatalf("per-shard stats: %d entries, want %d", len(st.Shards), shards)
	}
	if st.TwoPC == nil {
		t.Fatal("no 2PC stats in sharded mode")
	}
	if st.TwoPC.Committed != uint64(totalCross) {
		t.Errorf("2PC committed %d, want %d cross-shard txns", st.TwoPC.Committed, totalCross)
	}
	if st.TwoPC.Prepared < uint64(2*totalCross) {
		t.Errorf("2PC prepared %d, want >= %d (two participants each)", st.TwoPC.Prepared, 2*totalCross)
	}
	if st.TwoPC.InDoubt != 0 {
		t.Errorf("in-doubt gauge %d after drain, want 0", st.TwoPC.InDoubt)
	}
	var perShard int
	active := 0
	for _, sh := range st.Shards {
		perShard += int(sh.Committed)
		if sh.Admitted > 0 {
			active++
		}
	}
	if perShard+int(st.TwoPC.Committed) != n {
		t.Errorf("per-shard committed %d + cross %d != %d", perShard, st.TwoPC.Committed, n)
	}
	if active != shards {
		t.Errorf("only %d/%d shards saw traffic", active, shards)
	}

	// /metrics must carry the sharded breakdown.
	mresp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	var mst Stats
	if err := json.Unmarshal(body, &mst); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if len(mst.Shards) != shards || mst.TwoPC == nil {
		t.Errorf("/metrics missing sharded counters: shards=%d twopc=%v", len(mst.Shards), mst.TwoPC != nil)
	}
	// The prepare vote-no share and the coordinator's hold time are
	// read from here.
	for _, gauge := range []string{`"aborted_vote":`, `"held":`, `"hold_wait_us":`} {
		if !strings.Contains(string(body), gauge) {
			t.Errorf("/metrics has no %s field", gauge)
		}
	}
}

// TestShardedDeadlineExpiresAtBundleFormation is the sharded twin of
// TestDeadlineExpiresAtBundleFormation, and carries its ordering
// assertion: a client that holds its response finds it counted —
// by the unit (Expired) and by the serving layer (ResultsStreamed) —
// because both count before the response is sent.
func TestShardedDeadlineExpiresAtBundleFormation(t *testing.T) {
	s, ycsb := startSharded(t, 2, func(c *Config) { c.FlushInterval = 50 * time.Millisecond })
	defer s.Shutdown(context.Background())

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reqs, _ := genShardedRequests(t, ycsb, 2, 1, 0, 43)
	reqs[0].DeadlineMS = 1 // << 50ms flush interval
	resp, err := conn.Submit(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != client.StatusExpired {
		t.Fatalf("status %q, want %q", resp.Status, client.StatusExpired)
	}
	st := s.Stats()
	if st.Expired != 1 || st.Committed != 0 {
		t.Fatalf("expired=%d committed=%d, want 1/0", st.Expired, st.Committed)
	}
	if st.Admitted != 1 || st.ResultsStreamed != 1 || st.Forfeited != 0 {
		t.Fatalf("admitted=%d results=%d forfeited=%d, want 1/1/0", st.Admitted, st.ResultsStreamed, st.Forfeited)
	}
}

// TestShardedBundleAnswersCoalesce writes a bundle's worth of
// single-shard requests to one shard in one write on a raw socket: the
// unit answers the bundle with buffered replies and one flush, so at
// least one response frame carries more than one body, and every seq
// is answered exactly once. A cross-shard request, answered by its 2PC
// coordinator, is flushed at once: it does not wait for a unit bundle.
func TestShardedBundleAnswersCoalesce(t *testing.T) {
	const n = 16
	const flushEvery = 5 * time.Second // only a full bundle runs
	s, _ := startSharded(t, 4, func(c *Config) {
		c.Bundle = n
		c.FlushInterval = flushEvery
	})
	defer s.Shutdown(context.Background())
	router := s.Runtime().Router()
	var onShard [2][]txn.Key
	for row := uint64(0); len(onShard[0]) < n+1 || len(onShard[1]) < 1; row++ {
		k := txn.MakeKey(workload.YCSBTable, row)
		if h := router.Home(k); h < 2 {
			onShard[h] = append(onShard[h], k)
		}
	}
	frame := func(seq uint64, tx *txn.Transaction) []byte {
		req, err := client.NewRequest(seq, tx)
		if err != nil {
			t.Fatal(err)
		}
		return requestFrame(t, req)
	}

	nc, br := rawConn(t, s.Addr())
	var burst []byte
	for i := 0; i < n; i++ {
		burst = append(burst, frame(uint64(i+1), txn.New(0).U(onShard[0][i], 1))...)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	answered := map[uint64]int{}
	maxBodies := 0
	for got := 0; got < n; {
		resps := readResponses(t, nc, br)
		maxBodies = max(maxBodies, len(resps))
		for _, r := range resps {
			if !r.Committed() {
				t.Fatalf("seq %d: %+v", r.Seq, r)
			}
			answered[r.Seq]++
		}
		got += len(resps)
	}
	for seq := uint64(1); seq <= n; seq++ {
		if answered[seq] != 1 {
			t.Errorf("seq %d answered %d times", seq, answered[seq])
		}
	}
	if maxBodies < 2 {
		t.Errorf("every response frame carried one body: the bundle was not coalesced")
	}

	cross := txn.New(0).U(onShard[0][n], 1).U(onShard[1][0], 1)
	start := time.Now()
	if _, err := nc.Write(frame(n+1, cross)); err != nil {
		t.Fatal(err)
	}
	resps := readResponses(t, nc, br)
	if len(resps) != 1 || resps[0].Seq != n+1 || !resps[0].Committed() {
		t.Fatalf("cross-shard answer: %+v", resps)
	}
	if wait := time.Since(start); wait >= flushEvery/2 {
		t.Errorf("cross-shard answer took %v: it waited for a unit bundle", wait)
	}
}

// TestShardedStatsRollUpDefers pipelines hot single-shard traffic into
// a 2-shard server, so every unit's bundles hold transactions that
// contend and TsDEFER fires, and checks that the per-shard defer
// counters exist and roll up into the flat Stats.
func TestShardedStatsRollUpDefers(t *testing.T) {
	const shards, n = 2, 1500
	s, ycsb := startSharded(t, shards, func(c *Config) { c.Bundle = 128 })
	defer s.Shutdown(context.Background())
	ycsb.Theta, ycsb.OpsPerTxn = 0.99, 16

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	reqs, _ := genShardedRequests(t, ycsb, shards, n, 0, 41)
	var wg sync.WaitGroup
	for _, req := range reqs {
		wg.Add(1)
		go func(req client.Request) {
			defer wg.Done()
			if resp, err := conn.Submit(context.Background(), req); err != nil {
				t.Errorf("submit: %v", err)
			} else if !resp.Committed() {
				t.Errorf("status %q (%s)", resp.Status, resp.Error)
			}
		}(req)
	}
	wg.Wait()

	st := s.Stats()
	if st.Committed != n {
		t.Errorf("committed %d, want %d", st.Committed, n)
	}
	var perShard uint64
	for _, sh := range st.Shards {
		perShard += sh.Defers
	}
	if st.Defers == 0 || st.Defers != perShard {
		t.Errorf("defers: rolled up %d, per-shard sum %d; want equal and non-zero on hot traffic", st.Defers, perShard)
	}
}

// TestShardedDurableRestart commits one single-shard and one
// cross-shard transaction with idempotency keys against a durable
// 4-shard server, restarts it over the same directory, and checks
// that recovery reports the decision and both resubmissions dedup.
func TestShardedDurableRestart(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	durable := func(c *Config) {
		c.Durability = &DurabilityOptions{Dir: dir, NoSync: true}
	}
	s, ycsb := startSharded(t, shards, durable)

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// One key per shard pair: k0 on shard home(k0), k1 elsewhere.
	r := shard.Router{Shards: shards}
	var k0, k1 txn.Key
	k0 = txn.MakeKey(workload.YCSBTable, 0)
	for row := uint64(1); ; row++ {
		k := txn.MakeKey(workload.YCSBTable, row%uint64(ycsb.Records))
		if r.Home(k) != r.Home(k0) {
			k1 = k
			break
		}
	}

	local := &txn.Transaction{}
	local.UF(k0, 5, 0)
	lreq, err := client.NewRequest(1, local)
	if err != nil {
		t.Fatal(err)
	}
	lreq.IdemKey = 7001
	cross := &txn.Transaction{}
	cross.UF(k0, 3, 0)
	cross.UF(k1, 4, 0)
	creq, err := client.NewRequest(2, cross)
	if err != nil {
		t.Fatal(err)
	}
	creq.IdemKey = 7002

	for _, req := range []client.Request{lreq, creq} {
		resp, err := conn.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != client.StatusCommit {
			t.Fatalf("seq %d status %q (%s)", req.Seq, resp.Status, resp.Error)
		}
	}
	conn.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart over the same directory.
	s2, _ := startSharded(t, shards, durable)
	defer s2.Shutdown(context.Background())
	info := s2.ShardRecovery()
	if info.CoordDecisions != 1 {
		t.Errorf("recovered %d coordinator decisions, want 1", info.CoordDecisions)
	}
	if info.Boots != 1 {
		t.Errorf("recovered %d boot records, want 1", info.Boots)
	}

	conn2, err := client.DialPipelined(s2.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	for _, req := range []client.Request{lreq, creq} {
		resp, err := conn2.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != client.StatusCommit || !resp.Duplicate {
			t.Errorf("seq %d resubmit status %q dup=%v, want cached commit", req.Seq, resp.Status, resp.Duplicate)
		}
	}
}

// TestConfigRejectsUnsupportedCombinations: New refuses a configuration
// it would otherwise run while silently dropping part of it.
func TestConfigRejectsUnsupportedCombinations(t *testing.T) {
	ycsb := workload.YCSB{Records: 16}
	shardDB := func(int) *storage.DB { return ycsb.BuildDB() }
	wrap := func(s wal.Syncer) wal.Syncer { return s }
	for _, c := range []struct {
		name    string
		cfg     Config
		wantErr string // substring; "" = accepted
	}{
		{"unsharded without DB", Config{}, "Config.DB is required"},
		{"sharded without ShardDB", Config{Shards: 2}, "Config.ShardDB is required"},
		{"durable without Dir", Config{DB: ycsb.BuildDB(), Durability: &DurabilityOptions{}}, "Dir is required"},
		{"WrapSyncer, sharded", Config{Shards: 2, ShardDB: shardDB,
			Durability: &DurabilityOptions{Dir: t.TempDir(), WrapSyncer: wrap}}, "WrapSyncer is not supported in sharded mode"},
		{"WrapSyncer, unsharded", Config{DB: ycsb.BuildDB(),
			Durability: &DurabilityOptions{Dir: t.TempDir(), WrapSyncer: wrap}}, ""},
		{"WrapSyncer, Shards = 1", Config{Shards: 1, DB: ycsb.BuildDB(),
			Durability: &DurabilityOptions{Dir: t.TempDir(), WrapSyncer: wrap}}, ""},
		{"sharded and durable, no WrapSyncer", Config{Shards: 2, ShardDB: shardDB,
			Durability: &DurabilityOptions{Dir: t.TempDir()}}, ""},
		// A protocol name cc.New does not know is refused here, not at
		// the first bundle.
		{"unknown protocol", Config{DB: ycsb.BuildDB(), Core: core.Options{Protocol: "MVCC"}}, "unknown protocol"},
	} {
		err := c.cfg.withDefaults()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}
