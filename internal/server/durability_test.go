package server

import (
	"context"
	"errors"
	"fmt"
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

// durableConfig is the base configuration of the durability tests:
// loopback listener, small bundles, a data directory under dir.
func durableConfig(dir string, ycsb workload.YCSB) Config {
	return Config{
		Addr:          "127.0.0.1:0",
		Bundle:        16,
		FlushInterval: 2 * time.Millisecond,
		QueueDepth:    256,
		DB:            ycsb.BuildDB(),
		Core:          core.Options{Workers: 4, Protocol: "SILO", Seed: 1},
		Durability: &DurabilityOptions{
			Dir:         dir,
			GroupWindow: time.Millisecond,
			NoSync:      true, // keep the hot loop off the disk in tests
		},
	}
}

// markerKey addresses rows far above the preloaded YCSB range, so an
// insert at markerKey(i) proves submission i executed.
func markerKey(i int) txn.Key {
	return txn.MakeKey(workload.YCSBTable, (1<<20)+uint64(i))
}

func markerReq(t *testing.T, idem uint64, i int) client.Request {
	t.Helper()
	tx := txn.New(0).
		R(txn.MakeKey(workload.YCSBTable, uint64(i)%64)).
		U(txn.MakeKey(workload.YCSBTable, (uint64(i)+7)%64), 1).
		I(markerKey(i))
	req, err := client.NewRequest(0, tx)
	if err != nil {
		t.Fatal(err)
	}
	req.IdemKey = idem
	return req
}

// assertMarkers checks that markers [0,n) exist in db with version 1 —
// inserted exactly once — and that no marker >= n leaked in.
func assertMarkers(t *testing.T, db *storage.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		row := db.Resolve(markerKey(i))
		if row == nil {
			t.Fatalf("marker %d lost", i)
		}
		if v := storage.VerNumber(row.Ver.Load()); v != 1 {
			t.Fatalf("marker %d at version %d, want 1 (exactly one install)", i, v)
		}
	}
}

// TestDurableRecovery is the tentpole's core contract end to end:
// acknowledged commits survive a full server stop, recovery happens in
// New (before any listener binds), and resubmitting the same
// idempotency keys against the recovered server answers Duplicate
// without re-executing.
func TestDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	ycsb := workload.YCSB{Records: 256}

	s, err := New(durableConfig(dir, ycsb))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		resp, err := conn.Submit(context.Background(), markerReq(t, uint64(1000+i), i))
		if err != nil || !resp.Committed() {
			t.Fatalf("submit %d: %+v %v", i, resp, err)
		}
		if resp.Duplicate {
			t.Fatalf("fresh submit %d marked duplicate", i)
		}
	}
	st := s.Stats()
	if st.WALRecords == 0 || st.WALFlushes == 0 {
		t.Fatalf("no WAL activity: %+v", st)
	}
	conn.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second incarnation over the same directory, with a *fresh* base
	// database: everything must come back from checkpoint + WAL.
	s2, err := New(durableConfig(dir, ycsb))
	if err != nil {
		t.Fatal(err)
	}
	// Recovery completed inside New — before Start binds anything.
	assertMarkers(t, s2.DB(), n)
	info := s2.Recovery()
	if info.Replayed == 0 && info.CheckpointLSN == 0 {
		t.Fatalf("recovery saw nothing: %+v", info)
	}
	if info.DedupRestored != n {
		t.Fatalf("restored %d idempotency keys, want %d", info.DedupRestored, n)
	}

	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	conn2, err := client.Dial(s2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	// Resubmit every key: all must dedup, none may re-execute.
	for i := 0; i < n; i++ {
		resp, err := conn2.Submit(context.Background(), markerReq(t, uint64(1000+i), i))
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Committed() || !resp.Duplicate {
			t.Fatalf("resubmit %d: %+v, want duplicate commit", i, resp)
		}
	}
	st2 := s2.Stats()
	if st2.Committed != 0 {
		t.Fatalf("resubmission re-executed %d transactions", st2.Committed)
	}
	if st2.DedupHits != n {
		t.Fatalf("dedup hits %d, want %d", st2.DedupHits, n)
	}
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertMarkers(t, s2.DB(), n) // still exactly once
}

// TestCheckpointTruncation drives enough log volume through tiny
// segment/checkpoint thresholds to force background checkpoints and
// WAL truncation, then recovers and checks that nothing was lost —
// including idempotency keys whose WAL records were truncated away
// (they ride the dedup sidecar). Both stacks run it: the unsharded
// server, and a sharded one whose markers are each confined to the
// marker's home shard, so every key lives in a shard's window.
func TestCheckpointTruncation(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			ycsb := workload.YCSB{Records: 256}
			router := shard.Router{Shards: shards}
			config := func() Config {
				cfg := durableConfig(dir, ycsb)
				cfg.Durability.SegmentBytes = 2 << 10
				cfg.Durability.CheckpointBytes = 8 << 10
				if shards > 1 {
					cfg.Shards, cfg.DB = shards, nil
					cfg.ShardDB = func(int) *storage.DB { return ycsb.BuildDB() }
				}
				return cfg
			}
			req := func(idem uint64, i int) client.Request {
				if shards == 1 {
					return markerReq(t, idem, i)
				}
				home := router.Home(markerKey(i))
				onHome := func(row uint64) txn.Key {
					for ; ; row++ {
						if k := txn.MakeKey(workload.YCSBTable, row%64); router.Home(k) == home {
							return k
						}
					}
				}
				req, err := client.NewRequest(0, txn.New(0).R(onHome(uint64(i))).U(onHome(uint64(i)+7), 1).I(markerKey(i)))
				if err != nil {
					t.Fatal(err)
				}
				req.IdemKey = idem
				return req
			}

			s, err := New(config())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			conn, err := client.Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			const n = 300
			for i := 0; i < n; i++ {
				resp, err := conn.Submit(context.Background(), req(uint64(5000+i), i))
				if err != nil || !resp.Committed() {
					t.Fatalf("submit %d: %+v %v", i, resp, err)
				}
			}
			st := s.Stats()
			if st.Checkpoints == 0 || st.CheckpointErrors != 0 {
				t.Fatalf("%d checkpoints, %d failed, after %d commits over a %d-byte threshold", st.Checkpoints, st.CheckpointErrors, n, config().Durability.CheckpointBytes)
			}
			if st.TruncatedSegments == 0 {
				t.Fatalf("checkpoints never truncated a segment: %+v", st)
			}
			if shards == 1 && st.LastCheckpointLSN == 0 {
				t.Fatalf("checkpoint LSN not recorded: %+v", st)
			}
			for i, sh := range st.Shards {
				if sh.Checkpoints > 0 && sh.LastCheckpointLSN == 0 {
					t.Fatalf("shard %d: checkpoint LSN not recorded: %+v", i, sh)
				}
			}
			conn.Close()
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}

			// The truncated directory must still recover completely.
			var dbs []*storage.DB
			var keys int
			var ckptLSN uint64
			if shards == 1 {
				db, info, k, err := Recover(dir, ycsb.BuildDB())
				if err != nil {
					t.Fatal(err)
				}
				dbs, keys, ckptLSN = []*storage.DB{db}, len(k), info.CheckpointLSN
			} else {
				rst, err := shard.Recover(dir, shards, config().ShardDB)
				if err != nil {
					t.Fatal(err)
				}
				dbs, keys = rst.DBs, len(rst.CrossKeys)
				for i, sh := range rst.Info.Shards {
					keys += len(rst.ShardKeys[i])
					ckptLSN = max(ckptLSN, sh.CheckpointLSN)
				}
			}
			for i := 0; i < n; i++ {
				row := dbs[router.Home(markerKey(i))].Resolve(markerKey(i))
				if row == nil {
					t.Fatalf("marker %d lost", i)
				}
				if v := storage.VerNumber(row.Ver.Load()); v != 1 {
					t.Fatalf("marker %d at version %d, want 1 (exactly one install)", i, v)
				}
			}
			if ckptLSN == 0 {
				t.Fatal("recovery ignored every checkpoint")
			}
			if keys != n {
				t.Fatalf("recovered %d idempotency keys, want %d (sidecar + WAL tail)", keys, n)
			}

			// And a recovered server still dedups a key whose WAL record was
			// truncated (the very first submission is the most likely one).
			s2, err := New(config())
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.Start(); err != nil {
				t.Fatal(err)
			}
			conn2, err := client.Dial(s2.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn2.Close()
			resp, err := conn2.Submit(context.Background(), req(5000, 0))
			if err != nil || !resp.Committed() || !resp.Duplicate {
				t.Fatalf("resubmit of truncated-key: %+v %v, want duplicate commit", resp, err)
			}
			if err := s2.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableSync runs one durable server with real fsync enabled —
// the configuration production uses — and checks every group flush
// carried a sync barrier.
func TestDurableSync(t *testing.T) {
	dir := t.TempDir()
	ycsb := workload.YCSB{Records: 64}
	cfg := durableConfig(dir, ycsb)
	cfg.Durability.NoSync = false

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		resp, err := conn.Submit(context.Background(), markerReq(t, 0, i))
		if err != nil || !resp.Committed() {
			t.Fatalf("submit %d: %+v %v", i, resp, err)
		}
	}
	st := s.Stats()
	if st.WALSyncs == 0 || st.WALSyncs != st.WALFlushes {
		t.Fatalf("syncs %d flushes %d, want equal and nonzero", st.WALSyncs, st.WALFlushes)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestInflightDuplicateRejected pins the third dedup state: while a
// key is executing, a duplicate submission is pushed back with
// retry-after rather than queued twice or answered early.
func TestInflightDuplicateRejected(t *testing.T) {
	dir := t.TempDir()
	ycsb := workload.YCSB{Records: 64}
	cfg := durableConfig(dir, ycsb)
	cfg.FlushInterval = 200 * time.Millisecond // hold the bundle open

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	conn, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// First submission parks in the open bundle; fire and don't wait.
	go conn.Submit(context.Background(), markerReq(t, 77, 0))
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Admitted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("admission stalled: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := conn.Submit(context.Background(), markerReq(t, 77, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Rejected() || resp.RetryAfterMS <= 0 {
		t.Fatalf("in-flight duplicate: %+v, want rejection with retry-after", resp)
	}
	if st := s.Stats(); st.DedupInflight != 1 {
		t.Errorf("dedup inflight counter = %d", st.DedupInflight)
	}
}

// TestRetryAfterScalesWithOccupancy pins satellite #1: the backoff
// hint grows with the number of full bundles waiting in the admission
// queue. Exercised directly against the internal method so queue
// occupancy is exact rather than racing live traffic.
func TestRetryAfterScalesWithOccupancy(t *testing.T) {
	ycsb := workload.YCSB{Records: 64}
	s, err := New(Config{
		Addr:          "127.0.0.1:0",
		Bundle:        4,
		FlushInterval: 10 * time.Millisecond,
		QueueDepth:    16,
		DB:            ycsb.BuildDB(),
		Core:          core.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := s.cfg.FlushInterval.Milliseconds() + 1
	if got := s.retryAfterMS(); got != base {
		t.Fatalf("empty queue: retry-after %d, want %d", got, base)
	}
	// Stuff 12 pendings = 3 full bundles into the queue (the server
	// was never started, so the bundler is not draining it).
	for i := 0; i < 12; i++ {
		s.admit <- &pending{}
	}
	if got := s.retryAfterMS(); got != 4*base {
		t.Fatalf("3-bundle backlog: retry-after %d, want %d", got, 4*base)
	}
	if st := s.Stats(); st.RetryAfterMS != 4*base {
		t.Errorf("Stats.RetryAfterMS = %d, want %d", st.RetryAfterMS, 4*base)
	}
}

// errWriter fails every write and counts attempts.
type errWriter struct{ writes int }

func (w *errWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("peer gone")
}

// TestConnWriterLatch pins satellite #2: the first encode error
// latches the writer dead and later sends are skipped without touching
// the connection again.
func TestConnWriterLatch(t *testing.T) {
	var w errWriter
	cw := newConnWriter(&w)
	if cw.send(client.Response{Seq: 1}) {
		t.Fatal("send on a broken connection reported success")
	}
	if w.writes != 1 {
		t.Fatalf("first send made %d writes, want 1", w.writes)
	}
	for i := 0; i < 5; i++ {
		if cw.send(client.Response{Seq: uint64(i)}) {
			t.Fatal("send on a dead writer reported success")
		}
	}
	if w.writes != 1 {
		t.Fatalf("dead writer still written to: %d writes total", w.writes)
	}
}

// TestRecoverEmptyDir pins the fresh-start path: a new data directory
// recovers to the base database with nothing replayed.
func TestRecoverEmptyDir(t *testing.T) {
	base := workload.YCSB{Records: 8}.BuildDB()
	db, info, keys, err := Recover(t.TempDir(), base)
	if err != nil {
		t.Fatal(err)
	}
	if db != base {
		t.Error("fresh recovery should hand back the base database")
	}
	if info.Replayed != 0 || info.CheckpointLSN != 0 || len(keys) != 0 {
		t.Errorf("fresh dir recovered state: %+v, %d keys", info, len(keys))
	}
}

// TestWALRecordsCarryIdemKeys checks the engine-to-log plumbing the
// dedup window depends on across restarts: each committed write-set's
// record carries the submitting request's idempotency key.
func TestWALRecordsCarryIdemKeys(t *testing.T) {
	dir := t.TempDir()
	ycsb := workload.YCSB{Records: 64}
	s, err := New(durableConfig(dir, ycsb))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		resp, err := conn.Submit(context.Background(), markerReq(t, uint64(9000+i), i))
		if err != nil || !resp.Committed() {
			t.Fatalf("submit %d: %+v %v", i, resp, err)
		}
	}
	conn.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	keys := map[uint64]bool{}
	if _, _, err := wal.ReplayDir(dir, func(_ uint64, rec wal.Record) error {
		if rec.IdemKey != 0 {
			keys[rec.IdemKey] = true
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !keys[uint64(9000+i)] {
			t.Errorf("idempotency key %d missing from the log", 9000+i)
		}
	}
}

// TestReliableResubmitAcrossRestart is the client half of the
// exactly-once story without SIGKILL (the chaos harness covers the
// kill): a ReliableConn keeps a submission alive across a full server
// stop-and-restart on the same address and data directory, and a
// resubmitted known-committed key answers Duplicate instead of
// executing twice.
func TestReliableResubmitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ycsb := workload.YCSB{Records: 256}

	s1, err := New(durableConfig(dir, ycsb))
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr() // reuse the concrete port for the restart

	rc := client.DialReliable(addr, client.RetryPolicy{
		Base: time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: 200, Seed: 42,
	})
	defer rc.Close()

	const before = 10
	keys := make([]uint64, before)
	for i := 0; i < before; i++ {
		req := markerReq(t, 0, i)
		req.IdemKey = rc.NextIdemKey()
		keys[i] = req.IdemKey
		resp, err := rc.Submit(context.Background(), req)
		if err != nil || !resp.Committed() || resp.Duplicate {
			t.Fatalf("submit %d: %+v %v", i, resp, err)
		}
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Fire a submission into the outage: it must retry until the
	// restarted server accepts it.
	type outcome struct {
		resp client.Response
		err  error
	}
	inFlight := make(chan outcome, 1)
	go func() {
		req := markerReq(t, 0, before)
		resp, err := rc.Submit(context.Background(), req)
		inFlight <- outcome{resp, err}
	}()
	time.Sleep(20 * time.Millisecond) // let it fail against the dead port

	cfg2 := durableConfig(dir, ycsb)
	cfg2.Addr = addr
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	assertMarkers(t, s2.DB(), before) // recovered before accepting
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())

	got := <-inFlight
	if got.err != nil || !got.resp.Committed() {
		t.Fatalf("in-flight submission across restart: %+v %v", got.resp, got.err)
	}

	// Resubmit a pre-restart key: recovered dedup window must answer.
	req := markerReq(t, keys[0], 0)
	resp, err := rc.Submit(context.Background(), req)
	if err != nil || !resp.Committed() || !resp.Duplicate {
		t.Fatalf("resubmit of pre-restart key: %+v %v, want duplicate commit", resp, err)
	}
	assertMarkers(t, s2.DB(), before+1)
}
