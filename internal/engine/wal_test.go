package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"tskd/internal/cc"
	"tskd/internal/history"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// TestWALRecoveryEquivalence: run a contended workload with redo
// logging, then recover the log into a freshly loaded database and
// check every row matches the post-run state.
func TestWALRecoveryEquivalence(t *testing.T) {
	cfg := workload.YCSB{
		Records: 500, Theta: 0.9, Txns: 400, OpsPerTxn: 8,
		ReadRatio: 0.4, RMW: true, Seed: 21,
	}
	db := cfg.BuildDB()
	w := cfg.Generate()

	var logBuf bytes.Buffer
	l := wal.New(&logBuf, time.Millisecond) // group commit
	m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, Config{
		Workers: 4, Protocol: cc.NewSilo(), DB: db, WAL: l, Seed: 21,
	})
	if m.Committed != 400 {
		t.Fatalf("committed %d", m.Committed)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	records, flushes, _ := l.Counters()
	if flushes == 0 || records == 0 {
		t.Fatal("nothing logged")
	}
	t.Logf("records=%d flushes=%d (group factor %.1f)",
		records, flushes, float64(records)/float64(flushes))

	// Crash recovery: fresh load, replay.
	recovered := cfg.BuildDB()
	n, err := wal.Recover(bytes.NewReader(logBuf.Bytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != records {
		t.Fatalf("recovered %d of %d records", n, records)
	}
	// Every row must match.
	mismatch := 0
	db.Table(workload.YCSBTable).Range(func(r *storage.Row) bool {
		rec := recovered.Resolve(txn.Key(r.Key))
		if rec == nil {
			t.Fatalf("row %v missing after recovery", r.Key)
		}
		a, b := r.Load().Fields, rec.Load().Fields
		for i := range a {
			if a[i] != b[i] {
				mismatch++
				break
			}
		}
		return true
	})
	if mismatch != 0 {
		t.Fatalf("%d rows differ after recovery", mismatch)
	}
}

func TestWALIdempotentRecovery(t *testing.T) {
	db := storage.NewDB()
	tbl := db.CreateTable(0, "t", 1)
	tbl.Insert(0)
	w := txn.Workload{txn.New(0).U(txn.MakeKey(0, 0), 5)}
	var buf bytes.Buffer
	l := wal.New(&buf, 0)
	Run(w, []Phase{SpreadRoundRobin(w, 1)}, Config{
		Workers: 1, Protocol: cc.NewOCC(), DB: db, WAL: l,
	})
	l.Close()
	// Recover twice over the live database: state unchanged.
	if _, err := wal.Recover(bytes.NewReader(buf.Bytes()), db); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Recover(bytes.NewReader(buf.Bytes()), db); err != nil {
		t.Fatal(err)
	}
	if tbl.Get(0).Field(0) != 5 {
		t.Errorf("value = %d after double recovery", tbl.Get(0).Field(0))
	}
}

// TestCheckpointPlusLogTail is the full recovery story: run a bundle
// with logging, checkpoint, run another bundle, "crash", then restore
// the checkpoint and replay the whole log — the version-gated replay
// skips records the checkpoint already covers and applies the tail.
func TestCheckpointPlusLogTail(t *testing.T) {
	cfg := workload.YCSB{
		Records: 300, Theta: 0.9, Txns: 200, OpsPerTxn: 6,
		ReadRatio: 0.3, RMW: true, Seed: 31,
	}
	db := cfg.BuildDB()
	var logBuf bytes.Buffer
	l := wal.New(&logBuf, 0)

	run := func(seed int64) {
		c := cfg
		c.Seed = seed
		w := c.Generate()
		m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, Config{
			Workers: 4, Protocol: cc.NewTicToc(), DB: db, WAL: l, Seed: seed,
		})
		if m.Committed != 200 {
			t.Fatalf("bundle %d committed %d", seed, m.Committed)
		}
	}
	run(1)

	var ckpt bytes.Buffer
	if err := storage.WriteCheckpoint(&ckpt, db); err != nil {
		t.Fatal(err)
	}
	run(2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash recovery.
	restored, err := storage.ReadCheckpoint(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Recover(bytes.NewReader(logBuf.Bytes()), restored); err != nil {
		t.Fatal(err)
	}
	mismatch := 0
	db.Table(workload.YCSBTable).Range(func(r *storage.Row) bool {
		rec := restored.Resolve(txn.Key(r.Key))
		if rec == nil {
			t.Fatalf("row %v missing", r.Key)
		}
		a, b := r.Load().Fields, rec.Load().Fields
		for i := range a {
			if a[i] != b[i] {
				mismatch++
				break
			}
		}
		return true
	})
	if mismatch != 0 {
		t.Fatalf("%d rows differ after checkpoint+tail recovery", mismatch)
	}
}

// syncedLog is a log device for tests: Write appends to an in-memory
// buffer and Sync marks everything written so far as on stable storage
// (or fails, when armed), counting the barriers.
type syncedLog struct {
	buf    bytes.Buffer
	synced int
	syncs  int
	err    error
}

func (s *syncedLog) Write(p []byte) (int, error) { return s.buf.Write(p) }

func (s *syncedLog) Sync() error {
	s.syncs++
	if s.err != nil {
		return s.err
	}
	s.synced = s.buf.Len()
	return nil
}

// syncedIDs replays the synced prefix and returns the transaction IDs
// whose redo records are in it.
func (s *syncedLog) syncedIDs(t *testing.T) map[int]bool {
	t.Helper()
	ids := make(map[int]bool)
	if _, err := wal.Replay(bytes.NewReader(s.buf.Bytes()[:s.synced]), func(r wal.Record) error {
		ids[int(r.TxnID)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestRunReturnsAfterOneBarrier is the engine's durability contract:
// when Run returns, the redo record of every commit that wrote is
// inside the synced prefix, and the run paid one stable-storage barrier
// — not one per commit, and not one per group window either.
func TestRunReturnsAfterOneBarrier(t *testing.T) {
	cfg := workload.YCSB{
		Records: 500, Theta: 0.9, Txns: 300, OpsPerTxn: 8,
		ReadRatio: 0.4, RMW: true, Seed: 5,
	}
	db := cfg.BuildDB()
	dev := &syncedLog{}
	l := wal.NewDurable(dev, dev, time.Millisecond)
	defer l.Close()

	for bundle := 1; bundle <= 3; bundle++ {
		c := cfg
		c.Seed = int64(bundle)
		w := c.Generate()
		rec := history.NewRecorder()
		m := Run(w, []Phase{SpreadRoundRobin(w[:150], 4), SpreadRoundRobin(w[150:], 4)}, Config{
			Workers: 4, Protocol: cc.NewSilo(), DB: db, WAL: l, Recorder: rec, Seed: int64(bundle),
		})
		if m.Committed != 300 {
			t.Fatalf("bundle %d committed %d", bundle, m.Committed)
		}
		if dev.syncs != bundle {
			t.Fatalf("bundle %d: %d syncs so far, want one per run", bundle, dev.syncs)
		}
		if dev.synced != dev.buf.Len() {
			t.Fatalf("bundle %d: Run returned with %d of %d log bytes synced", bundle, dev.synced, dev.buf.Len())
		}
		durable := dev.syncedIDs(t)
		writers := 0
		for _, e := range rec.Events() {
			if len(e.Writes) == 0 {
				continue
			}
			writers++
			if !durable[e.TxnID] {
				t.Fatalf("bundle %d: txn %d committed writes but its record is not in the synced prefix", bundle, e.TxnID)
			}
		}
		if writers == 0 {
			t.Fatal("no writing commits: the test checks nothing")
		}
	}
}

// TestBarrierFailureWithholdsAcks: when the run's barrier fails, every
// commit that wrote goes to OnWALError (on Run's goroutine, in ID
// order) and loses its span, read-only commits keep theirs, and all of
// them still count as committed in memory. Without a hook the run
// fail-stops on the caller's goroutine.
func TestBarrierFailureWithholdsAcks(t *testing.T) {
	db := storage.NewDB()
	tbl := db.CreateTable(0, "t", 1)
	var w txn.Workload
	for i := 0; i < 40; i++ {
		tbl.Insert(uint64(i))
		if i%4 == 0 {
			w = append(w, txn.New(i).R(txn.MakeKey(0, uint64(i))))
		} else {
			w = append(w, txn.New(i).U(txn.MakeKey(0, uint64(i)), 1))
		}
	}
	eio := errors.New("EIO")
	dev := &syncedLog{err: eio}
	l := wal.NewDurable(dev, dev, 0)
	defer l.Close()

	var lost []int
	hooks := &Hooks{OnWALError: func(tx *txn.Transaction, err error) {
		if !errors.Is(err, eio) {
			t.Errorf("txn %d lost to %v, want the sync error", tx.ID, err)
		}
		lost = append(lost, tx.ID)
	}}
	cfg := Config{Workers: 4, Protocol: cc.NewOCC(), DB: db, WAL: l, TraceSpans: true, Hooks: hooks}
	m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, cfg)
	if m.Committed != 40 {
		t.Fatalf("committed %d of 40 in memory", m.Committed)
	}
	if len(lost) != 30 || !sort.IntsAreSorted(lost) {
		t.Fatalf("OnWALError saw %v, want the 30 writers in ID order", lost)
	}
	if len(m.Spans) != 10 {
		t.Fatalf("%d spans survive, want the 10 read-only commits", len(m.Spans))
	}
	for _, sp := range m.Spans {
		if sp.TxnID%4 != 0 {
			t.Errorf("txn %d lost durability but kept its span", sp.TxnID)
		}
	}

	// The failure was reported once: with the device healthy again the
	// next run is covered and acknowledged in full.
	dev.err = nil
	lost = nil
	if m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, cfg); len(lost) != 0 || len(m.Spans) != 40 {
		t.Fatalf("healthy run after the failure: %d lost, %d spans", len(lost), len(m.Spans))
	}

	dev.err = eio
	cfg.Hooks = nil
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "EIO") {
			t.Fatalf("unhooked barrier failure: recovered %v, want a panic naming the error", r)
		}
	}()
	Run(w, []Phase{SpreadRoundRobin(w, 4)}, cfg)
}
