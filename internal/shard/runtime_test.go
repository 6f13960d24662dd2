package shard

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

const testRows = 1024

func ycsbBase(i int) *storage.DB {
	return workload.YCSB{Records: testRows}.BuildDB()
}

func openTest(t *testing.T, shards int, d *Durability) *Runtime {
	t.Helper()
	rt, err := Open(Config{
		Shards: shards, DB: ycsbBase,
		Bundle: 16, FlushInterval: time.Millisecond, QueueDepth: 4096,
		Core:       core.Options{Workers: 2},
		Durability: d,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return rt
}

func shutdown(t testing.TB, rt *Runtime) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

func submitWait(t *testing.T, rt *Runtime, tx *txn.Transaction) client.Response {
	t.Helper()
	ch := make(chan client.Response, 1)
	rt.Submit(tx, func(r client.Response) { ch <- r })
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("no response for %v", tx)
		return client.Response{}
	}
}

// keyOn returns the first row key at or after start (mod testRows)
// homed on the given shard.
func keyOn(r Router, shard int, start uint64) txn.Key {
	for row := start; ; row++ {
		k := txn.MakeKey(workload.YCSBTable, row%testRows)
		if r.Home(k) == shard {
			return k
		}
	}
}

// waitFor polls cond: the runtime acknowledges cross-shard commits
// once the decision is durable, before participants install, so tests
// observing installation effects must wait for it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func fieldOf(db *storage.DB, k txn.Key) uint64 {
	row := db.Resolve(k)
	if row == nil {
		return ^uint64(0)
	}
	return row.Load().Fields[0]
}

func TestRuntimeSingleShardCommits(t *testing.T) {
	rt := openTest(t, 4, nil)
	defer shutdown(t, rt)
	w := workload.YCSB{Records: testRows, Txns: 100, OpsPerTxn: 4, Theta: 0.5, RMW: true, Seed: 3}.Generate()
	Confine(w, 4, 0, testRows, 5)
	ch := make(chan client.Response, len(w))
	for _, tx := range w {
		rt.Submit(tx, func(r client.Response) { ch <- r })
	}
	commits := 0
	for range w {
		select {
		case r := <-ch:
			if r.Status == client.StatusCommit {
				commits++
			} else {
				t.Fatalf("unexpected status %v", r.Status)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("responses timed out")
		}
	}
	st := rt.Stats()
	var total uint64
	for _, s := range st.Shards {
		total += s.Committed
	}
	if commits != 100 || total != 100 {
		t.Fatalf("commits=%d, per-shard total=%d, want 100", commits, total)
	}
	if st.TwoPC.Started != 0 {
		t.Fatalf("confined workload started %d 2PCs", st.TwoPC.Started)
	}
}

// replyLog records every Reply and Flush made on its repliers, in call
// order.
type replyLog struct {
	mu     sync.Mutex
	events []replyEvent
}

type replyEvent struct {
	id    int
	flush bool
}

type loggedReplier struct {
	log *replyLog
	id  int
}

func (r loggedReplier) add(flush bool) {
	r.log.mu.Lock()
	r.log.events = append(r.log.events, replyEvent{r.id, flush})
	r.log.mu.Unlock()
}

func (r loggedReplier) Reply(client.Response) { r.add(false) }
func (r loggedReplier) Flush()                { r.add(true) }

// TestUnitRepliesToBundleThenFlushes checks the unit's answer order: a
// full bundle's transactions are all replied to before the first flush,
// and each replier is replied to and flushed exactly once.
func TestUnitRepliesToBundleThenFlushes(t *testing.T) {
	const n = 16
	rt, err := Open(Config{
		Shards: 2, DB: ycsbBase,
		Bundle: n, FlushInterval: 10 * time.Second, QueueDepth: 64, // only a full bundle runs
		Core: core.Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, rt)
	log := &replyLog{}
	row := uint64(0)
	for i := 0; i < n; i++ {
		k := keyOn(rt.Router(), 0, row)
		row = k.Row() + 1
		rt.Serve(borrow(txn.New(0).U(k, 1)), 0, loggedReplier{log: log, id: i})
	}
	waitFor(t, "the bundle's flushes", func() bool {
		log.mu.Lock()
		defer log.mu.Unlock()
		return len(log.events) >= 2*n
	})
	log.mu.Lock()
	defer log.mu.Unlock()
	var replies, flushes [n]int
	for i, ev := range log.events {
		if ev.flush != (i >= n) {
			t.Fatalf("event %d (replier %d, flush %v) out of order: %v", i, ev.id, ev.flush, log.events)
		}
		if ev.flush {
			flushes[ev.id]++
		} else {
			replies[ev.id]++
		}
	}
	for id := range replies {
		if replies[id] != 1 || flushes[id] != 1 {
			t.Errorf("replier %d: %d replies, %d flushes", id, replies[id], flushes[id])
		}
	}
}

func TestRuntimeCrossShardCommit(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	r := rt.Router()
	k0, k1 := keyOn(r, 0, 0), keyOn(r, 1, 100)
	base0, base1 := fieldOf(rt.DB(0), k0), fieldOf(rt.DB(1), k1)

	tx := txn.New(0).U(k0, 7).U(k1, 9)
	resp := submitWait(t, rt, tx)
	if resp.Status != client.StatusCommit {
		t.Fatalf("cross-shard commit failed: %+v", resp)
	}
	waitFor(t, "shard 0 install", func() bool { return fieldOf(rt.DB(0), k0) == base0+7 })
	waitFor(t, "shard 1 install", func() bool { return fieldOf(rt.DB(1), k1) == base1+9 })
	// The non-owning replica of k0 (shard 1 holds the full initial row
	// set too) must be untouched: ownership is exclusive.
	if got := fieldOf(rt.DB(1), k0); got != base0 {
		t.Fatalf("non-owning shard mutated: %d != %d", got, base0)
	}
	waitFor(t, "in-doubt drain", func() bool { return rt.Stats().TwoPC.InDoubt == 0 })
	st := rt.Stats().TwoPC
	if st.Started != 1 || st.Committed != 1 || st.Prepared != 2 {
		t.Fatalf("2PC stats off: %+v", st)
	}
}

func TestRuntimeCrossShardVoteNoAborts(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	r := rt.Router()
	k0 := keyOn(r, 0, 0)
	// A key beyond the populated rows, homed on shard 1: reading it
	// fails the sub-plan, so shard 1 votes no.
	missing := txn.MakeKey(workload.YCSBTable, testRows)
	for r.Home(missing) != 1 {
		missing = txn.MakeKey(workload.YCSBTable, missing.Row()+1)
	}
	base0 := fieldOf(rt.DB(0), k0)

	tx := txn.New(0).U(k0, 1).R(missing)
	resp := submitWait(t, rt, tx)
	if resp.Status != client.StatusRejected || resp.RetryAfterMS <= 0 {
		t.Fatalf("want retryable rejection, got %+v", resp)
	}
	if got := fieldOf(rt.DB(0), k0); got != base0 {
		t.Fatalf("aborted 2PC mutated shard 0: %d != %d", got, base0)
	}
	waitFor(t, "in-doubt drain", func() bool { return rt.Stats().TwoPC.InDoubt == 0 })
	st := rt.Stats()
	if st.TwoPC.Aborted != 1 || st.TwoPC.AbortedVote != 1 {
		t.Fatalf("2PC stats off: %+v", st.TwoPC)
	}
	// The shard that voted yes must have installed nothing.
	if st.Shards[0].CrossCommitted != 0 {
		t.Fatalf("shard 0 stats off: %+v", st.Shards[0])
	}
}

func TestRuntimeCrossShardUserAbort(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	r := rt.Router()
	k0, k1 := keyOn(r, 0, 0), keyOn(r, 1, 100)
	base0 := fieldOf(rt.DB(0), k0)

	tx := txn.New(0).U(k0, 1).U(k1, 1)
	tx.UserAbort = true
	resp := submitWait(t, rt, tx)
	if resp.Status != client.StatusAbort {
		t.Fatalf("want StatusAbort, got %+v", resp)
	}
	if got := fieldOf(rt.DB(0), k0); got != base0 {
		t.Fatalf("user abort mutated shard 0")
	}
	if st := rt.Stats().TwoPC; st.UserAborts != 1 || st.Committed != 0 {
		t.Fatalf("2PC stats off: %+v", st)
	}
}

func TestRuntimeRejectsScans(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	tx := txn.New(0).S(txn.MakeKey(workload.YCSBTable, 1), 10)
	if resp := submitWait(t, rt, tx); resp.Status != client.StatusError {
		t.Fatalf("want StatusError for a sharded scan, got %+v", resp)
	}
}

func TestRuntimeCrossShardDedup(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	r := rt.Router()
	k0, k1 := keyOn(r, 0, 0), keyOn(r, 1, 100)
	base0 := fieldOf(rt.DB(0), k0)

	mk := func() *txn.Transaction {
		tx := txn.New(0).U(k0, 3).U(k1, 3)
		tx.IdemKey = 42
		return tx
	}
	first := submitWait(t, rt, mk())
	if first.Status != client.StatusCommit || first.Duplicate {
		t.Fatalf("first submission: %+v", first)
	}
	waitFor(t, "install", func() bool { return fieldOf(rt.DB(0), k0) == base0+3 })
	second := submitWait(t, rt, mk())
	if second.Status != client.StatusCommit || !second.Duplicate {
		t.Fatalf("resubmission must dedup: %+v", second)
	}
	if got := fieldOf(rt.DB(0), k0); got != base0+3 {
		t.Fatalf("duplicate applied twice: %d != %d", got, base0+3)
	}
	if st := rt.Stats().TwoPC; st.DedupHits != 1 || st.Committed != 1 {
		t.Fatalf("2PC stats off: %+v", st)
	}
}

// TestInDoubtParksLocalConflicts pins the quiescence rule: a local
// transaction overlapping an in-doubt prepare's keys parks until the
// decision, then executes.
func TestInDoubtParksLocalConflicts(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	u := rt.units[0]
	k := keyOn(rt.Router(), 0, 0)
	base := fieldOf(u.db, k)

	gid := rt.gidEpoch<<32 | 7001
	votes := make(chan vote, 1)
	u.ops <- &shardOp{kind: opPrepare, gid: gid, ops: []txn.Op{{Kind: txn.OpUpdate, Key: k, Arg: 5}}, votes: votes}
	if v := <-votes; !v.yes {
		t.Fatal("prepare voted no")
	}

	// Submit a conflicting local transaction; it must park, not run.
	ch := make(chan client.Response, 1)
	tx := txn.New(0).U(k, 1)
	rt.Submit(tx, func(r client.Response) { ch <- r })
	deadline := time.Now().Add(10 * time.Second)
	for rt.Stats().Shards[0].Parked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("local conflict never parked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-ch:
		t.Fatalf("parked transaction answered before the decision: %+v", r)
	default:
	}

	var wg sync.WaitGroup
	wg.Add(1)
	u.ops <- &shardOp{kind: opDecide, gid: gid, commit: true, wg: &wg}
	wg.Wait()
	select {
	case r := <-ch:
		if r.Status != client.StatusCommit {
			t.Fatalf("unparked transaction: %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked transaction never ran after the decision")
	}
	if got := fieldOf(u.db, k); got != base+5+1 {
		t.Fatalf("value = %d, want %d (prepare install then local update)", got, base+6)
	}
}

// TestDuplicateDecisionIdempotent is 2PC edge case (c): delivering the
// same decision twice installs once and counts a duplicate.
func TestDuplicateDecisionIdempotent(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	u := rt.units[0]
	k := keyOn(rt.Router(), 0, 0)
	base := fieldOf(u.db, k)

	gid := rt.gidEpoch<<32 | 8001
	votes := make(chan vote, 1)
	u.ops <- &shardOp{kind: opPrepare, gid: gid, ops: []txn.Op{{Kind: txn.OpUpdate, Key: k, Arg: 5}}, votes: votes}
	if v := <-votes; !v.yes {
		t.Fatal("prepare voted no")
	}
	for i := 0; i < 2; i++ {
		var wg sync.WaitGroup
		wg.Add(1)
		u.ops <- &shardOp{kind: opDecide, gid: gid, commit: true, wg: &wg}
		wg.Wait()
	}
	if got := fieldOf(u.db, k); got != base+5 {
		t.Fatalf("duplicate decision applied twice: %d != %d", got, base+5)
	}
	st := rt.Stats()
	if st.TwoPC.DuplicateDecisions != 1 {
		t.Fatalf("DuplicateDecisions = %d, want 1", st.TwoPC.DuplicateDecisions)
	}
	if st.Shards[0].InDoubt != 0 || st.Shards[0].CrossCommitted != 1 {
		t.Fatalf("shard 0 stats off: %+v", st.Shards[0])
	}
}

// TestConcurrentPrepareConflictVotesNo pins the wait-free rule: a
// second prepare overlapping an in-doubt key votes no immediately.
func TestConcurrentPrepareConflictVotesNo(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	u := rt.units[0]
	k := keyOn(rt.Router(), 0, 0)

	g1 := rt.gidEpoch<<32 | 9001
	g2 := rt.gidEpoch<<32 | 9002
	votes := make(chan vote, 2)
	u.ops <- &shardOp{kind: opPrepare, gid: g1, ops: []txn.Op{{Kind: txn.OpUpdate, Key: k, Arg: 1}}, votes: votes}
	if v := <-votes; !v.yes {
		t.Fatal("first prepare voted no")
	}
	u.ops <- &shardOp{kind: opPrepare, gid: g2, ops: []txn.Op{{Kind: txn.OpUpdate, Key: k, Arg: 1}}, votes: votes}
	if v := <-votes; v.yes {
		t.Fatal("conflicting prepare must vote no, not wait")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	u.ops <- &shardOp{kind: opDecide, gid: g1, commit: false, wg: &wg}
	wg.Wait()
	if got := rt.Stats().Shards[0].CrossVotedNo; got != 1 {
		t.Fatalf("CrossVotedNo = %d, want 1", got)
	}
}

// TestRuntimeDurableRestart: acked work — single- and cross-shard —
// survives a graceful restart, and both dedup windows are rebuilt.
func TestRuntimeDurableRestart(t *testing.T) {
	root := t.TempDir()
	d := func() *Durability { return &Durability{Dir: root, NoSync: true} }
	rt := openTest(t, 2, d())
	r := rt.Router()
	k0, k0b, k1 := keyOn(r, 0, 0), keyOn(r, 0, 200), keyOn(r, 1, 100)
	base0, base0b, base1 := fieldOf(rt.DB(0), k0), fieldOf(rt.DB(0), k0b), fieldOf(rt.DB(1), k1)

	single := txn.New(0).U(k0, 10)
	single.IdemKey = 101
	if resp := submitWait(t, rt, single); resp.Status != client.StatusCommit {
		t.Fatalf("single: %+v", resp)
	}
	cross := txn.New(0).U(k0b, 1).U(k1, 2)
	cross.IdemKey = 202
	if resp := submitWait(t, rt, cross); resp.Status != client.StatusCommit {
		t.Fatalf("cross: %+v", resp)
	}
	shutdown(t, rt)

	// Read-only audit of the directory.
	st, err := Recover(root, 2, ycsbBase)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := fieldOf(st.DBs[0], k0); got != base0+10 {
		t.Fatalf("recovered single-shard write lost: %d != %d", got, base0+10)
	}
	if got := fieldOf(st.DBs[0], k0b); got != base0b+1 {
		t.Fatalf("recovered cross write (shard 0) lost: %d != %d", got, base0b+1)
	}
	if got := fieldOf(st.DBs[1], k1); got != base1+2 {
		t.Fatalf("recovered cross write (shard 1) lost: %d != %d", got, base1+2)
	}
	if st.Info.Boots != 1 || st.Info.CoordDecisions != 1 {
		t.Fatalf("coordinator log off: %+v", st.Info)
	}

	// Restart and resubmit both idempotency keys: hits, no reapply.
	rt2 := openTest(t, 2, d())
	defer shutdown(t, rt2)
	if rt2.gidEpoch != 2 {
		t.Fatalf("second incarnation epoch = %d, want 2", rt2.gidEpoch)
	}
	single2 := txn.New(0).U(k0, 10)
	single2.IdemKey = 101
	if resp := submitWait(t, rt2, single2); resp.Status != client.StatusCommit || !resp.Duplicate {
		t.Fatalf("restored single-shard dedup miss: %+v", resp)
	}
	cross2 := txn.New(0).U(k0b, 1).U(k1, 2)
	cross2.IdemKey = 202
	if resp := submitWait(t, rt2, cross2); resp.Status != client.StatusCommit || !resp.Duplicate {
		t.Fatalf("restored cross-shard dedup miss: %+v", resp)
	}
	if got := fieldOf(rt2.DB(0), k0); got != base0+10 {
		t.Fatalf("dedup hit still reapplied: %d", got)
	}
}

// TestRecoveryPresumedAbort is 2PC edge case (a): the coordinator
// crashed after prepares were logged but before the decision. Recovery
// finds the prepare, finds no decision, and presumed-aborts it.
func TestRecoveryPresumedAbort(t *testing.T) {
	root := t.TempDir()
	k := keyOn(Router{Shards: 2}, 0, 0)
	gid := uint64(1)<<32 | 77

	log, err := wal.OpenDir(shardDir(root, 2, 0), wal.DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{TxnID: int64(gid), Kind: wal.RecordPrepare,
		Writes: []wal.Update{{Key: uint64(k), Ver: 1, Fields: []uint64{999, 0}}}}
	if err := log.Append(rec); err != nil {
		t.Fatal(err)
	}
	log.Close()
	// No coordinator directory content: no decision was ever made.

	st, err := Recover(root, 2, ycsbBase)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	info := st.Info.Shards[0]
	if info.Prepares != 1 || info.ResolvedAborted != 1 || info.ResolvedCommitted != 0 {
		t.Fatalf("resolution off: %+v", info)
	}
	if got := fieldOf(st.DBs[0], k); got != k.Row() {
		t.Fatalf("presumed-aborted prepare leaked into the store: %d", got)
	}
}

// TestRecoveryResolvesCommittedPrepare is 2PC edge case (b): a
// participant crashed after prepare; the coordinator had logged the
// commit decision. Recovery resolves the in-doubt prepare from the
// coordinator log and installs it.
func TestRecoveryResolvesCommittedPrepare(t *testing.T) {
	root := t.TempDir()
	k := keyOn(Router{Shards: 2}, 0, 0)
	gid := uint64(1)<<32 | 78

	log, err := wal.OpenDir(shardDir(root, 2, 0), wal.DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := wal.Record{TxnID: int64(gid), Kind: wal.RecordPrepare,
		Writes: []wal.Update{{Key: uint64(k), Ver: 1, Fields: []uint64{999, 0}}}}
	if err := log.Append(rec); err != nil {
		t.Fatal(err)
	}
	log.Close()
	clog, err := wal.OpenDir(coordDir(root), wal.DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := clog.Append(wal.Record{TxnID: int64(gid), Kind: wal.RecordDecision, IdemKey: 555}); err != nil {
		t.Fatal(err)
	}
	clog.Close()

	st, err := Recover(root, 2, ycsbBase)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	info := st.Info.Shards[0]
	if info.Prepares != 1 || info.ResolvedCommitted != 1 || info.ResolvedAborted != 0 {
		t.Fatalf("resolution off: %+v", info)
	}
	if got := fieldOf(st.DBs[0], k); got != 999 {
		t.Fatalf("committed prepare not installed: %d", got)
	}
	if len(st.CrossKeys) != 1 || st.CrossKeys[0] != 555 {
		t.Fatalf("decision idempotency key not restored: %v", st.CrossKeys)
	}
	if _, ok := st.Committed[gid]; !ok {
		t.Fatal("committed gid set missing the decision")
	}

	// Recovery is idempotent: a second pass returns identical results.
	st2, err := Recover(root, 2, ycsbBase)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Info, st2.Info) {
		t.Fatalf("second recovery diverged:\n%+v\n%+v", st.Info, st2.Info)
	}
	if got := fieldOf(st2.DBs[0], k); got != 999 {
		t.Fatalf("second recovery lost the install: %d", got)
	}
}
