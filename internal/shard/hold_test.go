package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/history"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

// Tests of the coordinator's hold (hold.go). None of them sleeps to
// order events: Submit queues a cross-shard transaction in the hold
// table before it returns, so "A arrived before B" is program order,
// and a test that needs an in-flight transaction plays one itself by
// queueing a holder on the keys (block) and dropping it when it wants
// the "decision" to have happened.

func openHoldTest(t *testing.T, shards int, edit func(*Config)) *Runtime {
	t.Helper()
	cfg := Config{
		Shards: shards, DB: ycsbBase,
		Bundle: 16, FlushInterval: time.Millisecond, QueueDepth: 4096,
		Core: core.Options{Workers: 2}, MaxCross: 512,
	}
	if edit != nil {
		edit(&cfg)
	}
	rt, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return rt
}

// holderOf returns a holder for keys, not yet queued anywhere.
func holderOf(keys ...txn.Key) *holder {
	ops := make([]txn.Op, len(keys))
	for i, k := range keys {
		ops[i] = txn.Op{Kind: txn.OpUpdate, Key: k}
	}
	return newHolder(ops)
}

// block plays a dispatched-but-undecided transaction on keys.
func block(t *testing.T, rt *Runtime, keys ...txn.Key) *holder {
	t.Helper()
	h := holderOf(keys...)
	if !rt.hold.enqueue(h) {
		t.Fatal("blocker was not dispatched on arrival")
	}
	return h
}

func isReady(h *holder) bool { return len(h.ready) == 1 }

// size is the number of keys with a transaction queued on them.
func (ht *holdTable) size() int {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	return len(ht.keys)
}

func collectAll(t *testing.T, ch <-chan client.Response, n int) []client.Response {
	t.Helper()
	out := make([]client.Response, 0, n)
	for len(out) < n {
		select {
		case r := <-ch:
			out = append(out, r)
		case <-time.After(20 * time.Second):
			t.Fatalf("only %d of %d responses", len(out), n)
		}
	}
	return out
}

func votedNo(st Stats) (n uint64) {
	for _, s := range st.Shards {
		n += s.CrossVotedNo
	}
	return n
}

// TestHoldTableFIFO drives the table alone: dispatch on arrival when
// nothing overlaps, wait behind an overlapping holder, and strict
// arrival order per key — a later arrival does not take a free key
// that an earlier waiter wants.
func TestHoldTableFIFO(t *testing.T) {
	var ht holdTable
	k := func(row uint64) txn.Key { return txn.MakeKey(workload.YCSBTable, row) }

	a, b := holderOf(k(1)), holderOf(k(2))
	if !ht.enqueue(a) || !ht.enqueue(b) {
		t.Fatal("disjoint holders must be dispatched on arrival")
	}
	wide := holderOf(k(1), k(2), k(3))
	if ht.enqueue(wide) {
		t.Fatal("wide overlaps two dispatched holders and must wait")
	}
	late := holderOf(k(3)) // k3 is free, but wide is ahead of it there
	if ht.enqueue(late) {
		t.Fatal("a later arrival overtook an earlier waiter on a shared key")
	}
	if d := holderOf(k(4)); !ht.enqueue(d) {
		t.Fatal("a disjoint arrival must not queue behind anyone")
	} else {
		ht.drop(d)
	}

	ht.drop(a)
	if isReady(wide) || isReady(late) {
		t.Fatal("wide still waits for k2, and late for wide")
	}
	ht.drop(b)
	if !isReady(wide) || isReady(late) {
		t.Fatalf("after both holders left: wide ready=%v (want true), late ready=%v (want false)", isReady(wide), isReady(late))
	}
	if !ht.wait(wide, time.Time{}) {
		t.Fatal("wait on a dispatched holder must report dispatch")
	}
	ht.drop(wide)
	if !isReady(late) {
		t.Fatal("late was not dispatched when wide left")
	}
	ht.wait(late, time.Time{})
	ht.drop(late)
	if n := ht.size(); n != 0 {
		t.Fatalf("%d keys left in an idle table", n)
	}
}

// TestHoldTableDeadlineLeavesQueue: a waiter whose deadline passes
// leaves every queue it was in — including the ones it headed — and the
// transactions behind it move up.
func TestHoldTableDeadlineLeavesQueue(t *testing.T) {
	var ht holdTable
	k := func(row uint64) txn.Key { return txn.MakeKey(workload.YCSBTable, row) }
	a := holderOf(k(1))
	ht.enqueue(a)
	mid := holderOf(k(1), k(2)) // waits for k1, heads k2
	if ht.enqueue(mid) {
		t.Fatal("mid must wait for k1")
	}
	behind := holderOf(k(2))
	if ht.enqueue(behind) {
		t.Fatal("behind must wait for mid on k2")
	}
	if ht.wait(mid, time.Now().Add(-time.Second)) {
		t.Fatal("an expired wait must report false")
	}
	if !isReady(behind) {
		t.Fatal("the waiter behind an expired one was not dispatched")
	}
	ht.wait(behind, time.Time{})
	ht.drop(behind)
	ht.drop(a)
	if n := ht.size(); n != 0 {
		t.Fatalf("%d keys left in an idle table", n)
	}
}

// TestHoldHotKeyAllCommit is the point of the hold: N overlapping
// cross-shard increments of one hot key, all in flight at once, all
// commit on their first attempt — nobody is voted down, nobody is told
// to come back.
func TestHoldHotKeyAllCommit(t *testing.T) {
	const n = 200
	rt := openHoldTest(t, 2, nil)
	defer shutdown(t, rt)
	r := rt.Router()
	hot, other := keyOn(r, 0, 0), keyOn(r, 1, 100)
	baseHot, baseOther := fieldOf(rt.DB(0), hot), fieldOf(rt.DB(1), other)

	// With the hot key taken, every submission is deterministically held.
	blocker := block(t, rt, hot)
	ch := make(chan client.Response, n)
	for i := 0; i < n; i++ {
		rt.Submit(txn.New(0).U(hot, 1).U(other, 2), func(r client.Response) { ch <- r })
	}
	select {
	case r := <-ch:
		t.Fatalf("answered while the hot key was taken: %+v", r)
	default:
	}
	rt.hold.drop(blocker)
	for i, resp := range collectAll(t, ch, n) {
		if resp.Status != client.StatusCommit {
			t.Fatalf("response %d: %+v, want a first-attempt commit", i, resp)
		}
		if resp.QueueUS <= 0 {
			t.Fatalf("response %d: QueueUS = %d for a held transaction", i, resp.QueueUS)
		}
	}
	waitFor(t, "installs", func() bool {
		return fieldOf(rt.DB(0), hot) == baseHot+n && fieldOf(rt.DB(1), other) == baseOther+2*n
	})
	waitFor(t, "in-doubt drain", func() bool { return rt.Stats().TwoPC.InDoubt == 0 })
	st := rt.Stats()
	tp := st.TwoPC
	if tp.Started != n || tp.Committed != n || tp.Aborted != 0 || tp.AbortedVote != 0 || tp.Rejected != 0 {
		t.Fatalf("2PC stats off: %+v", tp)
	}
	if tp.Held != n || tp.HoldWaitUS == 0 {
		t.Fatalf("Held = %d (want %d), HoldWaitUS = %d (want > 0)", tp.Held, n, tp.HoldWaitUS)
	}
	if no := votedNo(st); no != 0 {
		t.Fatalf("participants voted no %d times", no)
	}
	if k := rt.hold.size(); k != 0 {
		t.Fatalf("%d keys left in the hold table", k)
	}
}

// TestHoldDispatchOrderIsArrivalOrder: a wide transaction queued behind
// an in-flight one is dispatched before a later arrival that conflicts
// with it, even though that later arrival's keys are all free. The
// order shows in the data: wide sets the shared row to 5 and the later
// one adds 1, so 6 means wide went first and 5 means it was overtaken.
func TestHoldDispatchOrderIsArrivalOrder(t *testing.T) {
	rt := openHoldTest(t, 2, nil)
	defer shutdown(t, rt)
	r := rt.Router()
	taken, shared := keyOn(r, 0, 0), keyOn(r, 1, 100)
	free0, free1 := keyOn(r, 0, 300), keyOn(r, 1, 400)
	baseFree := fieldOf(rt.DB(0), free0)

	blocker := block(t, rt, taken)
	ch := make(chan client.Response, 2)
	answer := func(r client.Response) { ch <- r }
	rt.Submit(txn.New(0).U(taken, 1).WF(shared, 0, 5), answer) // wide: waits for the blocker
	rt.Submit(txn.New(0).U(free0, 1).U(shared, 1), answer)     // later; overlaps wide only

	// A transaction disjoint from all of them is not held at all.
	if resp := submitWait(t, rt, txn.New(0).U(keyOn(r, 0, 500), 1).U(free1, 1)); resp.Status != client.StatusCommit || resp.QueueUS != 0 {
		t.Fatalf("disjoint transaction: %+v, want an unheld commit", resp)
	}
	select {
	case resp := <-ch:
		t.Fatalf("answered while the blocker was in flight: %+v", resp)
	default:
	}
	rt.hold.drop(blocker)
	for _, resp := range collectAll(t, ch, 2) {
		if resp.Status != client.StatusCommit {
			t.Fatalf("held transaction: %+v", resp)
		}
	}
	waitFor(t, "installs", func() bool { return fieldOf(rt.DB(0), free0) == baseFree+1 })
	waitFor(t, "in-doubt drain", func() bool { return rt.Stats().TwoPC.InDoubt == 0 })
	if got := fieldOf(rt.DB(1), shared); got != 6 {
		t.Fatalf("shared row = %d, want 6 (wide's write of 5, then the later +1)", got)
	}
	if st := rt.Stats(); st.TwoPC.Held != 2 || votedNo(st) != 0 {
		t.Fatalf("Held = %d (want 2), voted no = %d (want 0)", st.TwoPC.Held, votedNo(st))
	}
}

// TestHoldDeadlineExpiresWhileHeld: a held transaction whose deadline
// passes answers expired, having taken no key and sent no prepare.
func TestHoldDeadlineExpiresWhileHeld(t *testing.T) {
	rt := openHoldTest(t, 2, nil)
	defer shutdown(t, rt)
	r := rt.Router()
	k0, k1 := keyOn(r, 0, 0), keyOn(r, 1, 100)
	base0 := fieldOf(rt.DB(0), k0)

	blocker := block(t, rt, k0)
	tx := txn.New(0).U(k0, 1).U(k1, 1)
	tx.IdemKey = 77
	tx.Deadline = time.Now().Add(20 * time.Millisecond)
	resp := submitWait(t, rt, tx)
	if resp.Status != client.StatusExpired || resp.QueueUS <= 0 || resp.ExecUS != 0 {
		t.Fatalf("want expired with hold time and no 2PC time, got %+v", resp)
	}
	if n := rt.hold.size(); n != 1 {
		t.Fatalf("%d keys in the hold table, want only the blocker's", n)
	}
	rt.hold.drop(blocker)
	if n := rt.hold.size(); n != 0 {
		t.Fatalf("%d keys left in the hold table", n)
	}
	st := rt.Stats()
	if tp := st.TwoPC; tp.Started != 1 || tp.Aborted != 1 || tp.Held != 1 || tp.Committed != 0 {
		t.Fatalf("2PC stats off: %+v", tp)
	}
	for _, s := range st.Shards {
		if s.CrossPrepared != 0 || s.CrossVotedNo != 0 {
			t.Fatalf("shard %d saw a prepare: %+v", s.Shard, s)
		}
	}
	if got := fieldOf(rt.DB(0), k0); got != base0 {
		t.Fatalf("expired transaction mutated shard 0: %d != %d", got, base0)
	}
	// The idempotency key was released: the same request, resubmitted
	// with time to spare, runs.
	again := txn.New(0).U(k0, 1).U(k1, 1)
	again.IdemKey = 77
	if resp := submitWait(t, rt, again); resp.Status != client.StatusCommit || resp.Duplicate {
		t.Fatalf("resubmission after expiry: %+v", resp)
	}
}

// TestHoldShutdownDrainsWaiters: Shutdown with transactions queued in
// the hold table lets the holders finish, then the waiters, and ends
// with nothing in doubt and every callback run exactly once.
func TestHoldShutdownDrainsWaiters(t *testing.T) {
	const n = 32
	rt := openHoldTest(t, 2, nil)
	r := rt.Router()
	k0, k1 := keyOn(r, 0, 0), keyOn(r, 1, 100)
	base0 := fieldOf(rt.DB(0), k0)

	blocker := block(t, rt, k0)
	calls := make([]atomic.Int32, n)
	var commits atomic.Int32
	for i := 0; i < n; i++ {
		rt.Submit(txn.New(0).U(k0, 1).U(k1, 1), func(resp client.Response) {
			calls[i].Add(1)
			if resp.Status == client.StatusCommit {
				commits.Add(1)
			}
		})
	}
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		errc <- rt.Shutdown(ctx)
	}()
	waitFor(t, "shutdown to begin", func() bool {
		rt.admitMu.RLock()
		defer rt.admitMu.RUnlock()
		return rt.draining
	})
	// Draining, with every waiter still queued: new work is refused...
	if resp := submitWait(t, rt, txn.New(0).U(k0, 1).U(k1, 1)); resp.Status != client.StatusRejected {
		t.Fatalf("submission while draining: %+v", resp)
	}
	// ...and the queue empties once the transaction at its head decides.
	rt.hold.drop(blocker)
	if err := <-errc; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := range calls {
		if c := calls[i].Load(); c != 1 {
			t.Fatalf("done %d called %d times", i, c)
		}
	}
	if commits.Load() != n {
		t.Fatalf("%d of %d queued transactions committed", commits.Load(), n)
	}
	st := rt.Stats()
	if st.TwoPC.InDoubt != 0 || rt.hold.size() != 0 {
		t.Fatalf("after shutdown: in doubt %d, hold table keys %d", st.TwoPC.InDoubt, rt.hold.size())
	}
	if got := fieldOf(rt.DB(0), k0); got != base0+n {
		t.Fatalf("hot row = %d, want %d", got, base0+n)
	}
}

// TestHoldDisjointNeverHeld: cross-shard transactions that share no key
// pass straight through.
func TestHoldDisjointNeverHeld(t *testing.T) {
	const n = 64
	rt := openHoldTest(t, 2, nil)
	defer shutdown(t, rt)
	r := rt.Router()
	ch := make(chan client.Response, n)
	seen := make(map[txn.Key]bool)
	next := [2]uint64{}
	distinct := func(shard int) txn.Key {
		for {
			k := keyOn(r, shard, next[shard])
			next[shard] = k.Row() + 1
			if !seen[k] {
				seen[k] = true
				return k
			}
		}
	}
	for i := 0; i < n; i++ {
		rt.Submit(txn.New(0).U(distinct(0), 1).U(distinct(1), 1), func(r client.Response) { ch <- r })
	}
	for i, resp := range collectAll(t, ch, n) {
		if resp.Status != client.StatusCommit || resp.QueueUS != 0 {
			t.Fatalf("response %d: %+v, want an unheld commit", i, resp)
		}
	}
	if st := rt.Stats(); st.TwoPC.Held != 0 || st.TwoPC.HoldWaitUS != 0 || votedNo(st) != 0 {
		t.Fatalf("disjoint transactions were held or voted down: %+v", st.TwoPC)
	}
}

// TestHoldMixedRunSerializable runs hot local and cross-shard traffic
// together, every caller resubmitting nothing, and checks the whole
// execution — engine commits on every shard plus one merged event per
// 2PC commit — for serializability, and the rows for lost updates.
func TestHoldMixedRunSerializable(t *testing.T) {
	const shards, callers, perCaller = 4, 8, 60
	rec := history.NewRecorder()
	rt := openHoldTest(t, shards, func(c *Config) { c.Core.Recorder = rec })
	w := workload.YCSB{Records: 64, Txns: callers * perCaller, OpsPerTxn: 6, Theta: 0.99, ReadRatio: 0.5, RMW: true, Seed: 9}.Generate()
	_, cross := Confine(w, shards, 0.3, 64, 9)
	if cross == 0 {
		t.Fatal("workload has no cross-shard transactions")
	}
	// What every row must gain: the engine and the participants both
	// apply an update as field += arg.
	want := make(map[txn.Key]uint64)
	for _, tx := range w {
		for _, op := range tx.Ops {
			if op.Kind == txn.OpUpdate && op.Field == 0 {
				want[op.Key] += op.Arg
			}
		}
	}
	base := make(map[txn.Key]uint64)
	for k := range want {
		base[k] = fieldOf(rt.DB(rt.Router().Home(k)), k)
	}

	var wg sync.WaitGroup
	var bad atomic.Int32
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch := make(chan client.Response, 1)
			for _, tx := range w[c*perCaller : (c+1)*perCaller] {
				rt.Submit(tx, func(r client.Response) { ch <- r })
				if resp := <-ch; resp.Status != client.StatusCommit {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	shutdown(t, rt)
	if bad.Load() != 0 {
		t.Fatalf("%d transactions did not commit on their first attempt", bad.Load())
	}
	st := rt.Stats()
	if int(st.TwoPC.Committed) != cross || st.TwoPC.AbortedVote != 0 || votedNo(st) != 0 {
		t.Fatalf("2PC: %+v, voted no %d; want %d commits and no vote-no", st.TwoPC, votedNo(st), cross)
	}
	if rec.Len() != len(w) {
		t.Fatalf("recorder holds %d events for %d commits", rec.Len(), len(w))
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}
	for k, d := range want {
		if got := fieldOf(rt.DB(rt.Router().Home(k)), k); got != base[k]+d {
			t.Errorf("row %v = %d, want %d: an update was lost or applied twice", k, got, base[k]+d)
		}
	}
}
