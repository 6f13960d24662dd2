package deferment

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"tskd/internal/txn"
)

func TestRingBasics(t *testing.T) {
	tr := NewTracker(2, 4)
	tr.Load(0, []int{10, 11, 12})
	if n := tr.Pending(0); n != 3 {
		t.Fatalf("Pending = %d", n)
	}
	id, ok := tr.Peek(0)
	if !ok || id != 10 {
		t.Fatalf("Peek = %d,%v", id, ok)
	}
	tr.Advance(0)
	if id, _ := tr.Peek(0); id != 11 {
		t.Errorf("after Advance Peek = %d", id)
	}
	tr.DeferHead(0) // 11 goes to the back
	if id, _ := tr.Peek(0); id != 12 {
		t.Errorf("after Defer Peek = %d", id)
	}
	tr.Advance(0)
	id, ok = tr.Peek(0)
	if !ok || id != 11 {
		t.Errorf("deferred transaction lost: %d,%v", id, ok)
	}
	tr.Advance(0)
	if _, ok := tr.Peek(0); ok {
		t.Error("drained queue still peekable")
	}
	tr.DeferHead(0) // no-op on empty
	if tr.Pending(0) != 0 {
		t.Error("DeferHead on empty changed state")
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTracker(1, 3) // ring size 5
	tr.Load(0, []int{1, 2, 3})
	// Defer repeatedly: cursors wrap, nothing is lost.
	order := []int{}
	for i := 0; i < 20; i++ {
		id, ok := tr.Peek(0)
		if !ok {
			t.Fatal("queue drained unexpectedly")
		}
		if i%2 == 0 {
			tr.DeferHead(0)
		} else {
			order = append(order, id)
			tr.Advance(0)
		}
		if tr.Pending(0)+len(order) != 3 {
			t.Fatalf("iteration %d: pending %d + done %d != 3", i, tr.Pending(0), len(order))
		}
		if len(order) == 3 {
			break
		}
	}
	if len(order) != 3 {
		t.Fatalf("only %d committed", len(order))
	}
	seen := map[int]bool{order[0]: true, order[1]: true, order[2]: true}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Errorf("transactions lost through wraparound: %v", order)
	}
}

func TestLoadCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized Load did not panic")
		}
	}()
	tr := NewTracker(1, 2)
	tr.Load(0, []int{1, 2, 3})
}

func TestLookupSingleThread(t *testing.T) {
	tr := NewTracker(1, 4)
	tr.Load(0, []int{0})
	if _, ok := tr.Lookup(0, 0, 0, rand.New(rand.NewSource(1))); ok {
		t.Error("Lookup with no other threads returned an item")
	}
}

func TestLookupReturnsRemoteWriteSet(t *testing.T) {
	tr := NewTracker(2, 4)
	ws := make([][]txn.Key, 2)
	ws[0] = []txn.Key{txn.MakeKey(0, 1)}
	ws[1] = []txn.Key{txn.MakeKey(0, 7), txn.MakeKey(0, 8)}
	tr.SetWriteSets(ws)
	tr.Load(0, []int{0})
	tr.Load(1, []int{1})
	rng := rand.New(rand.NewSource(1))
	seen := map[txn.Key]bool{}
	for i := 0; i < 20; i++ {
		item, ok := tr.Lookup(0, 0, i, rng)
		if !ok {
			t.Fatal("Lookup failed")
		}
		seen[item] = true
	}
	if !seen[txn.MakeKey(0, 7)] || !seen[txn.MakeKey(0, 8)] || len(seen) != 2 {
		t.Errorf("Lookup items = %v, want {0:7, 0:8}", seen)
	}
	// Drained remote thread: no active transaction.
	tr.Advance(1)
	if _, ok := tr.Lookup(0, 0, 0, rng); ok {
		t.Error("Lookup on drained thread returned an item")
	}
}

func TestLookupAhead(t *testing.T) {
	tr := NewTracker(2, 4)
	ws := make([][]txn.Key, 3)
	ws[1] = []txn.Key{txn.MakeKey(0, 1)}
	ws[2] = []txn.Key{txn.MakeKey(0, 2)}
	tr.SetWriteSets(ws)
	tr.Load(0, []int{0})
	tr.Load(1, []int{1, 2})
	rng := rand.New(rand.NewSource(1))
	item, ok := tr.Lookup(0, 1, 0, rng)
	if !ok || item != txn.MakeKey(0, 2) {
		t.Errorf("Lookup ahead=1 = %v,%v want 0:2", item, ok)
	}
	// Past the tail.
	if _, ok := tr.Lookup(0, 5, 0, rng); ok {
		t.Error("Lookup past tail returned an item")
	}
}

func TestLookupUnknownWriteSet(t *testing.T) {
	tr := NewTracker(2, 4)
	tr.SetWriteSets(make([][]txn.Key, 1)) // id 1 out of range
	tr.Load(0, []int{0})
	tr.Load(1, []int{1})
	if _, ok := tr.Lookup(0, 0, 0, rand.New(rand.NewSource(1))); ok {
		t.Error("Lookup with out-of-range id returned an item")
	}
}

// example5 sets up Example 5: thread 1 holds T2 (about to execute),
// thread 2's active transaction is T5 with write set {x1, x5}; T2
// accesses {x1, x2}.
func example5() (*Tracker, *txn.Transaction) {
	t2 := txn.MustParse(1, "R[x1]W[x2]W[x1]")
	t5 := txn.MustParse(4, "R[x1]W[x1]R[x5]W[x5]R[x1]W[x1]")
	tr := NewTracker(2, 8)
	ws := make([][]txn.Key, 5)
	ws[1] = t2.WriteSet()
	ws[4] = t5.WriteSet()
	tr.SetWriteSets(ws)
	tr.Load(0, []int{1}) // thread 1: T2 next
	tr.Load(1, []int{4}) // thread 2: T5 active
	return tr, t2
}

// With #lookups = 2 and deferp = 100%, T2 is deferred for certain
// (Example 5).
func TestExample5TwoLookupsCertain(t *testing.T) {
	tr, t2 := example5()
	d := NewDeferrer(tr)
	d.Lookups = 2
	d.DeferP = 1.0
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		if !d.ShouldDefer(0, t2, rng) {
			t.Fatal("2 lookups failed to witness the conflict")
		}
	}
}

// With #lookups = 1 and deferp = 100%, T2 is deferred about half the
// time (the single probe returns x1 or x5 with equal probability).
func TestExample5OneLookupHalf(t *testing.T) {
	tr, t2 := example5()
	d := NewDeferrer(tr)
	d.Lookups = 1
	d.DeferP = 1.0
	rng := rand.New(rand.NewSource(7))
	deferred := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if d.ShouldDefer(0, t2, rng) {
			deferred++
		}
	}
	frac := float64(deferred) / trials
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("defer fraction = %.3f, want ≈ 0.5", frac)
	}
}

func TestDeferPScalesDecision(t *testing.T) {
	tr, t2 := example5()
	d := NewDeferrer(tr)
	d.Lookups = 2 // witnesses for certain
	d.DeferP = 0.3
	rng := rand.New(rand.NewSource(9))
	deferred := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if d.ShouldDefer(0, t2, rng) {
			deferred++
		}
	}
	frac := float64(deferred) / trials
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("defer fraction = %.3f, want ≈ 0.3", frac)
	}
}

func TestLookupsZeroDisables(t *testing.T) {
	tr, t2 := example5()
	d := NewDeferrer(tr)
	d.Lookups = 0
	d.DeferP = 1.0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if d.ShouldDefer(0, t2, rng) {
			t.Fatal("#lookups = 0 must disable TsDEFER")
		}
	}
}

func TestNoConflictNoDefer(t *testing.T) {
	tr, _ := example5()
	// A transaction that shares nothing with T5.
	loner := txn.MustParse(2, "R[x9]W[x9]")
	d := NewDeferrer(tr)
	d.Lookups = 5
	d.DeferP = 1.0
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		if d.ShouldDefer(0, loner, rng) {
			t.Fatal("conflict-free transaction deferred")
		}
	}
}

func TestThresholdTwo(t *testing.T) {
	tr, t2 := example5()
	d := NewDeferrer(tr)
	d.Lookups = 2
	d.DeferP = 1.0
	d.Threshold = 2 // T5 exposes only one conflicting item (x1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if d.ShouldDefer(0, t2, rng) {
			t.Fatal("threshold 2 reached with a single conflicting item")
		}
	}
}

func TestMaskWriteSets(t *testing.T) {
	w := txn.Workload{
		txn.MustParse(0, "W[x1]W[x2]W[x3]W[x4]"),
		txn.MustParse(1, "W[x5]"),
		txn.MustParse(2, "R[x6]"),
	}
	full := MaskWriteSets(w, 1.0, 1)
	if len(full[0]) != 4 || len(full[1]) != 1 || len(full[2]) != 0 {
		t.Errorf("alpha=1 sizes wrong: %d %d %d", len(full[0]), len(full[1]), len(full[2]))
	}
	// alpha=1 is each transaction's exact write set, whatever the seed,
	// and costs only the output slice: no RNG is seeded for it.
	for _, seed := range []int64{1, 2} {
		got := MaskWriteSets(w, 1.0, seed)
		for _, tx := range w {
			if !slices.Equal(got[tx.ID], tx.WriteSet()) {
				t.Errorf("alpha=1 seed %d txn %d: %v, want %v", seed, tx.ID, got[tx.ID], tx.WriteSet())
			}
		}
	}
	if a := testing.AllocsPerRun(100, func() { MaskWriteSets(w, 1.0, 1) }); a > 1 {
		t.Errorf("alpha=1 allocates %.1f times per call, want <= 1 (the output slice)", a)
	}
	half := MaskWriteSets(w, 0.5, 1)
	if len(half[0]) != 2 {
		t.Errorf("alpha=0.5 kept %d of 4", len(half[0]))
	}
	if len(half[1]) != 1 { // ceil(0.5*1) = 1
		t.Errorf("alpha=0.5 of singleton = %d", len(half[1]))
	}
	// Masked sets are subsets of the real write set.
	real := map[txn.Key]bool{}
	for _, k := range w[0].WriteSet() {
		real[k] = true
	}
	for _, k := range half[0] {
		if !real[k] {
			t.Errorf("masked set contains foreign key %v", k)
		}
	}
	// Deterministic per seed.
	again := MaskWriteSets(w, 0.5, 1)
	for i := range half[0] {
		if half[0][i] != again[0][i] {
			t.Error("masking not deterministic")
		}
	}
}

// Concurrent stress: each thread works its own ring (peek/defer/
// advance) while probing others. Run with -race; checks no transaction
// is lost.
func TestConcurrentTrackerStress(t *testing.T) {
	const k = 4
	const perThread = 200
	tr := NewTracker(k, perThread)
	ws := make([][]txn.Key, k*perThread)
	w := make(txn.Workload, k*perThread)
	for i := range ws {
		tx := txn.New(i).W(txn.MakeKey(0, uint64(i%37))).R(txn.MakeKey(0, uint64(i%11)))
		w[i] = tx
		ws[i] = tx.WriteSet()
	}
	tr.SetWriteSets(ws)
	for th := 0; th < k; th++ {
		ids := make([]int, perThread)
		for j := range ids {
			ids[j] = th*perThread + j
		}
		tr.Load(th, ids)
	}
	var wg sync.WaitGroup
	committed := make([][]int, k)
	for th := 0; th < k; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(th)))
			d := NewDeferrer(tr)
			deferCount := map[int]int{}
			for {
				id, ok := tr.Peek(th)
				if !ok {
					return
				}
				if deferCount[id] < 3 && d.ShouldDefer(th, w[id], rng) {
					deferCount[id]++
					tr.DeferHead(th)
					continue
				}
				committed[th] = append(committed[th], id)
				tr.Advance(th)
			}
		}(th)
	}
	wg.Wait()
	seen := map[int]bool{}
	for th := 0; th < k; th++ {
		for _, id := range committed[th] {
			if seen[id] {
				t.Fatalf("transaction %d executed twice", id)
			}
			seen[id] = true
			if id/perThread != th {
				t.Fatalf("transaction %d leaked to thread %d", id, th)
			}
		}
	}
	if len(seen) != k*perThread {
		t.Errorf("executed %d of %d transactions", len(seen), k*perThread)
	}
}
