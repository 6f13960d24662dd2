package conflict

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tskd/internal/txn"
)

// example1 returns the workload of Example 1 in the paper.
func example1() txn.Workload {
	return txn.MustParseWorkload(`
		R[x2]W[x2]R[x3]W[x3]R[x4]W[x4]
		R[x1]W[x2]W[x1]
		R[x3]W[x3]R[x2]R[x3]W[x2]
		R[x5]W[x5]R[x6]W[x6]
		R[x1]W[x1]R[x5]W[x5]R[x1]W[x1]
	`)
}

func TestConflictingSerializability(t *testing.T) {
	w := example1()
	// Per the paper: T1,T2,T3 mutually conflict; (T2,T5) and (T4,T5)
	// conflict. (Workload indices are 0-based here.)
	want := map[[2]int]bool{
		{0, 1}: true, {0, 2}: true, {1, 2}: true,
		{1, 4}: true, {3, 4}: true,
	}
	for i := 0; i < len(w); i++ {
		for j := i + 1; j < len(w); j++ {
			got := Conflicting(w[i], w[j], Serializability)
			if got != want[[2]int{i, j}] {
				t.Errorf("Conflicting(T%d,T%d) = %v, want %v", i+1, j+1, got, want[[2]int{i, j}])
			}
		}
	}
}

func TestConflictingSnapshotIsolation(t *testing.T) {
	w := example1()
	// Paper Section 2.1: under snapshot isolation T2 and T5 do NOT
	// conflict (T2 writes {x1,x2}, T5 writes {x1,x5} — wait, both
	// write x1, so they DO conflict under SI; the paper's example
	// refers to serializability-only pairs). Verify the definition
	// directly instead: read-write overlaps alone do not conflict.
	a := txn.MustParse(0, "R[x1]W[x2]")
	b := txn.MustParse(1, "W[x1]R[x2]")
	if Conflicting(a, b, SnapshotIsolation) {
		t.Error("read-write overlap conflicts under SI")
	}
	if !Conflicting(a, b, Serializability) {
		t.Error("read-write overlap must conflict under serializability")
	}
	c := txn.MustParse(2, "W[x2]")
	if !Conflicting(a, c, SnapshotIsolation) {
		t.Error("write-write overlap must conflict under SI")
	}
	_ = w
}

func TestConflictingSymmetricQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := func(id int) *txn.Transaction {
			tx := txn.New(id)
			for i, n := 0, r.Intn(8); i < n; i++ {
				k := txn.MakeKey(0, uint64(r.Intn(6)))
				if r.Intn(2) == 0 {
					tx.R(k)
				} else {
					tx.W(k)
				}
			}
			return tx
		}
		a, b := gen(0), gen(1)
		for _, lvl := range []Isolation{Serializability, SnapshotIsolation} {
			if Conflicting(a, b, lvl) != Conflicting(b, a, lvl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGraphExample1(t *testing.T) {
	w := example1()
	g := Build(w, Serializability)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Edges() != 5 {
		t.Errorf("Edges = %d, want 5", g.Edges())
	}
	wantEdges := [][2]int{{0, 1}, {0, 2}, {1, 2}, {1, 4}, {3, 4}}
	for _, e := range wantEdges {
		if !g.Conflict(e[0], e[1]) || !g.Conflict(e[1], e[0]) {
			t.Errorf("edge (%d,%d) missing", e[0], e[1])
		}
	}
	if g.Conflict(0, 3) || g.Conflict(0, 4) || g.Conflict(2, 4) || g.Conflict(2, 3) || g.Conflict(1, 3) {
		t.Error("phantom edge present")
	}
	if g.Degree(1) != 3 {
		t.Errorf("Degree(T2) = %d, want 3", g.Degree(1))
	}
}

// refWeight counts, by definition, the (key, access of a, access of b)
// combinations with at least one writer that count under level.
func refWeight(a, b *txn.Transaction, level Isolation) int32 {
	var n int32
	common := func(x, y []txn.Key) {
		for _, kx := range x {
			for _, ky := range y {
				if kx == ky {
					n++
				}
			}
		}
	}
	common(a.WriteSet(), b.WriteSet())
	if level == Serializability {
		common(a.ReadSet(), b.WriteSet())
		common(a.WriteSet(), b.ReadSet())
	}
	return n
}

// checkGraph compares g against the pairwise definitions for every
// pair of w: membership, weights, row order, symmetry, edge count.
func checkGraph(t *testing.T, w txn.Workload, level Isolation, g *Graph) {
	t.Helper()
	if g.N() != len(w) || g.Level() != level {
		t.Fatalf("N = %d, Level = %v; want %d, %v", g.N(), g.Level(), len(w), level)
	}
	byID := make([]*txn.Transaction, len(w))
	for _, tx := range w {
		byID[tx.ID] = tx
	}
	pairs := 0
	for a := range byID {
		ns, ws := g.Neighbors(a), g.Weights(a)
		if len(ns) != len(ws) || len(ns) != g.Degree(a) {
			t.Fatalf("row %d: %d neighbors, %d weights, degree %d", a, len(ns), len(ws), g.Degree(a))
		}
		at := 0
		for b := range byID {
			want := a != b && Conflicting(byID[a], byID[b], level)
			if got := g.Conflict(a, b); got != want {
				t.Fatalf("Conflict(%d,%d) = %v, Conflicting = %v", a, b, got, want)
			}
			if !want {
				continue
			}
			if a < b {
				pairs++
			}
			// Walking b upwards, the row must list exactly the
			// conflicting IDs, in that order.
			if at >= len(ns) || int(ns[at]) != b {
				t.Fatalf("row %d = %v: entry %d is not %d (unsorted, duplicate or missing)", a, ns, at, b)
			}
			if rw := refWeight(byID[a], byID[b], level); ws[at] != rw {
				t.Fatalf("weight(%d,%d) = %d, want %d", a, b, ws[at], rw)
			}
			at++
		}
		if at != len(ns) {
			t.Fatalf("row %d = %v has %d entries beyond the conflicting pairs", a, ns, len(ns)-at)
		}
	}
	if g.Edges() != pairs {
		t.Fatalf("Edges = %d, want %d", g.Edges(), pairs)
	}
}

// randomBundle draws n transactions over a small key space so that
// keys collide: reads, blind writes, read-modify-writes (the key sits
// in both sets) and repeated keys within a transaction. With hot, every
// transaction also touches key 0. IDs are dense but w is shuffled.
func randomBundle(r *rand.Rand, n int, hot bool) txn.Workload {
	w := make(txn.Workload, n)
	for i := range w {
		tx := txn.New(i)
		for j, m := 0, r.Intn(7); j < m; j++ {
			k := txn.MakeKey(0, uint64(1+r.Intn(12)))
			switch r.Intn(4) {
			case 0:
				tx.R(k)
			case 1:
				tx.W(k)
			case 2:
				tx.U(k, 1)
			case 3:
				tx.R(k).W(k).R(k)
			}
		}
		if hot {
			if k := txn.MakeKey(0, 0); r.Intn(2) == 0 {
				tx.R(k)
			} else {
				tx.U(k, 1)
			}
		}
		w[i] = tx
	}
	r.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

func TestGraphMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// 63, 64 and 65 straddle a word of the row bitset.
	for _, n := range []int{0, 1, 2, 20, 63, 64, 65, 130} {
		for _, hot := range []bool{false, true} {
			for _, lvl := range []Isolation{Serializability, SnapshotIsolation} {
				w := randomBundle(r, n, hot)
				checkGraph(t, w, lvl, Build(w, lvl))
			}
		}
	}
}

// TestBuilderReuse feeds one Builder a hot, a sparse and again a hot
// bundle of different sizes: a counter, bit, index slot or row left
// over from an earlier bundle would show as a wrong edge or weight.
func TestBuilderReuse(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var b Builder
	for round := 0; round < 3; round++ {
		for _, c := range []struct {
			n   int
			hot bool
		}{{130, true}, {65, false}, {0, false}, {100, true}} {
			for _, lvl := range []Isolation{Serializability, SnapshotIsolation} {
				w := randomBundle(r, c.n, c.hot)
				checkGraph(t, w, lvl, b.Build(w, lvl))
			}
		}
	}
}

// touch reads row id of g through one of the four accessors that can
// compute a row (how&3: Neighbors then Weights, Weights alone, Degree
// then Neighbors, Conflict against how>>2) and compares what it sees
// with the fully built graph want.
func touch(t *testing.T, g, want *Graph, id int, how int) {
	t.Helper()
	same := func(what string, got, want []int32) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s(%d) = %v, want %v", what, id, got, want)
		}
	}
	switch how & 3 {
	case 0:
		same("Neighbors", g.Neighbors(id), want.Neighbors(id))
		same("Weights", g.Weights(id), want.Weights(id))
	case 1:
		same("Weights", g.Weights(id), want.Weights(id))
	case 2:
		if d := g.Degree(id); d != want.Degree(id) {
			t.Fatalf("Degree(%d) = %d, want %d", id, d, want.Degree(id))
		}
		same("Neighbors after Degree", g.Neighbors(id), want.Neighbors(id))
	case 3:
		o := (how >> 2) % g.N()
		if c := g.Conflict(id, o); c != want.Conflict(id, o) {
			t.Fatalf("Conflict(%d,%d) = %v, want %v", id, o, c, want.Conflict(id, o))
		}
	}
}

// TestRowsOnDemandMatchEager reads a Builder's graph the way its
// consumers do — some rows, in any order, some twice, through any
// accessor first — and compares every answer with the package-level
// Build, then lets checkGraph read the rest.
func TestRowsOnDemandMatchEager(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var b Builder
	for _, n := range []int{0, 1, 2, 20, 63, 64, 65, 130} {
		for _, hot := range []bool{false, true} {
			for _, lvl := range []Isolation{Serializability, SnapshotIsolation} {
				w := randomBundle(r, n, hot)
				want := Build(w, lvl)
				g := b.Build(w, lvl)
				if g.N() != n || g.Level() != lvl || g.built != 0 {
					t.Fatalf("fresh graph: N = %d, Level = %v, %d rows built; want %d, %v, 0", g.N(), g.Level(), g.built, n, lvl)
				}
				read := make(map[int]bool)
				for _, id := range r.Perm(n)[:n/2] {
					touch(t, g, want, id, r.Int())
					read[id] = true
					if r.Intn(3) == 0 { // again, through another accessor
						touch(t, g, want, id, r.Int())
					}
					if g.built != len(read) {
						t.Fatalf("n=%d: %d rows built after reading %d distinct ones", n, g.built, len(read))
					}
				}
				checkGraph(t, w, lvl, g)
				if g.built != n {
					t.Fatalf("n=%d: %d rows built after reading all", n, g.built)
				}
			}
		}
	}
}

// TestBuilderReusePartial runs bundles of different shapes through one
// Builder reading only a tenth of each hot bundle's rows, so most of
// the arena and of the row table still holds the bundle before: no row
// of an earlier bundle may be served, and a row handed out early must
// not change while the rest of its bundle is computed around it (TSgen
// holds Neighbors(T*) across ckRCF).
func TestBuilderReusePartial(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var b Builder
	for round := 0; round < 3; round++ {
		for _, c := range []struct {
			n    int
			hot  bool
			read int // rows read before the rest, in percent
		}{{130, true, 10}, {65, false, 50}, {0, false, 0}, {100, true, 10}} {
			w := randomBundle(r, c.n, c.hot)
			want := Build(w, Serializability)
			g := b.Build(w, Serializability)
			early := r.Perm(c.n)[:c.n*c.read/100]
			held := make([][]int32, 0, 2*len(early))
			for _, id := range early {
				held = append(held, g.Neighbors(id), g.Weights(id))
			}
			kept := make([][]int32, len(held))
			for i, row := range held {
				kept[i] = slices.Clone(row)
			}
			if round != 1 { // round 1 leaves its bundles partly read
				checkGraph(t, w, Serializability, g) // reads every other row
			}
			for i, id := range early {
				if !slices.Equal(held[2*i], kept[2*i]) || !slices.Equal(held[2*i+1], kept[2*i+1]) {
					t.Fatalf("round %d n=%d: row %d changed after it was returned", round, c.n, id)
				}
				if !slices.Equal(held[2*i], want.Neighbors(id)) {
					t.Fatalf("round %d n=%d: row %d = %v, want %v", round, c.n, id, held[2*i], want.Neighbors(id))
				}
			}
		}
	}
}

// FuzzBuildParity decodes the input into a bundle and checks the graph
// against the pairwise definitions. Byte 0 picks the isolation level
// and whether w is reversed; 0xff ends a transaction; any other byte is
// one operation (top two bits: read, write, update, insert) on one of
// 64 keys. The same bytes then drive which rows of the Builder's graph
// are read first, and through which accessor.
func FuzzBuildParity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x01, 0x41, 0x81, 0xff, 0x01, 0xff, 0x41})
	f.Add([]byte{3, 0x85, 0x85, 0xff, 0x85, 0x05, 0xff, 0xff, 0x45})
	everyTxnOneKey := []byte{1}
	for i := 0; i < 65; i++ {
		everyTxnOneKey = append(everyTxnOneKey, 0x80, byte(i%64), 0xff)
	}
	f.Add(everyTxnOneKey)
	var b Builder
	f.Fuzz(func(t *testing.T, data []byte) {
		var flags byte
		if len(data) > 0 {
			flags, data = data[0], data[1:]
		}
		w := txn.Workload{txn.New(0)}
		for _, c := range data {
			if c == 0xff {
				if len(w) == 200 {
					break
				}
				w = append(w, txn.New(len(w)))
				continue
			}
			tx, k := w[len(w)-1], txn.MakeKey(0, uint64(c&0x3f))
			switch c >> 6 {
			case 0:
				tx.R(k)
			case 1:
				tx.W(k)
			case 2:
				tx.U(k, 1)
			case 3:
				tx.I(k)
			}
		}
		if flags&2 != 0 {
			slices.Reverse(w)
		}
		lvl := Isolation(flags & 1)
		want := Build(w, lvl)
		checkGraph(t, w, lvl, want)
		g := b.Build(w, lvl)
		for i, c := range data {
			touch(t, g, want, int(c)%len(w), i)
		}
		checkGraph(t, w, lvl, g)
	})
}

func TestGraphNoSelfEdges(t *testing.T) {
	w := txn.Workload{txn.MustParse(0, "R[x1]W[x1]W[x1]R[x1]")}
	g := Build(w, Serializability)
	if g.Edges() != 0 || g.Degree(0) != 0 {
		t.Error("self edge created")
	}
}

func TestGraphReadOnlyNoConflict(t *testing.T) {
	w := txn.Workload{
		txn.MustParse(0, "R[x1]R[x2]"),
		txn.MustParse(1, "R[x1]R[x2]"),
	}
	g := Build(w, Serializability)
	if g.Edges() != 0 {
		t.Error("read-read created a conflict edge")
	}
}

func TestGraphSnapshotLevel(t *testing.T) {
	w := txn.Workload{
		txn.MustParse(0, "R[x1]W[x2]"),
		txn.MustParse(1, "W[x1]"),
		txn.MustParse(2, "W[x2]"),
	}
	g := Build(w, SnapshotIsolation)
	if g.Level() != SnapshotIsolation {
		t.Error("Level not recorded")
	}
	if g.Conflict(0, 1) {
		t.Error("rw edge under SI")
	}
	if !g.Conflict(0, 2) {
		t.Error("ww edge missing under SI")
	}
}

func TestBuildPanicsOnSparseIDs(t *testing.T) {
	for name, w := range map[string]txn.Workload{
		"out of range": {txn.New(5)},
		"negative":     {txn.New(-1)},
		"duplicate":    {txn.New(0), txn.New(0)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Build with non-dense IDs did not panic", name)
				}
			}()
			Build(w, Serializability)
		}()
	}
}

func TestNeighborsSorted(t *testing.T) {
	w := example1()
	g := Build(w, Serializability)
	for i := 0; i < g.N(); i++ {
		ns := g.Neighbors(i)
		for j := 1; j < len(ns); j++ {
			if ns[j-1] >= ns[j] {
				t.Fatalf("Neighbors(%d) not strictly sorted: %v", i, ns)
			}
		}
	}
}

func TestGraphWeights(t *testing.T) {
	// T0 and T1 share two contended items (x1, x2); T0 and T2 share
	// one (x3). Weights must reflect that.
	w := txn.Workload{
		txn.MustParse(0, "W[x1]W[x2]W[x3]"),
		txn.MustParse(1, "W[x1]W[x2]"),
		txn.MustParse(2, "R[x3]"),
	}
	g := Build(w, Serializability)
	find := func(a, b int) int32 {
		ns, ws := g.Neighbors(a), g.Weights(a)
		for i, n := range ns {
			if int(n) == b {
				return ws[i]
			}
		}
		t.Fatalf("edge (%d,%d) missing", a, b)
		return 0
	}
	if w01 := find(0, 1); w01 != 2 {
		t.Errorf("weight(0,1) = %d, want 2", w01)
	}
	if w02 := find(0, 2); w02 != 1 {
		t.Errorf("weight(0,2) = %d, want 1", w02)
	}
	// Symmetric.
	if find(1, 0) != find(0, 1) {
		t.Error("weights not symmetric")
	}
	// Parallel arrays stay aligned.
	for id := 0; id < g.N(); id++ {
		if len(g.Neighbors(id)) != len(g.Weights(id)) {
			t.Fatalf("node %d: adjacency/weight length mismatch", id)
		}
	}
}
