package txn

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestMakeKeyRoundTrip(t *testing.T) {
	cases := []struct {
		table uint16
		row   uint64
	}{
		{0, 0},
		{1, 1},
		{65535, 1<<48 - 1},
		{42, 123456789},
	}
	for _, c := range cases {
		k := MakeKey(c.table, c.row)
		if k.Table() != c.table || k.Row() != c.row {
			t.Errorf("MakeKey(%d,%d) round-trips to (%d,%d)", c.table, c.row, k.Table(), k.Row())
		}
	}
}

func TestMakeKeyRowMasked(t *testing.T) {
	// Rows above 48 bits must be masked, not bleed into the table id.
	k := MakeKey(7, 1<<60|5)
	if k.Table() != 7 {
		t.Errorf("table corrupted by oversized row: got %d", k.Table())
	}
	if k.Row() != 5 {
		t.Errorf("row not masked: got %d", k.Row())
	}
}

func TestKeyRoundTripQuick(t *testing.T) {
	f := func(table uint16, row uint64) bool {
		row &= 1<<48 - 1
		k := MakeKey(table, row)
		return k.Table() == table && k.Row() == row
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadWriteSets(t *testing.T) {
	tx := MustParse(1, "R[x2]W[x2]R[x3]W[x3]R[x4]W[x4]")
	wantR := []Key{MakeKey(0, 2), MakeKey(0, 3), MakeKey(0, 4)}
	if got := tx.ReadSet(); !reflect.DeepEqual(got, wantR) {
		t.Errorf("ReadSet = %v, want %v", got, wantR)
	}
	if got := tx.WriteSet(); !reflect.DeepEqual(got, wantR) {
		t.Errorf("WriteSet = %v, want %v", got, wantR)
	}
}

func TestSetsDeduplicated(t *testing.T) {
	tx := MustParse(0, "R[x1]R[x1]R[x1]W[x1]W[x1]")
	if len(tx.ReadSet()) != 1 || len(tx.WriteSet()) != 1 {
		t.Errorf("sets not deduplicated: R=%v W=%v", tx.ReadSet(), tx.WriteSet())
	}
}

func TestInsertCountsAsWrite(t *testing.T) {
	tx := New(0).I(MakeKey(1, 9))
	if !tx.Writes(MakeKey(1, 9)) {
		t.Error("insert not reflected in write set")
	}
	if len(tx.ReadSet()) != 0 {
		t.Error("insert leaked into read set")
	}
}

func TestBuilderInvalidatesCache(t *testing.T) {
	tx := New(0).R(MakeKey(0, 1))
	_ = tx.ReadSet() // force cache
	tx.W(MakeKey(0, 2))
	if !tx.Writes(MakeKey(0, 2)) {
		t.Error("write set cache not invalidated by builder")
	}
}

func TestEmptySets(t *testing.T) {
	tx := New(0)
	if tx.ReadSet() == nil || tx.WriteSet() == nil {
		t.Error("empty sets should be non-nil after computation")
	}
	if tx.Reads(MakeKey(0, 0)) || tx.Writes(MakeKey(0, 0)) {
		t.Error("empty transaction claims accesses")
	}
}

func TestAccessSetUnion(t *testing.T) {
	tx := MustParse(0, "R[x1]W[x2]R[x3]")
	want := []Key{MakeKey(0, 1), MakeKey(0, 2), MakeKey(0, 3)}
	if got := tx.AccessSet(); !reflect.DeepEqual(got, want) {
		t.Errorf("AccessSet = %v, want %v", got, want)
	}
}

// TestAccessSetMatchesSortAndDedupe compares the cached union with
// the definition (concatenate both sets, sort, drop duplicates) on
// random operation lists, among them empty, read-only, write-only and
// read-modify-write-only transactions.
func TestAccessSetMatchesSortAndDedupe(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		kinds := [][]OpKind{
			{OpRead, OpWrite, OpInsert, OpUpdate},
			{OpRead},
			{OpWrite, OpInsert},
			{OpUpdate},
		}[i%4]
		tx := New(i)
		for j, n := 0, r.Intn(12); j < n; j++ {
			tx.Ops = append(tx.Ops, Op{Kind: kinds[r.Intn(len(kinds))], Key: MakeKey(0, uint64(r.Intn(8)))})
		}
		want := append(append([]Key{}, tx.ReadSet()...), tx.WriteSet()...)
		want = dedupe(want)
		got := tx.AccessSet()
		if got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ops %v: AccessSet = %v, want %v", tx.Ops, got, want)
		}
		// A builder call invalidates the union with the other two sets.
		tx.W(MakeKey(0, 99))
		if got := tx.AccessSet(); got[len(got)-1] != MakeKey(0, 99) {
			t.Fatalf("AccessSet not recomputed after W: %v", got)
		}
	}
}

// TestAccessSetAllocBudget: the union is computed once, with the other
// sets, into a slice sized once; a pooled transaction keeps that slice
// across both resets, so decode + all three sets allocate nothing.
func TestAccessSetAllocBudget(t *testing.T) {
	tx := MustParse(0, "R[x1]W[x2]R[x3]R[x2]W[x7]")
	tx.AccessSet()
	if n := testing.AllocsPerRun(100, func() { sinkKeys = tx.AccessSet() }); n > 0 {
		t.Errorf("warmed AccessSet allocs/op = %v, budget 0", n)
	}
	blob, err := AppendOpsBinary(nil, tx.Ops)
	if err != nil {
		t.Fatal(err)
	}
	for name, reset := range map[string]func() error{
		"ParseInto":       func() error { return ParseInto(tx, 0, "R[x1]W[x2]R[x3]R[x2]W[x7]") },
		"ParseBinaryInto": func() error { return ParseBinaryInto(tx, 0, blob) },
	} {
		if n := testing.AllocsPerRun(100, func() {
			if err := reset(); err != nil {
				t.Fatal(err)
			}
			sinkKeys = tx.AccessSet()
		}); n > 0 {
			t.Errorf("%s + AccessSet on a pooled transaction allocs/op = %v, budget 0", name, n)
		}
	}
	// Un-pooled: one allocation for the union, however many keys.
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Kind: OpUpdate, Key: MakeKey(0, uint64(i))}
	}
	rs, ws := make([]Key, 0, len(ops)), make([]Key, 0, len(ops))
	if n := testing.AllocsPerRun(100, func() {
		fresh := Transaction{Ops: ops, readSet: rs, writeSet: ws}
		sinkKeys = fresh.AccessSet()
	}); n != 1 {
		t.Errorf("first AccessSet of a 64-key transaction allocs/op = %v, want 1: the union, sized once", n)
	}
}

var sinkKeys []Key

func TestParseExample1(t *testing.T) {
	// The five transactions of Example 1 in the paper.
	w := MustParseWorkload(`
		R[x2]W[x2]R[x3]W[x3]R[x4]W[x4]
		R[x1]W[x2]W[x1]
		R[x3]W[x3]R[x2]R[x3]W[x2]
		R[x5]W[x5]R[x6]W[x6]
		R[x1]W[x1]R[x5]W[x5]R[x1]W[x1]
	`)
	if len(w) != 5 {
		t.Fatalf("parsed %d transactions, want 5", len(w))
	}
	if w[0].Len() != 6 || w[1].Len() != 3 || w[2].Len() != 5 || w[3].Len() != 4 || w[4].Len() != 6 {
		t.Errorf("unexpected op counts: %d %d %d %d %d",
			w[0].Len(), w[1].Len(), w[2].Len(), w[3].Len(), w[4].Len())
	}
	if w.TotalOps() != 24 {
		t.Errorf("TotalOps = %d, want 24", w.TotalOps())
	}
}

func TestParseTableRowNotation(t *testing.T) {
	tx := MustParse(0, "R[3:17]W[3:18]")
	if tx.Ops[0].Key != MakeKey(3, 17) || tx.Ops[1].Key != MakeKey(3, 18) {
		t.Errorf("table:row notation mis-parsed: %v", tx.Ops)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"X[x1]", "R[x1", "Rx1]", "R[y1]", "R[1:2:3]", "R[x]extra["}
	for _, s := range bad {
		if _, err := Parse(0, s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseWhitespaceTolerant(t *testing.T) {
	a := MustParse(0, "R[x1] W[x2]  R[x3]")
	b := MustParse(0, "R[x1]W[x2]R[x3]")
	if !reflect.DeepEqual(a.Ops, b.Ops) {
		t.Errorf("whitespace changes parse: %v vs %v", a.Ops, b.Ops)
	}
}

func TestStringRendering(t *testing.T) {
	tx := MustParse(7, "R[x1]W[x2]")
	if got, want := tx.String(), "T7 = R[0:1] W[0:2]"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestWorkloadByIDAndMaxID(t *testing.T) {
	w := Workload{New(3), New(0), New(7)}
	m := w.ByID()
	if len(m) != 3 || m[7] != w[2] {
		t.Errorf("ByID wrong: %v", m)
	}
	if w.MaxID() != 7 {
		t.Errorf("MaxID = %d, want 7", w.MaxID())
	}
	if (Workload{}).MaxID() != -1 {
		t.Error("empty workload MaxID should be -1")
	}
}

// Property: read/write sets are always sorted, deduplicated, and
// consistent with the op list.
func TestSetsInvariantQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tx := New(0)
		n := r.Intn(30)
		for i := 0; i < n; i++ {
			k := MakeKey(uint16(r.Intn(3)), uint64(r.Intn(10)))
			switch r.Intn(3) {
			case 0:
				tx.R(k)
			case 1:
				tx.W(k)
			default:
				tx.I(k)
			}
		}
		rs, ws := tx.ReadSet(), tx.WriteSet()
		if !sort.SliceIsSorted(rs, func(i, j int) bool { return rs[i] < rs[j] }) {
			return false
		}
		if !sort.SliceIsSorted(ws, func(i, j int) bool { return ws[i] < ws[j] }) {
			return false
		}
		for i := 1; i < len(rs); i++ {
			if rs[i] == rs[i-1] {
				return false
			}
		}
		for i := 1; i < len(ws); i++ {
			if ws[i] == ws[i-1] {
				return false
			}
		}
		// Every op key must appear in the right set, and vice versa.
		for _, op := range tx.Ops {
			if op.Kind == OpRead && !tx.Reads(op.Key) {
				return false
			}
			if op.Kind != OpRead && !tx.Writes(op.Key) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRuntimeKnobsZeroByDefault(t *testing.T) {
	tx := New(0)
	if tx.MinRuntime != 0 || tx.IODelay != 0 {
		t.Error("runtime knobs must default to zero")
	}
	tx.MinRuntime = 3 * time.Millisecond
	tx.IODelay = time.Millisecond
	if tx.MinRuntime != 3*time.Millisecond {
		t.Error("MinRuntime not settable")
	}
}
