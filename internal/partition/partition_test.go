package partition

import (
	"math/rand"
	"slices"
	"testing"

	"tskd/internal/conflict"
	"tskd/internal/txn"
	"tskd/internal/zipf"
)

// synthetic builds a workload of n transactions with zipfian key access
// over nKeys items, opsPer ops each.
func synthetic(n, nKeys, opsPer int, theta float64, seed int64) txn.Workload {
	g := zipf.New(uint64(nKeys), theta, seed)
	w := make(txn.Workload, n)
	for i := range w {
		t := txn.New(i)
		for j := 0; j < opsPer; j++ {
			k := txn.MakeKey(0, g.Next())
			if j%2 == 0 {
				t.R(k)
			} else {
				t.W(k)
			}
		}
		w[i] = t
	}
	return w
}

// clustered builds a workload whose transactions fall into `clusters`
// disjoint key groups — an easy case a good partitioner must get right.
func clustered(n, clusters, opsPer int, seed int64) txn.Workload {
	rng := rand.New(rand.NewSource(seed))
	w := make(txn.Workload, n)
	for i := range w {
		c := uint64(i % clusters)
		t := txn.New(i)
		for j := 0; j < opsPer; j++ {
			k := txn.MakeKey(0, c*1000+uint64(rng.Intn(50)))
			if j%2 == 0 {
				t.R(k)
			} else {
				t.W(k)
			}
		}
		w[i] = t
	}
	return w
}

func cutEdges(p *Plan, g *conflict.Graph) int {
	where := make(map[int]int)
	for i, part := range p.Parts {
		for _, t := range part {
			where[t.ID] = i
		}
	}
	cut := 0
	for i, part := range p.Parts {
		for _, t := range part {
			for _, n := range g.Neighbors(t.ID) {
				if j, ok := where[int(n)]; ok && j != i && t.ID < int(n) {
					cut++
				}
			}
		}
	}
	return cut
}

func TestPlanValidate(t *testing.T) {
	w := txn.MustParseWorkload(`
		W[x1]
		W[x2]
		W[x1]
	`)
	g := conflict.Build(w, conflict.Serializability)
	good := NewPlan(2)
	good.Parts[0] = []*txn.Transaction{w[0], w[2]}
	good.Parts[1] = []*txn.Transaction{w[1]}
	if err := good.Validate(w, g); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	// Cross-partition conflict.
	bad := NewPlan(2)
	bad.Parts[0] = []*txn.Transaction{w[0]}
	bad.Parts[1] = []*txn.Transaction{w[1], w[2]}
	if err := bad.Validate(w, g); err == nil {
		t.Error("cross-partition conflict not detected")
	}
	// Missing transaction.
	missing := NewPlan(2)
	missing.Parts[0] = []*txn.Transaction{w[0]}
	if err := missing.Validate(w, g); err == nil {
		t.Error("missing transaction not detected")
	}
	// Duplicate.
	dup := NewPlan(2)
	dup.Parts[0] = []*txn.Transaction{w[0], w[0], w[1]}
	dup.Residual = []*txn.Transaction{w[2]}
	if err := dup.Validate(w, g); err == nil {
		t.Error("duplicate transaction not detected")
	}
	// Residual conflicts are allowed.
	res := NewPlan(2)
	res.Parts[1] = []*txn.Transaction{w[1]}
	res.Residual = []*txn.Transaction{w[0], w[2]}
	if err := res.Validate(w, g); err != nil {
		t.Errorf("plan with conflicting residual rejected: %v", err)
	}
}

func TestExtractResidual(t *testing.T) {
	w := txn.MustParseWorkload(`
		W[x1]
		W[x1]
		W[x2]
		W[x3]
	`)
	g := conflict.Build(w, conflict.Serializability)
	p := NewPlan(2)
	p.Parts[0] = []*txn.Transaction{w[0], w[2]}
	p.Parts[1] = []*txn.Transaction{w[1], w[3]}
	out := ExtractResidual(p, g)
	if err := out.Validate(w, g); err != nil {
		t.Fatalf("extracted plan invalid: %v", err)
	}
	if len(out.Residual) != 2 {
		t.Errorf("residual size = %d, want 2 (both x1 writers)", len(out.Residual))
	}
	if out.Size() != 4 {
		t.Errorf("Size = %d, want 4", out.Size())
	}
}

func TestStrifeValidPlan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		w := synthetic(500, 200, 8, 0.8, seed)
		g := conflict.Build(w, conflict.Serializability)
		p := NewStrife(seed).Partition(w, g, 4)
		if err := p.Validate(w, g); err != nil {
			t.Errorf("seed %d: Strife plan invalid: %v", seed, err)
		}
	}
}

func TestStrifeClusteredWorkload(t *testing.T) {
	// Four disjoint clusters over four threads: Strife should place
	// nearly everything in partitions, residual near zero.
	w := clustered(400, 4, 6, 1)
	g := conflict.Build(w, conflict.Serializability)
	p := NewStrife(1).Partition(w, g, 4)
	if err := p.Validate(w, g); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(p.Residual) > len(w)/10 {
		t.Errorf("residual %d too large for a perfectly clusterable workload", len(p.Residual))
	}
}

func TestStrifeEmptyWorkload(t *testing.T) {
	p := NewStrife(1).Partition(nil, conflict.Build(nil, conflict.Serializability), 3)
	if p.Size() != 0 || p.K() != 3 {
		t.Error("empty workload mishandled")
	}
}

func TestSchismCoversAndCuts(t *testing.T) {
	w := clustered(400, 4, 6, 2)
	g := conflict.Build(w, conflict.Serializability)
	p := NewSchism(2).Partition(w, g, 4)
	// Schism has no residual; everything must be in the parts.
	if p.Size() != len(w) || len(p.Residual) != 0 {
		t.Fatalf("Size = %d residual = %d", p.Size(), len(p.Residual))
	}
	// On a perfectly clusterable workload the cut should be near zero
	// and far below random assignment's cut.
	rp := Random{Seed: 9}.Partition(w, g, 4)
	sc, rc := cutEdges(p, g), cutEdges(rp, g)
	if sc*4 > rc {
		t.Errorf("schism cut %d not well below random cut %d", sc, rc)
	}
	// After residual extraction the plan must validate.
	if err := ExtractResidual(p, g).Validate(w, g); err != nil {
		t.Errorf("extracted schism plan invalid: %v", err)
	}
}

func TestSchismBalance(t *testing.T) {
	w := synthetic(800, 400, 8, 0.8, 3)
	g := conflict.Build(w, conflict.Serializability)
	p := NewSchism(3).Partition(w, g, 4)
	// A fixed seed gives one plan (TestSchismDeterministic); this one's
	// ratio is 2.79. The limit is not a property of every seed: the
	// 25% capacity slack bounds the heaviest part only, and seed 7
	// leaves the lightest at a quarter of it (4.03).
	if r := p.LoadRatio(); r > 3.0 {
		t.Errorf("load ratio %.2f too imbalanced", r)
	}
}

// TestSchismDeterministic checks that the plan depends on the input and
// the seed alone: heavy-edge matching breaks weight ties by neighbor
// order, which used to be Go's map iteration order.
func TestSchismDeterministic(t *testing.T) {
	w := synthetic(800, 400, 8, 0.8, 3)
	g := conflict.Build(w, conflict.Serializability)
	want := NewSchism(3).Partition(w, g, 4)
	for run := 0; run < 5; run++ {
		got := NewSchism(3).Partition(w, g, 4)
		for i := range want.Parts {
			if !slices.Equal(got.Parts[i], want.Parts[i]) {
				t.Fatalf("run %d: part %d differs from the first run's (%d vs %d transactions)",
					run, i, len(got.Parts[i]), len(want.Parts[i]))
			}
		}
	}
}

func TestHorticultureGroupsByHomeAttribute(t *testing.T) {
	w := make(txn.Workload, 100)
	for i := range w {
		t := txn.New(i).W(txn.MakeKey(0, uint64(i)))
		t.Template = "Payment"
		t.Params = []uint64{uint64(i % 8)} // 8 home warehouses
		w[i] = t
	}
	g := conflict.Build(w, conflict.Serializability)
	p := NewHorticulture().Partition(w, g, 4)
	if p.Size() != len(w) {
		t.Fatalf("Size = %d", p.Size())
	}
	// All transactions of the same warehouse must share a partition.
	seen := make(map[uint64]int)
	for i, part := range p.Parts {
		for _, tx := range part {
			if prev, ok := seen[tx.Params[0]]; ok && prev != i {
				t.Fatalf("warehouse %d split across partitions %d and %d", tx.Params[0], prev, i)
			}
			seen[tx.Params[0]] = i
		}
	}
}

func TestHorticultureYCSBBuckets(t *testing.T) {
	// No params: falls back to key-range buckets.
	w := synthetic(200, 100, 4, 0.8, 4)
	g := conflict.Build(w, conflict.Serializability)
	p := NewHorticulture().Partition(w, g, 4)
	if p.Size() != len(w) {
		t.Fatalf("Size = %d", p.Size())
	}
	if err := ExtractResidual(p, g).Validate(w, g); err != nil {
		t.Errorf("extracted horticulture plan invalid: %v", err)
	}
}

func TestRoundRobinAndRandom(t *testing.T) {
	w := synthetic(100, 50, 4, 0.8, 5)
	g := conflict.Build(w, conflict.Serializability)
	rr := RoundRobin{}.Partition(w, g, 4)
	if rr.Size() != 100 {
		t.Error("round robin dropped transactions")
	}
	for i, part := range rr.Parts {
		if len(part) != 25 {
			t.Errorf("partition %d has %d, want 25", i, len(part))
		}
	}
	rd := Random{Seed: 1}.Partition(w, g, 4)
	if rd.Size() != 100 {
		t.Error("random dropped transactions")
	}
	// Determinism per seed.
	rd2 := Random{Seed: 1}.Partition(w, g, 4)
	for i := range rd.Parts {
		if len(rd.Parts[i]) != len(rd2.Parts[i]) {
			t.Error("random not deterministic per seed")
		}
	}
}

func TestAllResidual(t *testing.T) {
	w := synthetic(50, 20, 4, 0.8, 6)
	g := conflict.Build(w, conflict.Serializability)
	p := AllResidual{}.Partition(w, g, 4)
	if len(p.Residual) != 50 || p.Size() != 50 {
		t.Error("AllResidual wrong")
	}
	if err := p.Validate(w, g); err != nil {
		t.Errorf("AllResidual invalid: %v", err)
	}
}

func TestLoadRatio(t *testing.T) {
	w := txn.MustParseWorkload(`
		W[x1]W[x1]W[x1]W[x1]
		W[x2]
	`)
	p := NewPlan(2)
	p.Parts[0] = []*txn.Transaction{w[0]}
	p.Parts[1] = []*txn.Transaction{w[1]}
	if r := p.LoadRatio(); r != 4 {
		t.Errorf("LoadRatio = %v, want 4", r)
	}
	empty := NewPlan(2)
	if r := empty.LoadRatio(); r != 1 {
		t.Errorf("empty LoadRatio = %v, want 1", r)
	}
}

func TestPartitionerNames(t *testing.T) {
	cases := map[string]Partitioner{
		"STRIFE":       NewStrife(1),
		"SCHISM":       NewSchism(1),
		"HORTICULTURE": NewHorticulture(),
		"ROUND_ROBIN":  RoundRobin{},
		"RANDOM":       Random{},
		"NONE":         AllResidual{},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name = %q, want %q", p.Name(), want)
		}
	}
}
