package conflict_test

import (
	"testing"

	"tskd/internal/conflict"
	"tskd/internal/partition"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

// servedBundles are the bundle shapes the repository benchmark serves
// (benchmark/workloads.go): sched-hot seals ~754 16-op RMW transactions
// on 1k hot records, wire-readmostly 512 two-op ones on 100k records.
var servedBundles = []struct {
	name string
	ycsb workload.YCSB
}{
	{"sched-hot", workload.YCSB{Records: 1_000, Theta: 0.99, Txns: 754, OpsPerTxn: 16, ReadRatio: 0.5, RMW: true, Seed: 1}},
	{"wire-readmostly", workload.YCSB{Records: 100_000, Theta: 0.01, Txns: 512, OpsPerTxn: 2, ReadRatio: 0.95, RMW: true, Seed: 1}},
}

func generate(y workload.YCSB) txn.Workload {
	w := y.Generate()
	for _, t := range w {
		t.ReadSet() // access sets are computed at decode time when serving
	}
	return w
}

// residualIDs returns the IDs Strife leaves in the residual of w: the
// rows TSgen reads on the serving path (a quarter of sched-hot, none of
// wire-readmostly).
func residualIDs(w txn.Workload) []int {
	plan := partition.NewStrife(1).Partition(w, nil, 2) // the benchmark serves with 2 workers
	ids := make([]int, len(plan.Residual))
	for i, t := range plan.Residual {
		ids[i] = t.ID
	}
	return ids
}

var sinkEdges int

// BenchmarkConflictBuild measures one graph per bundle on a Builder
// that has seen the shape before, as core.Pipeline runs it: rows=all
// reads every row (what Schism costs, and every consumer before rows
// were built on demand), rows=residual only Strife's residual.
func BenchmarkConflictBuild(b *testing.B) {
	for _, s := range servedBundles {
		w := generate(s.ycsb)
		b.Run(s.name+"/rows=all", func(b *testing.B) {
			var bld conflict.Builder
			bld.Build(w, conflict.Serializability).Edges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkEdges = bld.Build(w, conflict.Serializability).Edges()
			}
			b.ReportMetric(float64(sinkEdges)/float64(len(w)), "edges/txn")
		})
		b.Run(s.name+"/rows=residual", func(b *testing.B) {
			ids := residualIDs(w)
			var bld conflict.Builder
			bld.Build(w, conflict.Serializability)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := bld.Build(w, conflict.Serializability)
				for _, id := range ids {
					sinkEdges += len(g.Neighbors(id))
				}
			}
			b.ReportMetric(float64(len(ids))/float64(len(w)), "rows/txn")
		})
	}
}

// TestBuilderAllocBudget gates the point of the Builder: once it has
// sized its buffers for a bundle shape, building and reading rows —
// all of them, or a quarter as TSgen does — allocates nothing.
func TestBuilderAllocBudget(t *testing.T) {
	for _, s := range servedBundles {
		w := generate(s.ycsb)
		var bld conflict.Builder
		bld.Build(w, conflict.Serializability) // warm-up sizes the buffers
		if n := testing.AllocsPerRun(20, func() {
			sinkEdges = bld.Build(w, conflict.Serializability).Edges()
		}); n > 0 {
			t.Errorf("%s: warmed Builder.Build + every row allocs/op = %v, budget 0", s.name, n)
		}
		if n := testing.AllocsPerRun(20, func() {
			g := bld.Build(w, conflict.Serializability)
			for id := 0; id < len(w); id += 4 {
				sinkEdges += len(g.Weights(id)) + g.Degree(id)
			}
		}); n > 0 {
			t.Errorf("%s: warmed Builder.Build + a quarter of the rows allocs/op = %v, budget 0", s.name, n)
		}
	}
}
