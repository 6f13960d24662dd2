package conflict_test

import (
	"testing"

	"tskd/internal/conflict"
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

var sinkEdges int

// BenchmarkConflictBuild measures one graph build per bundle on a
// Builder that has seen the shape before, as core.Pipeline runs it.
func BenchmarkConflictBuild(b *testing.B) {
	for _, s := range servedBundles {
		b.Run(s.name, func(b *testing.B) {
			w := generate(s.ycsb)
			var bld conflict.Builder
			bld.Build(w, conflict.Serializability)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkEdges = bld.Build(w, conflict.Serializability).Edges()
			}
			b.ReportMetric(float64(sinkEdges)/float64(len(w)), "edges/txn")
		})
	}
}

// TestBuilderAllocBudget gates the point of the Builder: once it has
// sized its buffers for a bundle shape, building allocates nothing.
func TestBuilderAllocBudget(t *testing.T) {
	for _, s := range servedBundles {
		w := generate(s.ycsb)
		var bld conflict.Builder
		bld.Build(w, conflict.Serializability) // warm-up sizes the buffers
		if n := testing.AllocsPerRun(20, func() {
			sinkEdges = bld.Build(w, conflict.Serializability).Edges()
		}); n > 0 {
			t.Errorf("%s: warmed Builder.Build allocs/op = %v, budget 0", s.name, n)
		}
	}
}
