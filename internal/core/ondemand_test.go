package core

import (
	"reflect"
	"testing"
	"time"

	"tskd/internal/engine"
	"tskd/internal/estimator"
	"tskd/internal/partition"
	"tskd/internal/workload"
)

// rowsBuilt reads how many conflict-graph rows the pipeline's last
// bundle computed. The count is unexported in package conflict (no
// gauge is exported for it yet), hence the reflection; a renamed field
// panics here rather than passing quietly.
func rowsBuilt(pl *Pipeline) int {
	return int(reflect.ValueOf(&pl.graphs).Elem().FieldByName("g").FieldByName("built").Int())
}

// firstAttempts makes o record, per worker, the transaction IDs in the
// order the worker first attempted them. With TsDEFER off that is the
// worker's queue followed by its share of the residual: the schedule as
// the engine received it.
func firstAttempts(o *Options) [][]int {
	seq := make([][]int, o.Workers)
	o.Defer = &engine.DeferConfig{Lookups: 0}
	o.Hooks = &engine.Hooks{BeforeAttempt: func(worker, id, attempt int) time.Duration {
		if attempt == 0 {
			seq[worker] = append(seq[worker], id)
		}
		return 0
	}}
	return seq
}

// TestPipelineSchedulesLikeEagerGraph pins what building rows on demand
// must not change and what it must: a bundle processed by a Pipeline
// (rows on demand) is scheduled exactly like the same bundle under
// RunTSKD with a fully built graph, while only the rows somebody reads
// are computed — the residual's under Strife, all under Schism (and the
// residual extraction it needs), none in brownout.
func TestPipelineSchedulesLikeEagerGraph(t *testing.T) {
	cfg := workload.YCSB{Records: 5000, Theta: 0.8, Txns: 400, OpsPerTxn: 6, ReadRatio: 0.5, RMW: true, Seed: 5}
	w := cfg.Generate()
	for _, c := range []struct {
		name string
		part func() partition.Partitioner
		rows func(inputResidual int) int
	}{
		{"Strife", func() partition.Partitioner { return partition.NewStrife(3) }, func(r int) int { return r }},
		{"Schism", func() partition.Partitioner { return partition.NewSchism(3) }, func(int) int { return len(w) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := Options{Workers: 4, Protocol: "OCC", Seed: 9}
			lazySeq := firstAttempts(&o)
			pl := NewPipeline(cfg.BuildDB(), c.part(), o)
			lazy, err := pl.Process(w)
			if err != nil {
				t.Fatal(err)
			}

			// The same options as ProcessContext derives for bundle 0,
			// minus the pipeline's Builder.
			eagerSeq := firstAttempts(&o)
			h := estimator.NewHistory()
			h.Fallback = estimator.AccessSetSize{Unit: o.OpTime}
			o.Estimator, o.CostSink = h, h
			eager, err := RunTSKD(cfg.BuildDB(), w, c.part(), o)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(lazySeq, eagerSeq) {
				t.Errorf("queues differ:\non demand %v\neager     %v", lazySeq, eagerSeq)
			}
			if *lazy.SchedStats != *eager.SchedStats || lazy.Makespan != eager.Makespan || lazy.LoadRatio != eager.LoadRatio {
				t.Errorf("schedule differs: on demand %+v makespan %v load %v, eager %+v makespan %v load %v",
					*lazy.SchedStats, lazy.Makespan, lazy.LoadRatio, *eager.SchedStats, eager.Makespan, eager.LoadRatio)
			}
			if lazy.SchedStats.InputResidual == 0 || lazy.SchedStats.InputResidual == len(w) {
				t.Fatalf("degenerate bundle: input residual %d of %d", lazy.SchedStats.InputResidual, len(w))
			}
			if got, want := rowsBuilt(pl), c.rows(lazy.SchedStats.InputResidual); got != want {
				t.Errorf("rows built = %d, want %d (input residual %d of %d)", got, want, lazy.SchedStats.InputResidual, len(w))
			}
		})
	}

	t.Run("brownout", func(t *testing.T) {
		pl := NewPipeline(cfg.BuildDB(), partition.NewStrife(3), Options{Workers: 4, Protocol: "OCC", Seed: 9})
		pl.SetBrownout(true)
		res, err := pl.Process(w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Committed != uint64(len(w)) {
			t.Fatalf("committed %d of %d", res.Committed, len(w))
		}
		if got := rowsBuilt(pl); got != 0 {
			t.Errorf("brownout under Strife built %d rows, want 0: nothing reads the graph", got)
		}
	})
}
