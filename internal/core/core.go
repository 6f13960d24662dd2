// Package core is TSKD itself: the lightweight tool of Fig. 2 that
// sits between the transaction-to-thread assignment module and the
// execution engine, reducing runtime conflicts via scheduling (TsPAR,
// internal/sched) and proactive deferment (TsDEFER,
// internal/deferment).
//
// The package exposes the five deployed instances of Section 6.1 —
// TSKD[S] (over Strife), TSKD[C] (over Schism), TSKD[H] (over
// Horticulture), TSKD[0] (no input partition) and TSKD[CC] (unbundled,
// TsDEFER only) — together with their baselines, so benchmarks compare
// like against like.
package core

import (
	"context"
	"runtime"
	"time"

	"tskd/internal/cc"
	"tskd/internal/conflict"
	"tskd/internal/engine"
	"tskd/internal/estimator"
	"tskd/internal/history"
	"tskd/internal/partition"
	"tskd/internal/sched"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
)

// Options configures a run.
type Options struct {
	// Workers is #core (Table 1 default 20).
	Workers int
	// Protocol names the CC protocol (Table 1 default OCC).
	Protocol string
	// Isolation selects the conflict definition (default
	// serializability, as in all the paper's tests).
	Isolation conflict.Isolation
	// OpTime is the simulated per-operation work.
	OpTime time.Duration
	// Estimator supplies time(T); nil uses AccessSetSize with OpTime
	// as the unit (so the MinRuntime/IODelay knobs are visible to the
	// scheduler).
	Estimator estimator.Estimator
	// Sched configures TSgen.
	Sched sched.Options
	// Defer configures TsDEFER; nil uses the Table 1 defaults when a
	// TSKD instance needs it.
	Defer *engine.DeferConfig
	// Recorder optionally captures commits for serializability checks.
	Recorder *history.Recorder
	// CostSink optionally receives observed execution costs, feeding
	// the history-based estimator across bundles.
	CostSink *estimator.History
	// TraceSpans makes the engine record each commit's virtual-time
	// span (with its retry count) into Result.Spans — the serving layer
	// uses it to report per-transaction outcomes.
	TraceSpans bool
	// Ctx, when non-nil, cancels execution midway (deadlines, server
	// shutdown); abandoned transactions count into Metrics.Canceled.
	Ctx context.Context
	// Hooks, when non-nil, enables the engine's fault-injection points
	// (internal/chaos drives them); leave nil in production runs.
	Hooks *engine.Hooks
	// WAL, when non-nil, makes every commit append its redo record to
	// the log and block until durable (the serving layer's durability
	// path; see engine.Config.WAL).
	WAL *wal.Log
	// Brownout degrades RunTSKD for overload shedding: TsPAR refinement
	// is skipped (the partitioner's plan executes directly, a nil
	// partitioner degenerating to round-robin spread) and deferp is
	// raised, trading schedule quality for lower scheduling latency and
	// more proactive deferment while the serving layer is saturated.
	// Under a Pipeline it also sheds the conflict-graph rows TSgen would
	// have read: only a partitioner that reads the graph still pays for
	// them, and Strife reads none.
	Brownout bool
	// Seed drives all randomized pieces.
	Seed int64

	// graphs, set by Pipeline, indexes each bundle's conflict graph in
	// storage reused from the previous bundle and computes rows as they
	// are read; nil builds a fresh graph with every row computed.
	graphs *conflict.Builder
}

// normalized fills the defaults that every entry point shares: the
// partitioners and TSgen need a concrete #core, so Workers <= 0
// resolves to GOMAXPROCS here (the engine would do the same, but only
// after partitioning).
func (o Options) normalized() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// conflictGraph builds the conflict graph of w. Under a Pipeline the
// graph lives in the pipeline's Builder: its rows are computed when the
// partitioner or TSgen first reads them, so it must stay on the
// goroutine of the Run* call, and it is overwritten by the next bundle,
// so nothing that outlives the call (a Result, a learned cost) may keep
// it or a slice of it. Elsewhere every row is computed here, as the
// paper's overheadR accounting assumes.
func (o Options) conflictGraph(w txn.Workload) *conflict.Graph {
	if o.graphs != nil {
		return o.graphs.Build(w, o.Isolation)
	}
	return conflict.Build(w, o.Isolation)
}

func (o Options) protocol() (cc.Protocol, error) {
	name := o.Protocol
	if name == "" {
		name = "OCC"
	}
	return cc.New(name)
}

func (o Options) estimator() estimator.Estimator {
	if o.Estimator != nil {
		return o.Estimator
	}
	unit := o.OpTime
	if unit <= 0 {
		unit = time.Microsecond
	}
	return estimator.AccessSetSize{Unit: unit}
}

func (o Options) deferCfg() *engine.DeferConfig {
	if o.Defer != nil {
		return o.Defer
	}
	d := engine.DefaultDefer()
	d.DeferP = 0.6
	d.Lookups = 2
	return d
}

// Result is the outcome of a run.
type Result struct {
	engine.Metrics
	// System is the display name of what ran.
	System string
	// SchedStats reports TSgen's merge statistics when scheduling ran.
	SchedStats *sched.Stats
	// LoadRatio is max/min partition (or queue) op-count load.
	LoadRatio float64
	// PartitionTime is the time the partitioner took (including the
	// conflict graph it builds and TSgen reuses). Under a Pipeline the
	// graph's rows are computed by their first reader: under Strife,
	// which reads none, PartitionTime keeps the graph's index and the
	// residual's rows count into SchedTime.
	PartitionTime time.Duration
	// SchedTime is the time TSgen took (the overhead TsPAR adds).
	SchedTime time.Duration
	// Makespan is the analytic makespan of the queues (estimate
	// units), when scheduling ran.
	Makespan float64
}

// OverheadR returns SchedTime / PartitionTime, the paper's overheadR
// metric (Section 6.2, "Overhead").
func (r Result) OverheadR() float64 {
	if r.PartitionTime <= 0 {
		return 0
	}
	return float64(r.SchedTime) / float64(r.PartitionTime)
}

// RunBaseline executes the partitioner's plan directly (no TSKD): the
// CC-free partitions run as thread-local lists, then the residual (if
// the partitioner produces one) spreads over all threads — everything
// under the configured CC protocol.
func RunBaseline(db *storage.DB, w txn.Workload, p partition.Partitioner, o Options) (Result, error) {
	o = o.normalized()
	proto, err := o.protocol()
	if err != nil {
		return Result{}, err
	}
	t0 := time.Now()
	g := o.conflictGraph(w)
	plan := p.Partition(w, g, o.Workers)
	partTime := time.Since(t0)

	phases := []engine.Phase{{PerThread: plan.Parts}}
	if len(plan.Residual) > 0 {
		phases = append(phases, engine.SpreadRoundRobin(plan.Residual, o.Workers))
	}
	m := engine.Run(w, phases, engine.Config{
		Workers: o.Workers, Protocol: proto, DB: db, OpTime: o.OpTime,
		Recorder: o.Recorder, CostSink: o.CostSink, Seed: o.Seed,
		TraceSpans: o.TraceSpans, Ctx: o.Ctx, Hooks: o.Hooks, WAL: o.WAL,
	})
	return Result{
		Metrics: m, System: p.Name(),
		LoadRatio:     plan.LoadRatio(),
		PartitionTime: partTime,
	}, nil
}

// RunTSKD executes a workload through the full TSKD pipeline over the
// given partitioner: partition, extract a residual when the partitioner
// does not produce one (Section 6.1), refine into a schedule with TSgen
// (TsPAR), then execute the RC-free queues and the residual R_s with CC
// and TsDEFER guarding against estimate error — the paper's default
// deployment. A nil partitioner yields TSKD[0]: scheduling from
// scratch.
func RunTSKD(db *storage.DB, w txn.Workload, p partition.Partitioner, o Options) (Result, error) {
	o = o.normalized()
	proto, err := o.protocol()
	if err != nil {
		return Result{}, err
	}
	t0 := time.Now()
	g := o.conflictGraph(w)
	var plan *partition.Plan
	name := "TSKD[0]"
	if p != nil {
		plan = p.Partition(w, g, o.Workers)
		name = "TSKD[" + instanceLetter(p.Name()) + "]"
	} else {
		plan = partition.NewPlan(o.Workers)
		plan.Residual = append(plan.Residual, w...)
	}
	partTime := time.Since(t0)

	if o.Brownout {
		// Brownout: skip TSgen — its refinement latency is the one cost
		// the bundle path can drop without touching correctness — and
		// execute the partitioner's plan directly (round-robin when
		// there is no partitioner) with a raised defer probability, so
		// TsDEFER sidesteps conflicts the skipped schedule would have.
		phases := []engine.Phase{{PerThread: plan.Parts}}
		if len(plan.Residual) > 0 {
			phases = append(phases, engine.SpreadRoundRobin(plan.Residual, o.Workers))
		}
		d := *o.deferCfg()
		d.DeferP = brownoutDeferP(d.DeferP)
		m := engine.Run(w, phases, engine.Config{
			Workers: o.Workers, Protocol: proto, DB: db, OpTime: o.OpTime,
			Defer: &d, Recorder: o.Recorder, CostSink: o.CostSink, Seed: o.Seed,
			TraceSpans: o.TraceSpans, Ctx: o.Ctx, Hooks: o.Hooks, WAL: o.WAL,
		})
		return Result{
			Metrics: m, System: name + "-brownout",
			LoadRatio:     plan.LoadRatio(),
			PartitionTime: partTime,
		}, nil
	}

	t1 := time.Now()
	if p != nil && len(plan.Residual) == 0 {
		// Partitioners without a native residual (Schism,
		// Horticulture): extract one so the CC-free partitions are
		// pairwise conflict-free, as TSgen requires.
		plan = partition.ExtractResidual(plan, g)
	}
	s := sched.Generate(w, plan, g, o.estimator(), o.Sched)
	schedTime := time.Since(t1)

	phases := []engine.Phase{{PerThread: s.Queues}}
	if len(s.Residual) > 0 {
		phases = append(phases, engine.SpreadRoundRobin(s.Residual, o.Workers))
	}
	m := engine.Run(w, phases, engine.Config{
		Workers: o.Workers, Protocol: proto, DB: db, OpTime: o.OpTime,
		Defer: o.deferCfg(), Recorder: o.Recorder, CostSink: o.CostSink, Seed: o.Seed,
		TraceSpans: o.TraceSpans, Ctx: o.Ctx, Hooks: o.Hooks, WAL: o.WAL,
	})
	stats := s.Stats
	return Result{
		Metrics: m, System: name,
		SchedStats:    &stats,
		LoadRatio:     queueLoadRatio(s),
		PartitionTime: partTime,
		SchedTime:     schedTime,
		Makespan:      float64(s.Makespan()),
	}, nil
}

// RunTSKDNoCC executes the schedule the way the paper's introduction
// envisions when estimates are trusted: the RC-free queues run WITHOUT
// concurrency control (protocol NONE), and only the residual runs
// under the configured CC. This retains the full CC-free speedup but
// gives up the safety net — with inaccurate estimates the queue phase
// can produce non-serializable executions, which is exactly why the
// deployed TSKD defaults to CC + TsDEFER (Section 3). Pair it with a
// Recorder to measure how often estimates were good enough.
func RunTSKDNoCC(db *storage.DB, w txn.Workload, p partition.Partitioner, o Options) (Result, error) {
	o = o.normalized()
	proto, err := o.protocol()
	if err != nil {
		return Result{}, err
	}
	t0 := time.Now()
	g := o.conflictGraph(w)
	var plan *partition.Plan
	if p != nil {
		plan = p.Partition(w, g, o.Workers)
		if len(plan.Residual) == 0 {
			plan = partition.ExtractResidual(plan, g)
		}
	} else {
		plan = partition.NewPlan(o.Workers)
		plan.Residual = append(plan.Residual, w...)
	}
	partTime := time.Since(t0)

	t1 := time.Now()
	s := sched.Generate(w, plan, g, o.estimator(), o.Sched)
	schedTime := time.Since(t1)

	// Phase 1: queues without CC.
	m := engine.Run(w, []engine.Phase{{PerThread: s.Queues}}, engine.Config{
		Workers: o.Workers, Protocol: cc.NewNone(), DB: db, OpTime: o.OpTime,
		Recorder: o.Recorder, Seed: o.Seed,
		TraceSpans: o.TraceSpans, Ctx: o.Ctx, Hooks: o.Hooks, WAL: o.WAL,
	})
	// Phase 2: residual with CC (+ TsDEFER).
	if len(s.Residual) > 0 {
		m2 := engine.Run(w, []engine.Phase{engine.SpreadRoundRobin(s.Residual, o.Workers)}, engine.Config{
			Workers: o.Workers, Protocol: proto, DB: db, OpTime: o.OpTime,
			Defer: o.deferCfg(), Recorder: o.Recorder, Seed: o.Seed + 1,
			TraceSpans: o.TraceSpans, Ctx: o.Ctx, Hooks: o.Hooks, WAL: o.WAL,
		})
		m.Add(m2)
	}
	stats := s.Stats
	return Result{
		Metrics: m, System: "TSKD-noCC",
		SchedStats:    &stats,
		LoadRatio:     queueLoadRatio(s),
		PartitionTime: partTime,
		SchedTime:     schedTime,
		Makespan:      float64(s.Makespan()),
	}, nil
}

// RunTsParOnly is the TSKD[x] ablation with TsDEFER disabled
// (Fig. 4j): scheduling only, execution with plain CC.
func RunTsParOnly(db *storage.DB, w txn.Workload, p partition.Partitioner, o Options) (Result, error) {
	o.Defer = &engine.DeferConfig{Lookups: 0}
	r, err := RunTSKD(db, w, p, o)
	r.System = "TsPAR"
	return r, err
}

// RunTsDeferOnly is the ablation with TsPAR disabled (Fig. 4j): the
// partitioner's plan executes directly, but with TsDEFER enabled.
func RunTsDeferOnly(db *storage.DB, w txn.Workload, p partition.Partitioner, o Options) (Result, error) {
	o = o.normalized()
	proto, err := o.protocol()
	if err != nil {
		return Result{}, err
	}
	t0 := time.Now()
	g := o.conflictGraph(w)
	plan := p.Partition(w, g, o.Workers)
	partTime := time.Since(t0)

	phases := []engine.Phase{{PerThread: plan.Parts}}
	if len(plan.Residual) > 0 {
		phases = append(phases, engine.SpreadRoundRobin(plan.Residual, o.Workers))
	}
	m := engine.Run(w, phases, engine.Config{
		Workers: o.Workers, Protocol: proto, DB: db, OpTime: o.OpTime,
		Defer: o.deferCfg(), Recorder: o.Recorder, CostSink: o.CostSink, Seed: o.Seed,
		TraceSpans: o.TraceSpans, Ctx: o.Ctx, Hooks: o.Hooks, WAL: o.WAL,
	})
	return Result{
		Metrics: m, System: "TsDEFER",
		LoadRatio:     plan.LoadRatio(),
		PartitionTime: partTime,
	}, nil
}

// RunCC is DBCC: the engine's default unbundled path — round-robin
// thread-local buffers, plain CC, no TSKD.
func RunCC(db *storage.DB, w txn.Workload, o Options) (Result, error) {
	o = o.normalized()
	proto, err := o.protocol()
	if err != nil {
		return Result{}, err
	}
	m := engine.Run(w, []engine.Phase{engine.SpreadRoundRobin(w, o.Workers)}, engine.Config{
		Workers: o.Workers, Protocol: proto, DB: db, OpTime: o.OpTime,
		Recorder: o.Recorder, CostSink: o.CostSink, Seed: o.Seed,
		TraceSpans: o.TraceSpans, Ctx: o.Ctx, Hooks: o.Hooks, WAL: o.WAL,
	})
	return Result{Metrics: m, System: "DBCC"}, nil
}

// RunTSKDCC is TSKD[CC]: unbundled transactions, round-robin
// assignment, CC plus TsDEFER (Section 6.3).
func RunTSKDCC(db *storage.DB, w txn.Workload, o Options) (Result, error) {
	o = o.normalized()
	proto, err := o.protocol()
	if err != nil {
		return Result{}, err
	}
	m := engine.Run(w, []engine.Phase{engine.SpreadRoundRobin(w, o.Workers)}, engine.Config{
		Workers: o.Workers, Protocol: proto, DB: db, OpTime: o.OpTime,
		Defer: o.deferCfg(), Recorder: o.Recorder, CostSink: o.CostSink, Seed: o.Seed,
		TraceSpans: o.TraceSpans, Ctx: o.Ctx, Hooks: o.Hooks, WAL: o.WAL,
	})
	return Result{Metrics: m, System: "TSKD[CC]"}, nil
}

// brownoutDeferP raises the defer probability for brownout runs,
// capped so deferment cannot livelock a drain.
func brownoutDeferP(p float64) float64 {
	p += 0.3
	if p > 0.95 {
		p = 0.95
	}
	return p
}

// instanceLetter maps a partitioner to the paper's instance letter:
// TSKD[S] = Strife, TSKD[C] = Schism (Curino et al.), TSKD[H] =
// Horticulture.
func instanceLetter(name string) string {
	switch name {
	case "STRIFE":
		return "S"
	case "SCHISM":
		return "C"
	case "HORTICULTURE":
		return "H"
	default:
		return name
	}
}

// queueLoadRatio is max/min queue load in estimate units.
func queueLoadRatio(s *sched.Schedule) float64 {
	minL, maxL := -1.0, 0.0
	for i := range s.Queues {
		l := float64(s.QueueTime(i))
		if l == 0 {
			l = 1
		}
		if minL < 0 || l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if minL <= 0 {
		return 1
	}
	return maxL / minL
}
