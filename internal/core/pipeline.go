package core

import (
	"context"

	"tskd/internal/conflict"
	"tskd/internal/estimator"
	"tskd/internal/partition"
	"tskd/internal/storage"
	"tskd/internal/txn"
)

// Pipeline processes a stream of bundles the way a deployed TSKD would
// (Section 3): each bundle is partitioned and scheduled using cost
// estimates learned from the execution history of earlier bundles,
// then executed; its observed per-transaction costs feed the history
// for the next bundle. The first bundle falls back to access-set-size
// estimates (the paper's cold-start fallback).
type Pipeline struct {
	// DB is the shared database.
	DB *storage.DB
	// Partitioner splits each bundle; nil schedules from scratch
	// (TSKD[0]).
	Partitioner partition.Partitioner
	// Opts configures each run; Estimator and CostSink are managed by
	// the pipeline and must be left nil.
	Opts Options

	history  *estimator.History
	graphs   conflict.Builder // conflict-graph index and rows, reused bundle after bundle
	bundles  int
	brownout bool
}

// NewPipeline returns a pipeline over db.
func NewPipeline(db *storage.DB, p partition.Partitioner, opts Options) *Pipeline {
	h := estimator.NewHistory()
	unit := opts.OpTime
	h.Fallback = estimator.AccessSetSize{Unit: unit}
	return &Pipeline{DB: db, Partitioner: p, Opts: opts, history: h}
}

// Bundles returns the number of bundles processed.
func (pl *Pipeline) Bundles() int { return pl.bundles }

// HistorySize returns the number of exact cost records learned so far.
func (pl *Pipeline) HistorySize() int { return pl.history.Len() }

// SetBrownout toggles degraded processing for subsequent bundles (see
// Options.Brownout). Call it from the same goroutine that calls
// Process — the serving layer's bundler — between bundles.
func (pl *Pipeline) SetBrownout(on bool) { pl.brownout = on }

// Process schedules and executes one bundle, learning its costs. The
// bundle's conflict graph is indexed in the pipeline's own storage and
// its rows are computed as the partitioner and TSgen read them, so the
// bundle pays for the rows of its residual, not for all of them. The
// graph lives for this call only: the next Process overwrites it, so
// like SetBrownout, Process must not be called concurrently.
func (pl *Pipeline) Process(w txn.Workload) (Result, error) {
	return pl.ProcessContext(context.Background(), w)
}

// ProcessContext is Process under a context: cancellation (a deadline,
// or a serving drain turning into a hard stop) abandons the rest of
// the bundle's execution — abandoned transactions are reported in
// Result.Canceled and their costs are not learned.
func (pl *Pipeline) ProcessContext(ctx context.Context, w txn.Workload) (Result, error) {
	o := pl.Opts
	o.Ctx = ctx
	o.Estimator = pl.history
	o.CostSink = pl.history
	o.Seed = pl.Opts.Seed + int64(pl.bundles)*7919
	o.Brownout = pl.brownout
	o.graphs = &pl.graphs
	res, err := RunTSKD(pl.DB, w, pl.Partitioner, o)
	if err != nil {
		return Result{}, err
	}
	pl.bundles++
	return res, nil
}
