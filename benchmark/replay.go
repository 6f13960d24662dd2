package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"tskd/internal/cc"
	"tskd/internal/client"
	"tskd/internal/conflict"
	"tskd/internal/core"
	"tskd/internal/engine"
	"tskd/internal/estimator"
	"tskd/internal/partition"
	"tskd/internal/sched"
	"tskd/internal/shard"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
)

// The replay runs the run's own transactions bundle by bundle, in one
// goroutine, through each layer's public functions in the order
// core.RunTSKD calls them, with one span per call:
//
//	client.AppendRequestFrame   (the client's encode)
//	client.DecodeRequestFrame   (the server's decode)
//	conflict.Build
//	partition.Partition (+ partition.ExtractResidual)
//	sched.Generate
//	engine.Run
//	wal.Append                  (durable only: `workers` appenders)
//	client.AppendResponseBody   (the server's encode)
//	client.DecodeResponseBody   (the client's decode)
//
// and, on an identical copy of the database, the same bundle through
// core.Pipeline.Process under one parent span. The difference between
// the two is trace.replay_gap_share: how faithful the replay is.

// Span names; the pipeline layers are the ones Process also runs.
const (
	spanBundle     = "replay.bundle"
	spanEncodeReq  = "client.AppendRequestFrame"
	spanDecodeReq  = "client.DecodeRequestFrame"
	spanBuild      = "conflict.Build"
	spanPartition  = "partition.Partition"
	spanExtract    = "partition.ExtractResidual"
	spanGenerate   = "sched.Generate"
	spanEngine     = "engine.Run"
	spanWALOpen    = "wal.OpenDir"
	spanWALAppend  = "wal.Append"
	spanEncodeResp = "client.AppendResponseBody"
	spanDecodeResp = "client.DecodeResponseBody"
	spanProcess    = "core.Pipeline.Process"
)

var (
	codecSpans    = []string{spanEncodeReq, spanDecodeReq, spanEncodeResp, spanDecodeResp}
	pipelineSpans = []string{spanBuild, spanPartition, spanExtract, spanGenerate, spanEngine, spanWALAppend}
)

// replayTotals are the counts the replay took at the layer boundaries.
type replayTotals struct {
	Bundles int
	Txns    int // transactions through the codec spans
	Piped   int // transactions through the pipeline layers (cross-shard ones are not)

	Edges           int
	PlanResidual    int
	InputResidual   int
	Merged          int
	SchedResidual   int
	Retries, Defers uint64
	Contended       uint64
	DriftSpans      int
	DriftAbs        time.Duration
	DriftOverlaps   int
	CodecMallocs    uint64
	AppendWaits     []time.Duration
}

// lane is the state one pipeline keeps across bundles: the server has
// one, a sharded runtime one per shard. layerDB is what the layer
// replay executes against; pipe runs Process over an identical copy.
type lane struct {
	layerDB *storage.DB
	part    partition.Partitioner
	hist    *estimator.History
	bundles int
	seed    int64
	pipe    *core.Pipeline
}

func newLane(s spec, seed int64, pipeWAL *wal.Log) *lane {
	gen := s.ycsb()
	h := estimator.NewHistory()
	h.Fallback = estimator.AccessSetSize{} // as core.NewPipeline sets it
	return &lane{
		layerDB: gen.BuildDB(),
		part:    partition.NewStrife(seed),
		hist:    h,
		seed:    seed,
		pipe: core.NewPipeline(gen.BuildDB(), partition.NewStrife(seed),
			core.Options{Workers: workers, Protocol: ccProtocol, Seed: seed, TraceSpans: true, WAL: pipeWAL}),
	}
}

// replayer holds the replay's scratch, reused across bundles the way
// the server's pools reuse theirs.
type replayer struct {
	in     *inputs
	tr     *tracer
	lanes  []*lane
	router shard.Router
	tot    replayTotals

	layerLog *wal.Log // durable only: the wal.Append layer's own log
	pipeLog  *wal.Log // durable only: the log Process appends to
	dirs     []string

	txns     []*txn.Transaction // decode targets, one per bundle slot
	pipeTxns []*txn.Transaction // a second set, for Process
	interner *client.Interner
	opsBuf   []txn.Op
	frameBuf []byte
	bodyBuf  []byte
}

func newReplayer(s spec, seed int64, in *inputs, tr *tracer, dataRoot string) (*replayer, error) {
	r := &replayer{in: in, tr: tr, interner: client.NewInterner(0)}
	if s.Durable {
		for _, dst := range []**wal.Log{&r.layerLog, &r.pipeLog} {
			dir, err := os.MkdirTemp(dataRoot, s.Name+"-replay-")
			if err != nil {
				r.close()
				return nil, err
			}
			r.dirs = append(r.dirs, dir)
			var log *wal.Log
			tr.timed(spanWALOpen, -1, -1, func() {
				log, err = wal.OpenDir(dir, wal.DirOptions{GroupWindow: walGroupWindow})
			})
			if err != nil {
				r.close()
				return nil, err
			}
			*dst = log
		}
	}
	n := max(s.Shards, 1)
	r.router = shard.Router{Shards: n}
	for i := 0; i < n; i++ {
		// Shard i's pipeline seed, as shard.Open decorrelates them.
		r.lanes = append(r.lanes, newLane(s, seed+int64(i)*1_000_003, r.pipeLog))
	}
	return r, nil
}

func (r *replayer) close() {
	for _, l := range []*wal.Log{r.layerLog, r.pipeLog} {
		if l != nil {
			l.Close()
		}
	}
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
}

func (r *replayer) slots(n int) {
	for len(r.txns) < n {
		r.txns = append(r.txns, &txn.Transaction{})
		r.pipeTxns = append(r.pipeTxns, &txn.Transaction{})
	}
}

// bundle replays pool entries [first, first+n) as bundle number b.
func (r *replayer) bundle(b, first, n int) error {
	r.slots(n)
	pool := len(r.in.Reqs)
	root := r.tr.begin(spanBundle, -1, b)
	var err error

	m0 := mallocs()
	r.tr.timed(spanEncodeReq, root, b, func() {
		for j := 0; j < n && err == nil; j++ {
			req := r.in.Reqs[(first+j)%pool]
			req.Seq = uint64(j)
			if r.opsBuf, err = txn.ParseOps(r.opsBuf[:0], req.Ops); err == nil {
				r.frameBuf, err = client.AppendRequestFrame(r.frameBuf[:0], &req, r.opsBuf)
			}
		}
	})
	r.tr.timed(spanDecodeReq, root, b, func() {
		var req client.Request
		for j := 0; j < n && err == nil; j++ {
			err = client.DecodeRequestFrame(r.in.Frames[(first+j)%pool][4:], &req, r.txns[j], r.interner)
		}
	})
	codecMallocs := mallocs() - m0
	if err != nil {
		return err
	}

	// Route: unsharded, everything is lane 0's; sharded, single-shard
	// transactions go to their shard's lane and cross-shard ones to the
	// coordinator, which no pipeline layer sees.
	perLane := make([]txn.Workload, len(r.lanes))
	var parts []int
	for j := 0; j < n; j++ {
		t := r.txns[j]
		if parts = r.router.Participants(t, parts[:0]); len(parts) == 1 {
			perLane[parts[0]] = append(perLane[parts[0]], t)
		}
	}
	var resps []client.Response
	for i, w := range perLane {
		if len(w) == 0 {
			continue
		}
		for id, t := range w {
			t.ID = id
		}
		spans, err := r.layers(r.lanes[i], w, root, b)
		if err != nil {
			return err
		}
		for _, sp := range spans {
			resps = append(resps, client.Response{
				Seq: uint64(sp.TxnID), Status: client.StatusCommit, Retries: sp.Retries,
				QueueUS: 1500, ExecUS: (sp.End - sp.Start).Microseconds(), Bundle: b,
			})
		}
		r.tot.Piped += len(w)
	}

	m0 = mallocs()
	r.tr.timed(spanEncodeResp, root, b, func() {
		r.bodyBuf = r.bodyBuf[:0]
		for i := range resps {
			r.bodyBuf = client.AppendResponseBody(r.bodyBuf, &resps[i])
		}
	})
	r.tr.timed(spanDecodeResp, root, b, func() {
		var resp client.Response
		for rest := r.bodyBuf; len(rest) > 0 && err == nil; {
			rest, err = client.DecodeResponseBody(rest, &resp)
		}
	})
	r.tot.CodecMallocs += codecMallocs + mallocs() - m0
	r.tr.end(root)
	if err != nil {
		return err
	}

	// The same bundle through core.Pipeline.Process, on the identical
	// copy, with its own decoded transactions (decoded outside the span:
	// Process does not decode).
	var req client.Request
	pipeLane := make([]txn.Workload, len(r.lanes))
	for j := 0; j < n; j++ {
		t := r.pipeTxns[j]
		if err := client.DecodeRequestFrame(r.in.Frames[(first+j)%pool][4:], &req, t, r.interner); err != nil {
			return err
		}
		if parts = r.router.Participants(t, parts[:0]); len(parts) == 1 {
			t.ID = len(pipeLane[parts[0]])
			pipeLane[parts[0]] = append(pipeLane[parts[0]], t)
		}
	}
	for i, w := range pipeLane {
		if len(w) == 0 {
			continue
		}
		id := r.tr.begin(spanProcess, -1, b)
		_, err := r.lanes[i].pipe.Process(w)
		r.tr.end(id)
		if err != nil {
			return err
		}
	}
	r.tot.Bundles++
	r.tot.Txns += n
	return nil
}

// layers runs one lane's bundle through the pipeline layers, as
// core.RunTSKD does, and returns the engine's commit spans.
func (r *replayer) layers(ln *lane, w txn.Workload, root, b int) ([]engine.ExecSpan, error) {
	proto, err := cc.New(ccProtocol)
	if err != nil {
		return nil, err
	}
	tr := r.tr
	var g *conflict.Graph
	tr.timed(spanBuild, root, b, func() { g = conflict.Build(w, conflict.Serializability) })
	var plan *partition.Plan
	tr.timed(spanPartition, root, b, func() { plan = ln.part.Partition(w, g, workers) })
	r.tot.Edges += g.Edges()
	r.tot.PlanResidual += len(plan.Residual)
	if len(plan.Residual) == 0 {
		tr.timed(spanExtract, root, b, func() { plan = partition.ExtractResidual(plan, g) })
	}
	var s *sched.Schedule
	tr.timed(spanGenerate, root, b, func() { s = sched.Generate(w, plan, g, ln.hist, sched.Options{}) })
	r.tot.InputResidual += s.Stats.InputResidual
	r.tot.Merged += s.Stats.Merged
	r.tot.SchedResidual += len(s.Residual)

	phases := []engine.Phase{{PerThread: s.Queues}}
	if len(s.Residual) > 0 {
		phases = append(phases, engine.SpreadRoundRobin(s.Residual, workers))
	}
	d := engine.DefaultDefer() // core's deployment defaults
	d.DeferP, d.Lookups = 0.6, 2
	var m engine.Metrics
	tr.timed(spanEngine, root, b, func() {
		m = engine.Run(w, phases, engine.Config{
			Workers: workers, Protocol: proto, DB: ln.layerDB, Defer: d,
			CostSink: ln.hist, Seed: ln.seed + int64(ln.bundles)*7919, TraceSpans: true,
		})
	})
	ln.bundles++
	r.tot.Retries += m.Retries
	r.tot.Defers += m.Defers
	r.tot.Contended += m.Contended
	drift := engine.Drift(s, m.Spans, 0)
	r.tot.DriftSpans += drift.Spans
	r.tot.DriftAbs += drift.MeanAbs * time.Duration(drift.Spans)
	r.tot.DriftOverlaps += drift.Overlaps

	if r.layerLog != nil {
		tr.timed(spanWALAppend, root, b, func() { err = r.appendAll(ln.layerDB, w, m.Spans) })
		if err != nil {
			return nil, err
		}
	}
	return m.Spans, nil
}

// appendAll logs the bundle's commits the way the engine's workers do:
// each worker appends the redo records of the transactions it ran, one
// at a time, blocking on each group flush.
func (r *replayer) appendAll(db *storage.DB, w txn.Workload, spans []engine.ExecSpan) error {
	perWorker := make([][]wal.Record, workers)
	for _, sp := range spans {
		t := w[sp.TxnID]
		var ups []wal.Update
		for _, k := range t.WriteSet() {
			if row := db.Resolve(k); row != nil {
				ups = append(ups, wal.Update{Key: uint64(k), Ver: storage.VerNumber(row.Ver.Load()), Fields: row.Load().Fields})
			}
		}
		if len(ups) > 0 { // a read-only commit logs nothing
			wk := sp.Worker % workers
			perWorker[wk] = append(perWorker[wk], wal.Record{TxnID: int64(t.ID), Writes: ups})
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for _, recs := range perWorker {
		wg.Add(1)
		go func(recs []wal.Record) {
			defer wg.Done()
			waits := make([]time.Duration, 0, len(recs))
			for _, rec := range recs {
				t0 := time.Now()
				err := r.layerLog.Append(rec)
				waits = append(waits, time.Since(t0))
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			r.tot.AppendWaits = append(r.tot.AppendWaits, waits...)
			mu.Unlock()
		}(recs)
	}
	wg.Wait()
	return first
}

// maxReplayBundles bounds the replay, and with it the trace file, when
// bundles are tiny (a shard unit's hold a handful of transactions).
const maxReplayBundles = 2000

// run replays bundles of n transactions until the budget is spent (at
// least two, so the history estimator is used warm as well as cold).
func (r *replayer) run(n int, budget time.Duration) error {
	start := time.Now()
	for b := 0; b < 2 || (time.Since(start) < budget && b < maxReplayBundles); b++ {
		if err := r.bundle(b, b*n, n); err != nil {
			return fmt.Errorf("replay bundle %d: %w", b, err)
		}
	}
	return nil
}
