package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/durable"
	"tskd/internal/engine"
	"tskd/internal/history"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
)

// unit.go: one shard's execution loop. A single goroutine owns the
// shard's store: it alternates between running TsPAR bundles of
// single-shard transactions through the shard's core.Pipeline and
// servicing 2PC participant operations (prepare sub-plans, install or
// discard decisions) from the coordinator goroutines. Because both
// happen on the same goroutine, a prepare always executes against a
// quiescent store — no bundle is mid-flight — and never races a local
// transaction.

// ShardStats are one shard's counters.
type ShardStats struct {
	Shard int `json:"shard"`
	// Admission and bundle outcomes (mirroring the serving layer).
	Admitted   uint64 `json:"admitted"`
	Rejected   uint64 `json:"rejected"`
	Bundles    uint64 `json:"bundles"`
	Committed  uint64 `json:"committed"`
	Retries    uint64 `json:"retries"`
	Defers     uint64 `json:"defers"`
	UserAborts uint64 `json:"user_aborts"`
	Canceled   uint64 `json:"canceled"`
	Expired    uint64 `json:"expired"`
	Contended  uint64 `json:"contended"`
	// Parked counts local transactions deferred because they overlapped
	// an in-doubt prepare's keys.
	Parked uint64 `json:"parked"`
	// 2PC participant counters: yes-votes, no-votes, and decisions
	// installed or discarded on this shard.
	CrossPrepared  uint64 `json:"cross_prepared"`
	CrossVotedNo   uint64 `json:"cross_voted_no"`
	CrossCommitted uint64 `json:"cross_committed"`
	CrossAborted   uint64 `json:"cross_aborted"`
	// InDoubt is the shard's current prepared-undecided count (gauge).
	InDoubt int `json:"in_doubt"`
	// Durability counters (zero when not durable).
	WALRecords        uint64 `json:"wal_records"`
	WALFlushes        uint64 `json:"wal_flushes"`
	WALSyncs          uint64 `json:"wal_syncs"`
	WALBytes          int64  `json:"wal_bytes"`
	Checkpoints       uint64 `json:"checkpoints"`
	CheckpointErrors  uint64 `json:"checkpoint_errors"`
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn"`
	TruncatedSegments uint64 `json:"truncated_segments"`
	// Dedup window counters.
	DedupHits     uint64 `json:"dedup_hits"`
	DedupInflight uint64 `json:"dedup_inflight"`
	DedupSize     int    `json:"dedup_size"`
	// QueueDepth is the admission queue's current occupancy (gauge).
	QueueDepth int `json:"queue_depth"`
}

// task is one admitted single-shard transaction awaiting its bundle.
type task struct {
	t        *txn.Transaction
	r        Replier
	enqueued time.Time
}

type opKind uint8

const (
	opPrepare opKind = iota
	opDecide
)

// vote is a participant's prepare reply. A yes carries the in-doubt
// entry: the unit does not touch it again before the decision arrives,
// so the coordinator may read it until it sends one.
type vote struct {
	shard int
	yes   bool
	e     *indoubtTxn
}

// shardOp is a 2PC participant operation sent to a shard's loop.
type shardOp struct {
	kind   opKind
	gid    uint64
	ops    []txn.Op        // prepare: this shard's sub-plan
	votes  chan<- vote     // prepare: reply channel (buffered by sender)
	commit bool            // decide: install (true) or discard
	wg     *sync.WaitGroup // decide: Done once applied
}

// indoubtTxn is a prepared-undecided transaction on this shard: the
// staged redo images and every key it quiesces. reads, filled only
// under a history recorder, are the versions those keys had at prepare.
type indoubtTxn struct {
	writes []wal.Update
	keys   []txn.Key
	reads  []history.Obs
}

type unit struct {
	id       int
	rt       *Runtime
	db       *storage.DB
	pipeline *core.Pipeline
	log      *wal.Log              // nil when not durable
	ckpt     *durable.Checkpointer // nil when not durable
	dedup    *durable.Window

	in  chan *task
	ops chan *shardOp

	// Loop-owned state (no locks needed).
	indoubt  map[uint64]*indoubtTxn
	keyDoubt map[txn.Key]uint64 // quiesced key -> owning gid
	// Prepare scratch: stageSub's key index, and resolved in-doubt
	// entries whose slices (redo field arrays included) the next
	// prepares fill again.
	stageIdx  map[txn.Key]int
	freeDoubt []*indoubtTxn
	parked    []*task
	batch     []*task
	work      txn.Workload
	spans     []engine.ExecSpan
	haveSpan  []bool

	indoubtN atomic.Int64

	mu    sync.Mutex
	stats ShardStats
}

func (u *unit) count(f func(*ShardStats)) {
	u.mu.Lock()
	f(&u.stats)
	u.mu.Unlock()
}

func (u *unit) snapshot() ShardStats {
	u.mu.Lock()
	s := u.stats
	u.mu.Unlock()
	s.InDoubt = int(u.indoubtN.Load())
	s.QueueDepth = len(u.in)
	s.DedupSize = u.dedup.Size()
	if u.log != nil {
		s.WALRecords, s.WALFlushes, s.WALSyncs = u.log.Counters()
		s.WALBytes = u.log.AppendedBytes()
	}
	return s
}

// run is the shard loop: service participant operations immediately,
// collect admitted transactions into bundles, drain on shutdown.
func (u *unit) run() {
	defer u.rt.unitWG.Done()
	for {
		select {
		case op := <-u.ops:
			u.handleOp(op)
			if u.anyParkedReady() {
				u.collect(nil) // a decision freed parked work: run it
			}
		case t := <-u.in:
			u.collect(t)
		case <-u.rt.drainCh:
			u.finalDrain()
			return
		}
	}
}

// collect gathers a bundle — first (may be nil) plus whatever arrives
// until the bundle target or the flush interval — servicing participant
// operations as they come, then executes it.
func (u *unit) collect(first *task) {
	batch := u.batch[:0]
	if first != nil {
		batch = append(batch, first)
	}
	batch = u.unparkReady(batch)
	timer := time.NewTimer(u.rt.cfg.FlushInterval)
collect:
	for len(batch) < u.rt.cfg.Bundle {
		select {
		case t := <-u.in:
			batch = append(batch, t)
		case op := <-u.ops:
			u.handleOp(op)
			batch = u.unparkReady(batch)
		case <-timer.C:
			break collect
		case <-u.rt.drainCh:
			break collect
		}
	}
	timer.Stop()
	u.batch = batch
	u.runBundle(batch)
	u.maybeCheckpoint()
}

// finalDrain empties the operation channel (all coordinators have
// finished by the time drainCh closes, so every decision is already
// queued), then flushes remaining admitted transactions in bundles.
func (u *unit) finalDrain() {
	for {
		select {
		case op := <-u.ops:
			u.handleOp(op)
			continue
		default:
		}
		break
	}
	batch := u.batch[:0]
	batch = u.unparkReady(batch)
	for {
		select {
		case t := <-u.in:
			batch = append(batch, t)
			if len(batch) >= u.rt.cfg.Bundle {
				u.runBundle(batch)
				batch = batch[:0]
			}
		default:
			if len(batch) > 0 {
				u.runBundle(batch)
			}
			// Anything still parked is quiesced by an in-doubt prepare
			// that never resolved — impossible after a graceful drain,
			// but answer rather than leak on a hard stop.
			for _, tk := range u.parked {
				if tk.t.IdemKey != 0 {
					u.dedup.Release(tk.t.IdemKey)
				}
				answer(tk.r, client.Response{Status: client.StatusCanceled})
			}
			u.parked = nil
			u.maybeCheckpoint()
			return
		}
	}
}

// anyParkedReady reports whether some parked transaction no longer
// overlaps an in-doubt key.
func (u *unit) anyParkedReady() bool {
	for _, tk := range u.parked {
		if !u.overlapsInDoubt(tk.t) {
			return true
		}
	}
	return false
}

// unparkReady moves no-longer-quiesced parked transactions into batch.
func (u *unit) unparkReady(batch []*task) []*task {
	if len(u.parked) == 0 {
		return batch
	}
	keep := u.parked[:0]
	for _, tk := range u.parked {
		if u.overlapsInDoubt(tk.t) {
			keep = append(keep, tk)
		} else {
			batch = append(batch, tk)
		}
	}
	u.parked = keep
	return batch
}

func (u *unit) overlapsInDoubt(t *txn.Transaction) bool {
	if len(u.keyDoubt) == 0 {
		return false
	}
	for _, op := range t.Ops {
		if _, busy := u.keyDoubt[op.Key]; busy {
			return true
		}
	}
	return false
}

// runBundle mirrors the serving layer's bundle execution: park
// transactions quiesced by in-doubt prepares, renumber densely, run
// the pipeline, and answer each transaction from its execution span.
func (u *unit) runBundle(batch []*task) {
	if len(u.keyDoubt) != 0 {
		run := batch[:0]
		for _, tk := range batch {
			if u.overlapsInDoubt(tk.t) {
				u.parked = append(u.parked, tk)
				u.count(func(s *ShardStats) { s.Parked++ })
			} else {
				run = append(run, tk)
			}
		}
		batch = run
	}
	if len(batch) == 0 {
		return
	}
	w := u.work[:0]
	for i, tk := range batch {
		tk.t.ID = i
		w = append(w, tk.t)
	}
	u.work = w
	bundleNo := u.pipeline.Bundles()
	execStart := time.Now()
	res, err := u.pipeline.ProcessContext(u.rt.runCtx, w)
	if err != nil {
		for _, tk := range batch {
			if tk.t.IdemKey != 0 {
				u.dedup.Release(tk.t.IdemKey)
			}
			answer(tk.r, client.Response{Status: client.StatusError, Error: err.Error()})
		}
		return
	}
	if cap(u.spans) < len(batch) {
		u.spans = make([]engine.ExecSpan, len(batch))
		u.haveSpan = make([]bool, len(batch))
	}
	spans, have := u.spans[:len(batch)], u.haveSpan[:len(batch)]
	for i := range have {
		have[i] = false
	}
	for _, sp := range res.Spans {
		if sp.TxnID >= 0 && sp.TxnID < len(batch) {
			spans[sp.TxnID], have[sp.TxnID] = sp, true
		}
	}
	// Count before answering, as the unsharded server does: a client
	// that has its response must find the commit in Stats.
	u.count(func(s *ShardStats) {
		s.Bundles++
		s.Committed += res.Committed
		s.Retries += res.Retries
		s.Defers += res.Defers
		s.UserAborts += res.UserAborts
		s.Canceled += res.Canceled
		s.Contended += res.Contended
		s.Expired += res.Expired
	})
	respNow := time.Now()
	for _, tk := range batch {
		resp := client.Response{Bundle: bundleNo}
		resp.QueueUS = execStart.Sub(tk.enqueued).Microseconds()
		switch {
		case have[tk.t.ID]:
			sp := spans[tk.t.ID]
			resp.Status = client.StatusCommit
			resp.Retries = sp.Retries
			resp.ExecUS = (sp.End - sp.Start).Microseconds()
		case tk.t.UserAbort:
			resp.Status = client.StatusAbort
		case !tk.t.Deadline.IsZero() && respNow.After(tk.t.Deadline):
			resp.Status = client.StatusExpired
		default:
			resp.Status = client.StatusCanceled
		}
		if tk.t.IdemKey != 0 {
			if resp.Status == client.StatusCommit {
				// Durable already: Process returns only after the WAL
				// barrier covered every commit of the bundle.
				u.dedup.Commit(tk.t.IdemKey, resp)
			} else {
				u.dedup.Release(tk.t.IdemKey)
			}
		}
		tk.r.Reply(resp)
	}
	// Push the bundle's answers: one write per connection, since a
	// Replier whose connection was already flushed has nothing left.
	for _, tk := range batch {
		tk.r.Flush()
	}
}

func (u *unit) handleOp(op *shardOp) {
	switch op.kind {
	case opPrepare:
		u.prepare(op)
	case opDecide:
		u.decide(op)
	}
}

// prepare executes the sub-plan against the quiescent store, buffers
// the redo images, makes them durable as a prepare record, quiesces the
// touched keys, and votes. Overlap with an existing in-doubt prepare
// votes no immediately — a participant never waits, so cross-shard
// transactions cannot deadlock. In normal operation the coordinator has
// already ordered overlapping transactions apart (hold.go) and this
// vote is never cast for a conflict; it remains the safety net, and the
// answer to a missing row or a failed log append.
func (u *unit) prepare(op *shardOp) {
	for _, o := range op.ops {
		if _, busy := u.keyDoubt[o.Key]; busy {
			u.voteNo(op, nil)
			return
		}
	}
	var e *indoubtTxn
	if n := len(u.freeDoubt); n > 0 {
		e, u.freeDoubt = u.freeDoubt[n-1], u.freeDoubt[:n-1]
	} else {
		e = &indoubtTxn{}
	}
	if !u.stageSub(op.ops, e) {
		u.voteNo(op, e)
		return
	}
	if len(e.writes) > 0 && u.log != nil {
		// The participant's durability point. A read-only sub-plan skips
		// it (the read-only 2PC optimization): with nothing to redo,
		// recovery has nothing to resolve.
		rec := wal.Record{TxnID: int64(op.gid), Kind: wal.RecordPrepare, Writes: e.writes}
		if err := u.log.Append(rec); err != nil {
			u.voteNo(op, e)
			return
		}
	}
	u.indoubt[op.gid] = e
	e.reads = e.reads[:0]
	recording := u.rt.cfg.Core.Recorder != nil
	for _, k := range e.keys {
		u.keyDoubt[k] = op.gid
		if recording {
			var ver uint64 // a row the sub-plan inserts has no version yet
			if row := u.db.Resolve(k); row != nil {
				ver = storage.VerNumber(row.Ver.Load())
			}
			e.reads = append(e.reads, history.Obs{Key: k, Ver: ver})
		}
	}
	u.indoubtN.Add(1)
	u.count(func(s *ShardStats) { s.CrossPrepared++ })
	op.votes <- vote{u.id, true, e}
}

// voteNo counts and casts a no-vote, recycling the unused entry.
func (u *unit) voteNo(op *shardOp, e *indoubtTxn) {
	if e != nil {
		u.freeDoubt = append(u.freeDoubt, e)
	}
	u.count(func(s *ShardStats) { s.CrossVotedNo++ })
	op.votes <- vote{shard: u.id}
}

// decide resolves an in-doubt prepare: install the staged images on
// commit, discard on abort, release the quiesced keys either way.
// Unknown gids are acknowledged idempotently. For commit decisions
// that is a duplicate delivery by definition and counted; for aborts
// it is normally just a participant that voted no (it never registered
// in-doubt state, but the coordinator tells everyone), so it is not.
func (u *unit) decide(op *shardOp) {
	defer func() {
		if op.wg != nil {
			op.wg.Done()
		}
	}()
	e, ok := u.indoubt[op.gid]
	if !ok {
		if op.commit {
			u.rt.countTPC(func(s *TwoPCStats) { s.DuplicateDecisions++ })
		}
		return
	}
	if op.commit {
		wal.ApplyRecord(u.db, wal.Record{TxnID: int64(op.gid), Writes: e.writes})
		u.count(func(s *ShardStats) { s.CrossCommitted++ })
	} else {
		u.count(func(s *ShardStats) { s.CrossAborted++ })
	}
	for _, k := range e.keys {
		if u.keyDoubt[k] == op.gid {
			delete(u.keyDoubt, k)
		}
	}
	delete(u.indoubt, op.gid)
	u.indoubtN.Add(-1)
	u.freeDoubt = append(u.freeDoubt, e) // ApplyRecord copied the images
}

// stageSub runs a sub-plan against the current store without touching
// it, filling e with the post-image redo updates and the distinct keys
// to quiesce (e's slices are overwritten, their capacity reused). It
// fails (vote no) on a read or update of a missing row, or on a scan —
// cross-shard scans are unsupported.
func (u *unit) stageSub(ops []txn.Op, e *indoubtTxn) bool {
	// key -> index into writes, or -1 for a key only read so far.
	staged := u.stageIdx
	clear(staged)
	writes, keys := e.writes[:0], e.keys[:0]
	for _, o := range ops {
		idx, seen := staged[o.Key]
		if !seen {
			idx = -1
			keys = append(keys, o.Key)
		}
		switch o.Kind {
		case txn.OpRead:
			if !seen {
				if u.db.Resolve(o.Key) == nil {
					return false
				}
				staged[o.Key] = -1
			}
		case txn.OpWrite, txn.OpInsert, txn.OpUpdate:
			if idx < 0 {
				row := u.db.Resolve(o.Key)
				if row == nil && o.Kind != txn.OpInsert {
					return false // write/update of a missing row
				}
				idx = len(writes)
				if idx < cap(writes) {
					writes = writes[:idx+1] // a recycled slot: reuse its field array
				} else {
					writes = append(writes, wal.Update{})
				}
				w := &writes[idx]
				w.Key, w.Ver, w.Fields = uint64(o.Key), 1, w.Fields[:0]
				if row != nil {
					w.Fields = append(w.Fields, row.Load().Fields...)
					w.Ver = storage.VerNumber(row.Ver.Load()) + 1
				}
				staged[o.Key] = idx
			}
			f := writes[idx].Fields
			for int(o.Field) >= len(f) {
				f = append(f, 0)
			}
			switch o.Kind {
			case txn.OpWrite, txn.OpInsert:
				f[o.Field] = o.Arg
			case txn.OpUpdate:
				f[o.Field] += o.Arg // wrapping, as the engine does
			}
			writes[idx].Fields = f
		default: // OpScan
			return false
		}
	}
	e.writes, e.keys = writes, keys
	return true
}

// maybeCheckpoint checkpoints the shard once enough WAL has accumulated
// since the last one — but never while a prepare is in doubt: staged
// images must not leak into a checkpoint, and an in-doubt prepare's
// record must survive in the log until its decision is known.
func (u *unit) maybeCheckpoint() {
	if u.ckpt == nil || len(u.indoubt) != 0 || !u.ckpt.Due() {
		return
	}
	lsn, removed, err := u.ckpt.Checkpoint(u.db, u.dedup)
	u.count(func(s *ShardStats) {
		if err != nil {
			s.CheckpointErrors++ // retried after the next bundle
			return
		}
		s.Checkpoints++
		s.LastCheckpointLSN = lsn
		s.TruncatedSegments += uint64(removed)
	})
}
