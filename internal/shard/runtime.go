package shard

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"tskd/internal/client"
	"tskd/internal/clock"
	"tskd/internal/core"
	"tskd/internal/durable"
	"tskd/internal/history"
	"tskd/internal/partition"
	"tskd/internal/replica"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
)

// Config configures a Runtime.
type Config struct {
	// Shards is the number of shards (1..MaxShards); required.
	Shards int
	// DB builds shard i's initial store; required. Each shard must get
	// its own *storage.DB instance (they are mutated independently).
	// With Durability set it seeds recovery when shard i has no
	// checkpoint — it must be the same initial store every incarnation.
	DB func(i int) *storage.DB
	// Partitioner builds shard i's bundle partitioner; nil is TSKD[0]
	// (scheduling from scratch) on every shard.
	Partitioner func(i int) partition.Partitioner
	// Bundle closes a shard's bundle at this many transactions
	// (default 512).
	Bundle int
	// FlushInterval closes a non-empty bundle at latest this long after
	// its first transaction (default 10ms).
	FlushInterval time.Duration
	// QueueDepth is each shard's admission queue capacity (default
	// 4×Bundle).
	QueueDepth int
	// Core configures each shard's pipeline (workers, CC protocol,
	// TsDEFER...). Workers is per shard. Estimator, CostSink, Ctx and
	// WAL are managed by the runtime and must be left zero. A Recorder
	// is shared by every shard and also gets one event per cross-shard
	// commit (its participants' observations merged).
	Core core.Options
	// Durability, when non-nil, gives every shard its own WAL directory
	// with checkpoint/dedup sidecars plus a coordinator decision log,
	// and Open recovers all of them to a consistent cut first.
	Durability *Durability
	// PrepareTimeout bounds a cross-shard prepare phase (default 2s),
	// from the moment the prepares are sent: time held at the
	// coordinator behind a conflicting transaction does not count.
	PrepareTimeout time.Duration
	// MaxCross bounds concurrently in-flight cross-shard commits
	// (default 64), held ones included; excess submissions are rejected
	// with backpressure.
	MaxCross int
	// Clock feeds the 2PC coordinators (nil = wall clock; fake in
	// tests).
	Clock clock.Clock
}

func (c *Config) withDefaults() error {
	if c.Shards < 1 || c.Shards > MaxShards {
		return fmt.Errorf("shard: Shards must be in 1..%d, got %d", MaxShards, c.Shards)
	}
	if c.DB == nil {
		return errors.New("shard: Config.DB is required")
	}
	if c.Bundle <= 0 {
		c.Bundle = 512
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 10 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Bundle
	}
	if c.PrepareTimeout <= 0 {
		c.PrepareTimeout = 2 * time.Second
	}
	if c.MaxCross <= 0 {
		c.MaxCross = 64
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Durability != nil {
		if err := c.Durability.withDefaults(); err != nil {
			return err
		}
	}
	return nil
}

// TwoPCStats are the cross-shard commit counters.
type TwoPCStats struct {
	// Started counts cross-shard transactions that entered 2PC.
	Started uint64 `json:"started"`
	// Prepared counts yes-votes across all shards (one per participant
	// per transaction).
	Prepared uint64 `json:"prepared"`
	// Committed / Aborted count coordinator decisions.
	Committed uint64 `json:"committed"`
	Aborted   uint64 `json:"aborted"`
	// AbortedVote / AbortedTimeout split Aborted by cause; UserAborts
	// are transactions that prepared everywhere and then rolled back
	// for application reasons (also included in Aborted).
	AbortedVote    uint64 `json:"aborted_vote"`
	AbortedTimeout uint64 `json:"aborted_timeout"`
	UserAborts     uint64 `json:"user_aborts"`
	// InDoubt is the current number of prepared-undecided transactions
	// across all shards (a gauge; nonzero only mid-2PC).
	InDoubt int `json:"in_doubt"`
	// DuplicateDecisions counts decision deliveries for already-resolved
	// transactions (idempotently ignored).
	DuplicateDecisions uint64 `json:"duplicate_decisions"`
	// Rejected counts cross-shard submissions refused for backpressure
	// (MaxCross in flight).
	Rejected uint64 `json:"rejected"`
	// DedupHits / DedupInflight are the coordinator window's counters.
	DedupHits     uint64 `json:"dedup_hits"`
	DedupInflight uint64 `json:"dedup_inflight"`
	// Held counts transactions the coordinator held back because an
	// earlier in-flight transaction shared a key with them (hold.go);
	// HoldWaitUS sums how long they waited, in microseconds. Against
	// AbortedVote they say whether conflicts are being ordered at the
	// coordinator or collided at the participants.
	Held       uint64 `json:"held"`
	HoldWaitUS uint64 `json:"hold_wait_us"`
}

// Stats is a point-in-time snapshot of the runtime's counters.
type Stats struct {
	Shards []ShardStats `json:"shards"`
	TwoPC  TwoPCStats   `json:"twopc"`
}

// Runtime is a running multi-shard execution layer.
type Runtime struct {
	cfg    Config
	router Router
	units  []*unit

	// Coordinator state: the decision log (nil when not durable), the
	// cross-shard idempotency window, the in-flight key tracker every
	// cross-shard transaction passes before its prepares go out, and
	// global-txn-id assignment (epoch from the boot-record count keeps
	// gids unique across incarnations).
	coordLog   *wal.Log
	coordDedup *durable.Window
	hold       holdTable
	gidEpoch   uint64
	gidSeq     atomic.Uint64
	crossSem   chan struct{}
	crossWG    sync.WaitGroup

	// replicaEpoch is the fencing epoch this incarnation runs under
	// (stamped on the boot record; 0 when never replicated).
	replicaEpoch uint64

	recovery RecoveryInfo

	admitMu  sync.RWMutex // draining flips under the write lock
	draining bool
	drainCh  chan struct{}
	unitWG   sync.WaitGroup

	runCtx    context.Context
	runCancel context.CancelFunc

	tmu sync.Mutex
	tpc TwoPCStats
}

// Open validates cfg, recovers the data directory (when durable) to a
// consistent cut across every shard, and starts the shard loops. By
// the time Open returns, every in-doubt prepared transaction has been
// resolved from the coordinator log — no shard serves traffic before
// that.
func Open(cfg Config) (*Runtime, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	rt := &Runtime{
		cfg:      cfg,
		router:   Router{Shards: cfg.Shards},
		crossSem: make(chan struct{}, cfg.MaxCross),
		drainCh:  make(chan struct{}),
		runCtx:   runCtx, runCancel: cancel,
	}

	dbs := make([]*storage.DB, cfg.Shards)
	keys := make([][]uint64, cfg.Shards)
	nextLSN := make([]uint64, cfg.Shards)
	var crossKeys []uint64
	dedupLimit := 65536
	if d := cfg.Durability; d != nil {
		dedupLimit = d.DedupWindow
		st, err := Recover(d.Dir, cfg.Shards, cfg.DB)
		if err != nil {
			cancel()
			return nil, err
		}
		rt.recovery = st.Info
		crossKeys = st.CrossKeys
		for i := range dbs {
			dbs[i] = st.DBs[i]
			keys[i] = st.ShardKeys[i]
			nextLSN[i] = st.Info.Shards[i].NextLSN
		}
		// The replica fencing epoch this incarnation runs under: the
		// live shipper's when replicating, otherwise whatever the data
		// directory carries (a promoted backup boots with the bumped
		// epoch even before it gets a backup of its own).
		if d.Replication != nil {
			rt.replicaEpoch = d.Replication.Epoch()
		} else if rt.replicaEpoch, err = replica.ReadEpoch(d.Dir); err != nil {
			cancel()
			return nil, err
		}
		// Open the coordinator log and stamp this incarnation: the boot
		// record's epoch keeps global transaction ids unique across
		// restarts, so a recovered prepare can never alias a new one.
		// The replica epoch rides in the boot record's IdemKey (the
		// coordinator replay ignores it; audits read it), so the log
		// itself records which fencing epoch wrote each suffix.
		coordOpts := wal.DirOptions{
			GroupWindow: d.GroupWindow, SegmentBytes: d.SegmentBytes,
			StartLSN: st.Info.CoordNextLSN, NoSync: d.NoSync,
			FlushGate: d.FlushGate,
		}
		if d.Replication != nil {
			stream, serr := d.Replication.Stream("coord", coordDir(d.Dir))
			if serr != nil {
				cancel()
				return nil, serr
			}
			coordOpts.Shipper = stream
		}
		rt.coordLog, err = wal.OpenDir(coordDir(d.Dir), coordOpts)
		if err != nil {
			cancel()
			return nil, err
		}
		rt.gidEpoch = uint64(st.Info.Boots) + 1
		if err := rt.coordLog.Append(wal.Record{TxnID: int64(rt.gidEpoch), IdemKey: rt.replicaEpoch, Kind: wal.RecordBoot}); err != nil {
			rt.coordLog.Close()
			cancel()
			return nil, err
		}
	} else {
		for i := range dbs {
			dbs[i] = cfg.DB(i)
		}
		rt.gidEpoch = 1
	}
	rt.coordDedup = durable.NewWindow(dedupLimit)
	rt.coordDedup.Restore(crossKeys...)

	rt.units = make([]*unit, cfg.Shards)
	for i := range rt.units {
		u := &unit{
			id: i, rt: rt, db: dbs[i],
			in:       make(chan *task, cfg.QueueDepth),
			ops:      make(chan *shardOp, 2*cfg.MaxCross+8),
			indoubt:  make(map[uint64]*indoubtTxn),
			keyDoubt: make(map[txn.Key]uint64),
			stageIdx: make(map[txn.Key]int),
			dedup:    durable.NewWindow(dedupLimit),
		}
		u.stats.Shard = i
		u.dedup.Restore(keys[i]...)
		if d := cfg.Durability; d != nil {
			unitOpts := wal.DirOptions{
				GroupWindow: d.GroupWindow, SegmentBytes: d.SegmentBytes,
				StartLSN: nextLSN[i], NoSync: d.NoSync,
				FlushGate: d.FlushGate,
			}
			if d.Replication != nil {
				stream, serr := d.Replication.Stream(fmt.Sprintf("shard-%02d", i), shardDir(d.Dir, i))
				if serr != nil {
					rt.closeLogs()
					cancel()
					return nil, serr
				}
				unitOpts.Shipper = stream
			}
			log, err := wal.OpenDir(shardDir(d.Dir, i), unitOpts)
			if err != nil {
				rt.closeLogs()
				cancel()
				return nil, err
			}
			u.log = log
			u.ckpt = durable.NewCheckpointer(shardDir(d.Dir, i), log, d.CheckpointBytes, !d.NoSync)
		}
		opts := cfg.Core
		opts.TraceSpans = true // per-transaction outcomes come from spans
		opts.WAL = u.log
		// Decorrelate the shards' per-bundle seeds.
		opts.Seed = cfg.Core.Seed + int64(i)*1_000_003
		var p partition.Partitioner
		if cfg.Partitioner != nil {
			p = cfg.Partitioner(i)
		}
		u.pipeline = core.NewPipeline(u.db, p, opts)
		rt.units[i] = u
	}
	for _, u := range rt.units {
		rt.unitWG.Add(1)
		go u.run()
	}
	return rt, nil
}

// Recovery reports what startup recovery found (zero when the runtime
// is not durable or the directory was fresh).
func (rt *Runtime) Recovery() RecoveryInfo { return rt.recovery }

// ReplicaEpoch is the fencing epoch this incarnation runs under: the
// shipper's when replicating, the directory's persisted epoch after a
// promotion, and 0 when the directory was never part of a pair.
func (rt *Runtime) ReplicaEpoch() uint64 { return rt.replicaEpoch }

// DB returns shard i's store (the recovered one when durable).
func (rt *Runtime) DB(i int) *storage.DB { return rt.units[i].db }

// Router returns the runtime's key-ownership router.
func (rt *Runtime) Router() Router { return rt.router }

// Replier receives a submitted transaction's outcome. Reply is called
// exactly once (Seq left zero: the caller stamps its own) and may
// buffer; the runtime calls Flush after it. Answers given outside a
// bundle — dedup hits, rejections, 2PC outcomes — are flushed at once.
// A shard unit replies to a whole bundle first and then flushes each
// transaction's Replier, so a connection with several transactions in
// the bundle is written once; Flush must therefore be cheap when there
// is nothing left to push. Reply may run synchronously inside Submit
// or later from a shard or coordinator goroutine; it must not block
// for long.
type Replier interface {
	Reply(client.Response)
	Flush()
}

// replyFunc adapts a callback to Replier: Reply calls it, Flush does
// nothing.
type replyFunc func(client.Response)

func (f replyFunc) Reply(resp client.Response) { f(resp) }
func (replyFunc) Flush()                       {}

// answer replies and flushes at once: the path for every answer that is
// not part of a unit bundle.
func answer(r Replier, resp client.Response) {
	r.Reply(resp)
	r.Flush()
}

// Submit routes t by key ownership and eventually calls done exactly
// once with the outcome; see Replier for when and where.
func (rt *Runtime) Submit(t *txn.Transaction, done func(client.Response)) {
	rt.SubmitTo(t, replyFunc(done))
}

// SubmitTo is Submit with a Replier, for callers that buffer replies
// and push them once per bundle.
func (rt *Runtime) SubmitTo(t *txn.Transaction, r Replier) {
	if t.HasScan() && rt.cfg.Shards > 1 {
		answer(r, client.Response{Status: client.StatusError,
			Error: "range scans are not supported on a sharded runtime"})
		return
	}
	mask := rt.router.ParticipantMask(t)
	if mask&(mask-1) == 0 { // one shard, or no operations at all (homes to 0)
		home := 0
		if mask != 0 {
			home = bits.TrailingZeros64(mask)
		}
		rt.submitLocal(rt.units[home], t, r)
		return
	}
	rt.submitCross(t, r)
}

func (rt *Runtime) submitLocal(u *unit, t *txn.Transaction, r Replier) {
	if t.IdemKey != 0 {
		switch state, cached := u.dedup.Begin(t.IdemKey); state {
		case durable.Hit:
			cached.Duplicate = true
			u.count(func(s *ShardStats) { s.DedupHits++ })
			answer(r, cached)
			return
		case durable.Inflight:
			u.count(func(s *ShardStats) { s.DedupInflight++ })
			answer(r, client.Response{Status: client.StatusRejected, RetryAfterMS: rt.retryAfterMS(u)})
			return
		}
	}
	tk := &task{t: t, r: r, enqueued: time.Now()}
	rt.admitMu.RLock()
	admitted := false
	if !rt.draining {
		select {
		case u.in <- tk:
			admitted = true
		default:
		}
	}
	rt.admitMu.RUnlock()
	if admitted {
		u.count(func(s *ShardStats) { s.Admitted++ })
		return
	}
	if t.IdemKey != 0 {
		u.dedup.Release(t.IdemKey)
	}
	u.count(func(s *ShardStats) { s.Rejected++ })
	answer(r, client.Response{Status: client.StatusRejected, RetryAfterMS: rt.retryAfterMS(u)})
}

func (rt *Runtime) submitCross(t *txn.Transaction, r Replier) {
	if t.IdemKey != 0 {
		switch state, cached := rt.coordDedup.Begin(t.IdemKey); state {
		case durable.Hit:
			cached.Duplicate = true
			rt.countTPC(func(s *TwoPCStats) { s.DedupHits++ })
			answer(r, cached)
			return
		case durable.Inflight:
			rt.countTPC(func(s *TwoPCStats) { s.DedupInflight++ })
			answer(r, client.Response{Status: client.StatusRejected, RetryAfterMS: rt.retryAfterMS(nil)})
			return
		}
	}
	if !t.Deadline.IsZero() && time.Now().After(t.Deadline) {
		// Expired before it reached a coordinator: terminal, never queued.
		if t.IdemKey != 0 {
			rt.coordDedup.Release(t.IdemKey)
		}
		rt.countTPC(func(s *TwoPCStats) { s.Started++; s.Aborted++ })
		answer(r, client.Response{Status: client.StatusExpired})
		return
	}
	rt.admitMu.RLock()
	started := false
	if !rt.draining {
		select {
		case rt.crossSem <- struct{}{}:
			rt.crossWG.Add(1)
			started = true
		default:
		}
	}
	rt.admitMu.RUnlock()
	if !started {
		if t.IdemKey != 0 {
			rt.coordDedup.Release(t.IdemKey)
		}
		rt.countTPC(func(s *TwoPCStats) { s.Rejected++ })
		answer(r, client.Response{Status: client.StatusRejected, RetryAfterMS: rt.retryAfterMS(nil)})
		return
	}
	// Arrival order in the hold table is Submit order: queue on the
	// caller's goroutine, wait (if at all) on the coordinator's.
	h := newHolder(t.Ops)
	var queued time.Time // zero: dispatched on arrival
	if !rt.hold.enqueue(h) {
		queued = time.Now()
	}
	go rt.runTwoPC(t, h, queued, r)
}

// runTwoPC is one coordinator. h is the transaction's place in the hold
// table: unless it was dispatched on arrival (queued is zero), wait
// there, in arrival order, behind every in-flight transaction that
// shares a key. Then prepare every participant, decide, make a commit
// decision durable, hand the decision to the participants, release the
// keys, and acknowledge. Runs on its own goroutine; the Coord state
// machine (twopc.go) makes the decision.
//
// Because overlapping transactions are ordered here, participants see
// overlapping prepares only when something else went wrong; their
// wait-free vote-no stays as the safety net for that, and for missing
// rows, log failures and timeouts.
func (rt *Runtime) runTwoPC(t *txn.Transaction, h *holder, queued time.Time, r Replier) {
	defer func() { <-rt.crossSem; rt.crossWG.Done() }()
	finish := func(resp client.Response) {
		if t.IdemKey != 0 {
			if resp.Status == client.StatusCommit {
				rt.coordDedup.Commit(t.IdemKey, resp)
			} else {
				rt.coordDedup.Release(t.IdemKey)
			}
		}
		answer(r, resp)
	}

	dispatched, waited := true, !queued.IsZero()
	var held time.Duration
	if waited {
		// The hold. A transaction whose deadline passes while it waits
		// has taken no key and sent no prepare.
		dispatched = rt.hold.wait(h, t.Deadline)
		held = time.Since(queued)
	}
	rt.countTPC(func(s *TwoPCStats) {
		s.Started++
		if waited {
			s.Held++
			s.HoldWaitUS += uint64(held.Microseconds())
		}
		if !dispatched {
			s.Aborted++
		}
	})
	if !dispatched {
		finish(client.Response{Status: client.StatusExpired, QueueUS: held.Microseconds()})
		return
	}

	// Dispatch: the prepare timeout and ExecUS run from here.
	start := time.Now()
	gid := rt.gidEpoch<<32 | rt.gidSeq.Add(1)
	parts, plans := subPlans(t.Ops, rt.router)
	c := NewCoord(gid, parts, CoordConfig{Clock: rt.cfg.Clock, PrepareTimeout: rt.cfg.PrepareTimeout})
	votes := make(chan vote, len(parts))
	sops := make([]shardOp, 2*len(parts)) // a prepare and a decide per participant
	for i, p := range parts {
		op := &sops[i]
		*op = shardOp{kind: opPrepare, gid: gid, ops: plans[i], votes: votes}
		rt.units[p].ops <- op
	}
	timer := time.NewTimer(rt.cfg.PrepareTimeout)
	state := c.State()
	rec := rt.cfg.Core.Recorder
	var ev history.Event // the commit's version observations, under a recorder
	for state == StatePreparing {
		select {
		case v := <-votes:
			state = c.Vote(v.shard, v.yes)
			if rec != nil && v.yes {
				ev.Reads = append(ev.Reads, v.e.reads...)
				for _, w := range v.e.writes {
					ev.Writes = append(ev.Writes, history.Obs{Key: txn.Key(w.Key), Ver: w.Ver})
				}
			}
		case <-timer.C:
			state = c.Tick()
		}
	}
	timer.Stop()

	// A user abort prepares everywhere and then rolls back: the global
	// transaction has no effects, by design.
	commit := state == StateCommitted && !t.UserAbort
	if commit && rt.coordLog != nil {
		// The durability point: a commit decision that cannot be logged
		// must abort (presumed abort would otherwise resolve the
		// prepares the wrong way after a crash).
		if err := rt.coordLog.Append(wal.Record{TxnID: int64(gid), Kind: wal.RecordDecision, IdemKey: t.IdemKey}); err != nil {
			commit = false
			state = StateAborted
		}
	}
	if rec != nil && commit {
		// One event for the whole global transaction, so the checker
		// sees its parts at one point of the serial order.
		ev.TxnID = int(uint32(gid))
		rec.Record(ev)
	}
	var dwg sync.WaitGroup
	dwg.Add(len(parts))
	for i, p := range parts {
		op := &sops[len(parts)+i]
		*op = shardOp{kind: opDecide, gid: gid, commit: commit, wg: &dwg}
		rt.units[p].ops <- op
	}
	// The keys are free once every participant has the decision queued:
	// a unit's ops channel is FIFO and the unit is one goroutine, so a
	// prepare sent after this point is handled after the install.
	// (Releasing only after dwg.Wait() measured 6 % slower on
	// BenchmarkCrossShardHotKey.)
	rt.hold.drop(h)

	resp := client.Response{QueueUS: held.Microseconds(), ExecUS: time.Since(start).Microseconds()}
	switch {
	case commit:
		resp.Status = client.StatusCommit
		rt.countTPC(func(s *TwoPCStats) { s.Committed++ })
	case state == StateCommitted: // user abort after full prepare
		resp.Status = client.StatusAbort
		rt.countTPC(func(s *TwoPCStats) { s.Aborted++; s.UserAborts++ })
	case c.Cause() == CauseTimeout:
		resp.Status = client.StatusRejected
		resp.RetryAfterMS = rt.retryAfterMS(nil)
		rt.countTPC(func(s *TwoPCStats) { s.Aborted++; s.AbortedTimeout++ })
	default: // a participant voted no (failed sub-plan, log failure): retryable
		resp.Status = client.StatusRejected
		resp.RetryAfterMS = rt.retryAfterMS(nil)
		rt.countTPC(func(s *TwoPCStats) { s.Aborted++; s.AbortedVote++ })
	}
	// Acknowledge as soon as the decision is durable; installation
	// happens under the participants' key quiescence, so no later
	// transaction can observe pre-decision state on those keys.
	finish(resp)
	dwg.Wait()
}

// subPlans splits ops by home shard in one pass: parts are the sorted
// distinct shards touched, and plans[i] holds parts[i]'s operations in
// their original order (all plans share one backing array).
func subPlans(ops []txn.Op, r Router) (parts []int, plans [][]txn.Op) {
	var count [MaxShards]int
	touched := 0
	for _, o := range ops {
		p := r.Home(o.Key)
		if count[p] == 0 {
			touched++
		}
		count[p]++
	}
	parts = make([]int, 0, touched)
	var slot [MaxShards]int // shard -> index into parts
	for p, n := range count[:max(r.Shards, 1)] {
		if n != 0 {
			slot[p] = len(parts)
			parts = append(parts, p)
		}
	}
	plans = make([][]txn.Op, len(parts))
	backing := make([]txn.Op, 0, len(ops))
	for i, p := range parts {
		// Capped sub-slices: each plan appends within its own window.
		plans[i] = backing[len(backing) : len(backing) : len(backing)+count[p]]
		backing = backing[:len(backing)+count[p]]
	}
	for _, o := range ops {
		i := slot[r.Home(o.Key)]
		plans[i] = append(plans[i], o)
	}
	return parts, plans
}

// retryAfterMS is the backoff hint for a rejection: the flush interval
// scaled by the target shard's queue occupancy (u nil for cross-shard
// rejections, which use the base hint).
func (rt *Runtime) retryAfterMS(u *unit) int64 {
	base := rt.cfg.FlushInterval.Milliseconds() + 1
	if u == nil {
		return base
	}
	return base * int64(1+len(u.in)/rt.cfg.Bundle)
}

func (rt *Runtime) countTPC(f func(*TwoPCStats)) {
	rt.tmu.Lock()
	f(&rt.tpc)
	rt.tmu.Unlock()
}

// Stats snapshots every shard's counters plus the 2PC counters.
func (rt *Runtime) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(rt.units))}
	inDoubt := 0
	for i, u := range rt.units {
		st.Shards[i] = u.snapshot()
		st.TwoPC.Prepared += st.Shards[i].CrossPrepared
		inDoubt += st.Shards[i].InDoubt
	}
	rt.tmu.Lock()
	tpc := rt.tpc
	rt.tmu.Unlock()
	tpc.Prepared = st.TwoPC.Prepared
	tpc.InDoubt = inDoubt
	st.TwoPC = tpc
	return st
}

// Shutdown drains gracefully: stop admitting, let in-flight 2PCs
// decide and apply, flush every shard's admitted work, then close the
// logs. If ctx expires first, in-flight bundles are canceled through
// the engines' context plumbing and ctx.Err() is returned.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	rt.admitMu.Lock()
	already := rt.draining
	rt.draining = true
	rt.admitMu.Unlock()
	if already {
		return errors.New("shard: already shut down")
	}
	// Coordinators first: every decide is applied before the shard
	// loops drain, so no in-doubt state can survive a graceful stop.
	crossDone := make(chan struct{})
	go func() { rt.crossWG.Wait(); close(crossDone) }()
	var err error
	select {
	case <-crossDone:
	case <-ctx.Done():
		err = ctx.Err()
	}
	close(rt.drainCh)
	unitsDone := make(chan struct{})
	go func() { rt.unitWG.Wait(); close(unitsDone) }()
	select {
	case <-unitsDone:
	case <-ctx.Done():
		rt.runCancel() // hard stop: abandon in-flight bundles
		<-unitsDone
		if err == nil {
			err = ctx.Err()
		}
	}
	if cerr := rt.closeLogs(); err == nil {
		err = cerr
	}
	return err
}

func (rt *Runtime) closeLogs() error {
	var err error
	for _, u := range rt.units {
		if u != nil && u.log != nil {
			if cerr := u.log.Close(); err == nil {
				err = cerr
			}
		}
	}
	if rt.coordLog != nil {
		if cerr := rt.coordLog.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
