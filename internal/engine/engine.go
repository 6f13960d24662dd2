// Package engine is the transaction execution engine: a DBx1000-style
// multi-worker in-memory executor with thread-local transaction
// buffers, pluggable CC protocols (internal/cc), optional proactive
// deferment (internal/deferment), and retry-until-commit semantics.
//
// Execution is organized in phases: each phase assigns every worker an
// ordered list of transactions, workers drain their lists concurrently,
// and all workers synchronize before the next phase starts. That is
// exactly the paper's deployment:
//
//   - partitioner baseline: phase 1 = partitions, phase 2 = residual;
//   - TSKD: phase 1 = RC-free queues (CC + TsDEFER guarding against
//     estimate error), phase 2 = residual R_s with CC + TsDEFER;
//   - CC baseline / TSKD[CC]: a single phase of round-robin buffers.
package engine

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tskd/internal/cc"
	"tskd/internal/clock"
	"tskd/internal/deferment"
	"tskd/internal/estimator"
	"tskd/internal/history"
	"tskd/internal/metrics"
	"tskd/internal/sched"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
)

// DeferConfig enables TsDEFER with the Section 5 knobs.
type DeferConfig struct {
	// Lookups is #lookups (Table 1 default 2).
	Lookups int
	// DeferP is deferp% in [0,1] (Table 1 default 0.6).
	DeferP float64
	// Horizon is the look-ahead window (default 1).
	Horizon int
	// Alpha is the access-set accuracy α in (0,1] (Fig. 5h); 1 means
	// exact predicted write sets.
	Alpha float64
	// MaxDefers bounds how many times one transaction can be deferred
	// before it is forced to execute (starvation control; default 8).
	MaxDefers int
	// Exact selects the exact bounded-thread probe instead of the
	// per-item probe; see deferment.Deferrer.Exact.
	Exact bool
	// Adaptive enables online deferp adaptation per worker; see
	// deferment.EnableAdaptive.
	Adaptive bool
}

// DefaultDefer returns the Table 1 defaults, with the exact probe mode
// (one lookup = one remote thread).
func DefaultDefer() *DeferConfig {
	return &DeferConfig{Lookups: 2, DeferP: 0.6, Horizon: 1, Alpha: 1, MaxDefers: 8, Exact: true}
}

// Hooks is the engine's fault-injection surface: optional callbacks on
// the execution, retry, dependency-wait and durability paths. The chaos
// harness (internal/chaos) drives them from a seeded, site-keyed
// deterministic schedule; production runs leave Hooks nil, which costs
// a single pointer check per site. Hook implementations are called
// concurrently from every worker and must be safe for concurrent use.
type Hooks struct {
	// BeforeAttempt runs before each execution attempt of a
	// transaction (attempt 0 is the first try, >0 are retries). A
	// positive return stalls the worker that long; the stall counts
	// into the attempt's virtual busy time, shifting the transaction's
	// execution interval exactly like an OS-level preemption.
	BeforeAttempt func(worker, txnID, attempt int) time.Duration
	// BeforeOp runs before each data access (opIdx counts the
	// operations executed so far in this attempt). A positive return
	// injects a per-access latency spike, also charged to busy time.
	BeforeOp func(worker, txnID, opIdx int) time.Duration
	// BeforeDepWait runs once per application-specified dependency
	// before the worker starts spinning on it; a positive return
	// stalls the worker first (wait time is not busy time, matching
	// the engine's accounting of genuine dependency waits).
	BeforeDepWait func(worker, txnID, dep int) time.Duration
	// SkewBusy rewrites a commit's recorded busy time — clock skew on
	// the worker's virtual-time progress tracking. It perturbs
	// VirtualTime, latency percentiles and ExecSpans but must never
	// affect isolation; the chaos checker verifies exactly that.
	SkewBusy func(worker int, busy time.Duration) time.Duration
	// OnWALError, when non-nil, is called instead of panicking for each
	// commit whose redo record the run's durability barrier did not
	// cover (see Config.WAL); the transaction stays committed in memory
	// but its durability is not acknowledged, and its span is withheld
	// from Metrics.Spans so a caller that acknowledges by span cannot
	// acknowledge it. Unlike the other hooks it runs on Run's own
	// goroutine, after the workers finished, in transaction-ID order.
	// The chaos harness uses it to track which commits survived an
	// injected log failure.
	OnWALError func(t *txn.Transaction, err error)
}

// Config configures a run.
type Config struct {
	// Workers is the number of execution threads (#core).
	Workers int
	// Protocol is the CC protocol instance; required.
	Protocol cc.Protocol
	// DB is the database; required.
	DB *storage.DB
	// OpTime is the simulated per-operation work (busy-wait). Zero
	// runs operations at raw speed, back to back: a worker yields only
	// while it waits (dependencies, retry backoff, latches).
	OpTime time.Duration
	// Defer enables TsDEFER when non-nil.
	Defer *DeferConfig
	// Recorder, when non-nil, captures version observations of every
	// commit for serializability checking (slow; tests only).
	Recorder *history.Recorder
	// CostSink, when non-nil, receives observed execution costs so the
	// history estimator learns across bundles.
	CostSink *estimator.History
	// WAL, when non-nil, makes every commit append its redo record to
	// the log without waiting, and makes Run end with one durability
	// barrier over everything its workers appended: the run, not the
	// transaction, is the unit that reaches stable storage, so Run
	// returning means every commit it reports is durable (synced,
	// gate-checked, shipped). A barrier failure goes to
	// Hooks.OnWALError per uncovered commit when hooked; otherwise Run
	// panics — memory is then ahead of the log, and the only safe
	// continuation is recovery from the log. The barrier reports a
	// failure once, so concurrent runs must not share a log. Recovery is
	// wal.Recover.
	WAL *wal.Log
	// Deps, when non-nil, makes workers wait before executing a
	// transaction until all of its dependencies have committed —
	// execution-time enforcement of application-specified causal
	// dependencies. The phase assignment must be topologically
	// consistent (sched.GenerateWithDeps produces such schedules);
	// otherwise cross-queue waits could deadlock.
	Deps *sched.Deps
	// TraceSpans makes workers record each commit's virtual-time span
	// into Metrics.Spans, for planned-vs-actual drift analysis (Drift).
	TraceSpans bool
	// Ctx, when non-nil, cancels the run: workers stop starting new
	// transactions (and abandon retry loops) once the context is done.
	// Abandoned transactions count into Metrics.Canceled — they neither
	// committed nor aborted for application reasons. Nil means run to
	// completion.
	Ctx context.Context
	// Hooks, when non-nil, enables fault injection on the execution,
	// retry, dependency-wait and durability paths; see Hooks.
	Hooks *Hooks
	// Seed drives worker-local randomness (backoff, probe choices).
	Seed int64

	// committed marks transactions that have committed, for dependency
	// waits; allocated by Run when Deps is set.
	committed []atomic.Bool
	// walLSN[id] is one past the LSN of transaction id's redo record in
	// this run (0 = none, walRejected = the log refused it); allocated
	// by Run when WAL is set. Each entry is written by the one worker
	// that commits the transaction and read after the workers finished.
	walLSN []uint64
}

// walRejected marks a commit whose append the log refused: above every
// durable prefix, so the run's barrier always reports it.
const walRejected = ^uint64(0)

// Metrics aggregates the outcome of a run.
type Metrics struct {
	// Committed is the number of transactions committed.
	Committed uint64
	// Retries is the total number of aborted attempts (the paper's
	// #retry, reported per 100k transactions by RetryPer100k).
	Retries uint64
	// Defers is the number of TsDEFER deferrals performed.
	Defers uint64
	// UserAborts counts transactions rolled back by application logic
	// (not retried; e.g. TPC-C's invalid-item NewOrders).
	UserAborts uint64
	// Canceled counts transactions abandoned because Config.Ctx was
	// done before they could commit (never executed, or mid-retry).
	Canceled uint64
	// Expired counts transactions dropped because their Deadline passed
	// before commit (never executed, or between retries). An expired
	// transaction never commits.
	Expired uint64
	// Contended counts contended lock/latch acquisitions
	// (#contended_mutex).
	Contended uint64
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
	// VirtualTime is the simulated k-core execution time: per phase,
	// the maximum per-worker busy time (operation work × OpTime,
	// including retried work, runtime lower bounds and I/O stalls),
	// summed over phases. On a host with as many free cores as
	// workers, Elapsed ≈ VirtualTime; on smaller hosts, where workers
	// time-share cores, VirtualTime is the faithful measure of the
	// schedule's parallel cost (idle workers hide inside Elapsed but
	// not inside VirtualTime).
	VirtualTime time.Duration
	// LatencyP50/P95/P99 are commit-latency percentiles in virtual
	// (on-core) time per transaction: the busy time from first attempt
	// to commit, including retried work.
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
	// PerTemplate breaks committed/retry counts down by transaction
	// template (e.g. the five TPC-C transactions).
	PerTemplate map[string]TemplateMetrics
	// Spans holds per-commit execution spans when Config.TraceSpans
	// was set.
	Spans []ExecSpan
}

// TemplateMetrics is the per-template slice of a run's counters.
type TemplateMetrics struct {
	Committed uint64
	Retries   uint64
}

// Throughput returns committed transactions per wall-clock second.
func (m Metrics) Throughput() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Committed) / m.Elapsed.Seconds()
}

// VThroughput returns committed transactions per simulated k-core
// second — the headline throughput metric of the experiment harness.
func (m Metrics) VThroughput() float64 {
	if m.VirtualTime <= 0 {
		return 0
	}
	return float64(m.Committed) / m.VirtualTime.Seconds()
}

// RetryPer100k returns retries normalized per 100,000 transactions,
// the paper's #retry metric.
func (m Metrics) RetryPer100k() float64 {
	if m.Committed == 0 {
		return 0
	}
	return float64(m.Retries) * 100_000 / float64(m.Committed)
}

// Add accumulates other into m.
func (m *Metrics) Add(other Metrics) {
	m.Committed += other.Committed
	m.Retries += other.Retries
	m.Defers += other.Defers
	m.UserAborts += other.UserAborts
	m.Canceled += other.Canceled
	m.Expired += other.Expired
	m.Contended += other.Contended
	m.Elapsed += other.Elapsed
	m.VirtualTime += other.VirtualTime
}

// Phase is one synchronized execution phase: PerThread[i] is worker
// i's ordered transaction list.
type Phase struct {
	PerThread [][]*txn.Transaction
}

// SpreadRoundRobin builds a phase that deals ts across k threads in
// order, the lightweight assignment used for residuals and unbundled
// workloads.
func SpreadRoundRobin(ts []*txn.Transaction, k int) Phase {
	p := Phase{PerThread: make([][]*txn.Transaction, k)}
	for i, t := range ts {
		p.PerThread[i%k] = append(p.PerThread[i%k], t)
	}
	return p
}

// Run executes the phases in order against cfg.DB and returns the
// aggregated metrics. w is the full workload (used to size trackers and
// predicted access sets); every transaction in the phases must come
// from w.
func Run(w txn.Workload, phases []Phase, cfg Config) Metrics {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	nID := w.MaxID() + 1
	byID := make([]*txn.Transaction, nID)
	for _, t := range w {
		byID[t.ID] = t
	}
	if cfg.Deps != nil && cfg.Deps.Len() > 0 {
		cfg.committed = make([]atomic.Bool, nID)
	}
	if cfg.WAL != nil {
		cfg.walLSN = make([]uint64, nID)
	}
	var predicted [][]txn.Key
	if cfg.Defer != nil && cfg.Defer.Lookups > 0 {
		alpha := cfg.Defer.Alpha
		if alpha <= 0 || alpha > 1 {
			alpha = 1
		}
		predicted = deferment.MaskWriteSets(w, alpha, cfg.Seed)
	}

	// All per-phase scaffolding — worker structs, CC contexts, RNGs,
	// stat sinks, list headers — is allocated once here and recycled
	// across phases, so a multi-phase run allocates no per-phase worker
	// state (the paper's bundles run two phases per bundle; the serve
	// path calls Run once per bundle).
	k := cfg.Workers
	sc := &phaseScratch{
		lists:   make([][]*txn.Transaction, k),
		stats:   make([]workerStats, k),
		ccStats: make([]cc.Stats, k),
		workers: make([]worker, k),
	}
	for i := range sc.workers {
		wk := &sc.workers[i]
		wk.id = i
		wk.cfg = cfg
		wk.rng = rand.New(&wk.src) // seeded per phase by runPhase
		wk.ccStats = &sc.ccStats[i]
		wk.byID = byID
		wk.stats = &sc.stats[i]
		wk.unitScale = cfg.OpTime
		if wk.unitScale <= 0 {
			wk.unitScale = time.Microsecond
		}
		wk.ctx = cc.NewCtx(wk.ccStats)
		wk.ctx.Observe = cfg.Recorder != nil
		if predicted != nil {
			wk.deferCount = make([]int32, nID)
		}
	}

	total := Metrics{}
	var lat metrics.Histogram
	start := time.Now()
	for pi, phase := range phases {
		m, phaseLat := runPhase(phase, sc, predicted, cfg, int64(pi))
		total.Committed += m.Committed
		total.Retries += m.Retries
		total.Defers += m.Defers
		total.UserAborts += m.UserAborts
		total.Canceled += m.Canceled
		total.Expired += m.Expired
		total.Contended += m.Contended
		total.VirtualTime += m.VirtualTime
		lat.Merge(phaseLat)
		total.Spans = append(total.Spans, m.Spans...)
		for name, tm := range m.PerTemplate {
			if total.PerTemplate == nil {
				total.PerTemplate = make(map[string]TemplateMetrics)
			}
			agg := total.PerTemplate[name]
			agg.Committed += tm.Committed
			agg.Retries += tm.Retries
			total.PerTemplate[name] = agg
		}
	}
	if cfg.WAL != nil {
		total.Spans = cfg.walBarrier(byID, total.Spans)
	}
	total.Elapsed = time.Since(start)
	if lat.Count() > 0 {
		total.LatencyP50 = lat.Quantile(0.50)
		total.LatencyP95 = lat.Quantile(0.95)
		total.LatencyP99 = lat.Quantile(0.99)
	}
	return total
}

// phaseScratch is the run-level pool of per-phase worker scaffolding;
// see Run. Everything in it is reset (not reallocated) between phases.
type phaseScratch struct {
	lists   [][]*txn.Transaction
	stats   []workerStats
	ccStats []cc.Stats
	workers []worker
	ids     []int // tracker.Load staging (Load copies)
}

func runPhase(phase Phase, sc *phaseScratch, predicted [][]txn.Key, cfg Config, salt int64) (Metrics, *metrics.Histogram) {
	k := cfg.Workers
	lists := sc.lists
	for i := range lists {
		lists[i] = nil
	}
	copy(lists, phase.PerThread)
	if len(phase.PerThread) > k {
		// More lists than workers: fold the extras round-robin. Clamp
		// each copied list's capacity to its length first so the
		// appends below reallocate instead of growing into (and
		// corrupting) the caller's phase.PerThread backing arrays.
		for i := range lists {
			lists[i] = lists[i][:len(lists[i]):len(lists[i])]
		}
		for i := k; i < len(phase.PerThread); i++ {
			lists[i%k] = append(lists[i%k], phase.PerThread[i]...)
		}
	}

	maxLen := 0
	for _, l := range lists {
		if len(l) > maxLen {
			maxLen = len(l)
		}
	}
	var tracker *deferment.Tracker
	if predicted != nil {
		tracker = deferment.NewTracker(k, maxLen)
		tracker.SetWriteSets(predicted)
		ids := sc.ids
		for i, l := range lists {
			ids = ids[:0]
			for _, t := range l {
				ids = append(ids, t.ID)
			}
			tracker.Load(i, ids)
		}
		sc.ids = ids
	}

	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wk := &sc.workers[i]
		wk.stats.reset()
		*wk.ccStats = cc.Stats{}
		wk.src.Seed(cfg.Seed ^ salt<<32 ^ int64(i)*0x9E3779B9)
		wk.tracker = tracker
		wk.deferrer = nil
		if tracker != nil {
			wk.deferrer = deferment.NewDeferrer(tracker)
			wk.deferrer.Lookups = cfg.Defer.Lookups
			wk.deferrer.DeferP = cfg.Defer.DeferP
			wk.deferrer.Exact = cfg.Defer.Exact
			if cfg.Defer.Adaptive {
				wk.deferrer.EnableAdaptive()
			}
			if cfg.Defer.Horizon > 0 {
				wk.deferrer.Horizon = cfg.Defer.Horizon
			}
		}
		wg.Add(1)
		go func(wk *worker, list []*txn.Transaction) {
			defer wg.Done()
			wk.drain(list)
		}(wk, lists[i])
	}
	wg.Wait()

	var m Metrics
	lat := &metrics.Histogram{}
	for i := range sc.stats {
		stats := &sc.stats[i]
		m.Committed += stats.committed
		m.Retries += stats.retries
		m.Defers += stats.defers
		m.UserAborts += stats.userAborts
		m.Canceled += stats.canceled
		m.Expired += stats.expired
		m.Contended += sc.ccStats[i].Contended
		// Virtual k-core time of the phase: the busiest worker (the
		// barrier makes the others wait for it).
		if stats.busy > m.VirtualTime {
			m.VirtualTime = stats.busy
		}
		lat.Merge(&stats.lat)
		m.Spans = append(m.Spans, stats.spans...)
		for name, tm := range stats.perTpl {
			if m.PerTemplate == nil {
				m.PerTemplate = make(map[string]TemplateMetrics)
			}
			agg := m.PerTemplate[name]
			agg.Committed += tm.Committed
			agg.Retries += tm.Retries
			m.PerTemplate[name] = agg
		}
	}
	return m, lat
}

type workerStats struct {
	committed  uint64
	retries    uint64
	defers     uint64
	userAborts uint64
	canceled   uint64
	expired    uint64
	busy       time.Duration     // intended on-core work; see Metrics.VirtualTime
	lat        metrics.Histogram // per-commit virtual latency
	perTpl     map[string]*TemplateMetrics
	spans      []ExecSpan
}

// reset clears the stats for a new phase, keeping the spans slice's
// capacity (the aggregation loop copies values out before reuse).
func (ws *workerStats) reset() {
	ws.committed, ws.retries, ws.defers, ws.userAborts, ws.canceled, ws.expired = 0, 0, 0, 0, 0, 0
	ws.busy = 0
	ws.lat = metrics.Histogram{}
	clear(ws.perTpl)
	ws.spans = ws.spans[:0]
}

func (ws *workerStats) tpl(name string) *TemplateMetrics {
	if ws.perTpl == nil {
		ws.perTpl = make(map[string]*TemplateMetrics)
	}
	tm := ws.perTpl[name]
	if tm == nil {
		tm = &TemplateMetrics{}
		ws.perTpl[name] = tm
	}
	return tm
}

// splitmix is the workers' random source: splitmix64 (Steele, Lea and
// Flood, "Fast Splittable Pseudorandom Number Generators"), whose whole
// state is the seed. runPhase reseeds every worker every phase, which
// with math/rand's own source meant filling a 607-word lagged-Fibonacci
// table each time; the draws here pick backoff jitter and deferral
// coin flips, for which 64 well-mixed bits per draw are plenty.
type splitmix uint64

func (s *splitmix) Seed(seed int64) { *s = splitmix(seed) }

func (s *splitmix) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// worker executes one thread's list for one phase. Workers live for the
// whole run; runPhase reseeds src and swaps the tracker between phases.
type worker struct {
	id        int
	cfg       Config
	src       splitmix
	rng       *rand.Rand
	ctx       *cc.Ctx
	ccStats   *cc.Stats
	byID      []*txn.Transaction
	tracker   *deferment.Tracker
	deferrer  *deferment.Deferrer
	stats     *workerStats
	unitScale time.Duration
	// opsRun counts the operations executed in the current attempt,
	// feeding the virtual-time accounting.
	opsRun int
	// injected accumulates fault-injected stall time in the current
	// attempt; it is charged into the attempt's busy time so injected
	// faults shift execution intervals in virtual time too.
	injected time.Duration
	// deferCount[id] counts how many times this worker deferred txn id
	// in the current drain (dense by txn ID; cleared per drain). Nil
	// when deferment is off.
	deferCount []int32
	// ccWrites/walWrites/scanRows are per-worker scratch buffers reused
	// across commits (logCommit) and scans (runScan).
	ccWrites  []cc.CommittedWrite
	walWrites []wal.Update
	scanRows  []*storage.Row
}

// opUnit is the virtual cost charged per operation: the configured
// OpTime, or a nominal in-memory access cost when running at raw
// speed.
func (wk *worker) opUnit() time.Duration {
	if wk.cfg.OpTime > 0 {
		return wk.cfg.OpTime
	}
	return 500 * time.Nanosecond
}

// canceled reports whether the run's context is done.
func (wk *worker) canceled() bool {
	return wk.cfg.Ctx != nil && wk.cfg.Ctx.Err() != nil
}

// drain executes the worker's list, with TsDEFER reordering when
// enabled.
func (wk *worker) drain(list []*txn.Transaction) {
	if wk.tracker == nil {
		for i, t := range list {
			if wk.canceled() {
				wk.stats.canceled += uint64(len(list) - i)
				return
			}
			if wk.execute(t) == execCanceled {
				wk.stats.canceled += uint64(len(list) - i)
				return
			}
		}
		return
	}
	maxDefers := wk.cfg.Defer.MaxDefers
	if maxDefers <= 0 {
		maxDefers = 8
	}
	clear(wk.deferCount)
	for {
		id, ok := wk.tracker.Peek(wk.id)
		if !ok {
			return
		}
		if wk.canceled() {
			// Count the head and everything still queued behind it.
			for {
				wk.stats.canceled++
				wk.tracker.Advance(wk.id)
				if _, more := wk.tracker.Peek(wk.id); !more {
					return
				}
			}
		}
		t := wk.byID[id]
		if int(wk.deferCount[id]) < maxDefers && wk.deferrer.ShouldDefer(wk.id, t, wk.rng) {
			wk.deferCount[id]++
			wk.stats.defers++
			wk.tracker.DeferHead(wk.id)
			continue
		}
		outcome := wk.execute(t)
		wk.tracker.Advance(wk.id)
		if outcome == execCanceled {
			wk.stats.canceled++
		}
	}
}

// execOutcome classifies how execute left a transaction. Expired is
// distinct from canceled: an expired transaction is dropped alone and
// the drain continues, while cancellation abandons the whole run.
type execOutcome int8

const (
	execDone     execOutcome = iota // committed or user-aborted
	execCanceled                    // run context done before a terminal outcome
	execExpired                     // t.Deadline passed before commit; dropped
)

// expire drops t if its deadline has passed: it counts the drop and
// releases dependents (they wait on completion, not on effects — a
// dropped dependency must not stall them forever). Reports true when t
// is dead. Checked before the first attempt and between retries, so an
// expired transaction never (re-)executes — work the caller has
// abandoned only inflates runtime conflicts for live transactions.
func (wk *worker) expire(t *txn.Transaction) bool {
	if t.Deadline.IsZero() || !time.Now().After(t.Deadline) {
		return false
	}
	wk.stats.expired++
	if wk.cfg.committed != nil {
		wk.cfg.committed[t.ID].Store(true)
	}
	return true
}

// execute runs t to commit, retrying on conflicts. Transactions marked
// UserAbort execute and then roll back once, without retry. It returns
// execCanceled when the run's context was canceled, and execExpired
// when t's deadline passed, before t reached a terminal outcome
// (commit or user abort); the caller accounts the abandonment.
func (wk *worker) execute(t *txn.Transaction) execOutcome {
	proto := wk.cfg.Protocol
	if wk.expire(t) {
		return execExpired
	}
	// Application-specified dependencies: wait until every dependency
	// has committed. Schedules from sched.GenerateWithDeps order queue
	// positions topologically, so these waits cannot cycle.
	if wk.cfg.committed != nil {
		for _, dep := range wk.cfg.Deps.Before(t.ID) {
			if h := wk.cfg.Hooks; h != nil && h.BeforeDepWait != nil {
				clock.Spin(h.BeforeDepWait(wk.id, t.ID, int(dep)))
			}
			for !wk.cfg.committed[dep].Load() {
				if wk.canceled() {
					return execCanceled
				}
				if wk.expire(t) {
					return execExpired
				}
				runtime.Gosched()
			}
		}
	}
	start := time.Now()
	var busy time.Duration // intended on-core time across attempts
	contended0 := wk.ccStats.Contended
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if wk.canceled() {
				// Mid-retry cancellation: give up without committing.
				// The first attempt always runs so a canceled context
				// cannot starve short uncontended transactions during
				// drain.
				return execCanceled
			}
			if wk.expire(t) {
				return execExpired
			}
		}
		attemptStart := time.Now()
		proto.Begin(wk.ctx)
		wk.opsRun = 0
		wk.injected = 0
		if h := wk.cfg.Hooks; h != nil && h.BeforeAttempt != nil {
			if d := h.BeforeAttempt(wk.id, t.ID, attempt); d > 0 {
				clock.Spin(d)
				wk.injected += d
			}
		}
		err := wk.runOps(t)
		if err == nil && t.UserAbort {
			proto.Abort(wk.ctx)
			wk.stats.userAborts++
			wk.stats.busy += time.Duration(wk.opsRun)*wk.opUnit() + wk.injected
			if wk.cfg.committed != nil {
				// The transaction finished (rolled back): dependents
				// must not wait forever.
				wk.cfg.committed[t.ID].Store(true)
			}
			return execDone
		}
		// Per-attempt cost: the operation work, floored by the runtime
		// lower bound — every retry re-runs the transaction and re-pays
		// its runtime, which is precisely why conflict penalties grow
		// with transaction length (Section 6.1).
		attemptWork := time.Duration(wk.opsRun)*wk.opUnit() + wk.injected
		if err == nil {
			// Runtime lower bound (minT extension): delay commit until
			// the bound has elapsed for this attempt.
			if t.MinRuntime > 0 {
				clock.SpinUntil(attemptStart.Add(t.MinRuntime))
			}
			// Commit-time I/O latency extension: the stall sits between
			// execution and validation/commit, stretching the
			// vulnerability window exactly like a write-ahead flush.
			if t.IODelay > 0 {
				clock.SpinUntil(time.Now().Add(t.IODelay))
			}
			err = proto.Commit(wk.ctx)
			if t.MinRuntime > attemptWork {
				attemptWork = t.MinRuntime
			}
			attemptWork += t.IODelay
		}
		busy += attemptWork
		if err == nil {
			wk.stats.committed++
			if wk.cfg.WAL != nil {
				wk.logCommit(t)
			}
			if wk.cfg.committed != nil {
				wk.cfg.committed[t.ID].Store(true)
			}
			// Charge a nominal stall per contended latch/mutex
			// acquisition on top of the attempt work.
			busy += time.Duration(wk.ccStats.Contended-contended0) * wk.opUnit()
			if h := wk.cfg.Hooks; h != nil && h.SkewBusy != nil {
				busy = h.SkewBusy(wk.id, busy)
			}
			wk.stats.busy += busy
			wk.stats.lat.Record(busy)
			if t.Template != "" {
				tm := wk.stats.tpl(t.Template)
				tm.Committed++
				tm.Retries += uint64(attempt)
			}
			if wk.cfg.TraceSpans {
				wk.stats.spans = append(wk.stats.spans, ExecSpan{
					TxnID: t.ID, Worker: wk.id, Retries: attempt,
					Start: wk.stats.busy - busy, End: wk.stats.busy,
				})
			}
			if wk.cfg.Recorder != nil {
				reads, writes := wk.ctx.Observations()
				wk.cfg.Recorder.Record(history.Event{
					TxnID:  t.ID,
					Reads:  toHistObs(reads),
					Writes: toHistObs(writes),
				})
			}
			if wk.cfg.CostSink != nil {
				units := clock.Units(float64(time.Since(start)) / float64(wk.unitScale))
				wk.cfg.CostSink.Record(t.Template, t.Params, units)
			}
			return execDone
		}
		proto.Abort(wk.ctx)
		wk.stats.retries++
		wk.backoff(attempt)
	}
}

// runOps interprets the transaction's declared operations through the
// protocol.
func (wk *worker) runOps(t *txn.Transaction) error {
	proto := wk.cfg.Protocol
	db := wk.cfg.DB
	for _, op := range t.Ops {
		if h := wk.cfg.Hooks; h != nil && h.BeforeOp != nil {
			if d := h.BeforeOp(wk.id, t.ID, wk.opsRun); d > 0 {
				clock.Spin(d)
				wk.injected += d
			}
		}
		if op.Kind == txn.OpScan {
			if err := wk.runScan(t, op); err != nil {
				return err
			}
			continue
		}
		var row *storage.Row
		if op.Kind == txn.OpInsert {
			table := db.Table(op.Key.Table())
			if table == nil {
				continue
			}
			var created bool
			row, created = table.Insert(op.Key.Row())
			if created {
				// Our own structure bump must not invalidate our own
				// earlier scans of this table.
				wk.ctx.NoteStructureChange(table)
			}
		} else {
			row = db.ResolveOrInsert(op.Key)
		}
		if row == nil {
			continue // unknown table: treat as a no-op read
		}
		var err error
		switch op.Kind {
		case txn.OpRead:
			_, err = proto.Read(wk.ctx, row)
		case txn.OpWrite, txn.OpInsert:
			arg, field := op.Arg, int(op.Field)
			err = proto.Write(wk.ctx, row, func(tu *storage.Tuple) {
				if field < len(tu.Fields) {
					tu.Fields[field] = arg
				}
			})
		case txn.OpUpdate:
			// Read-modify-write: the read is validated by the
			// protocol, so concurrent increments are never lost.
			if _, err = proto.Read(wk.ctx, row); err == nil {
				arg, field := op.Arg, int(op.Field)
				err = proto.Write(wk.ctx, row, func(tu *storage.Tuple) {
					if field < len(tu.Fields) {
						tu.Fields[field] += arg
					}
				})
			}
		}
		if err != nil {
			return err
		}
		wk.opsRun++
		if wk.cfg.OpTime > 0 {
			clock.Spin(wk.cfg.OpTime)
		}
	}
	return nil
}

// runScan executes a range scan: record the table's structure version,
// enumerate the range from the ordered index (collecting row pointers
// so no index lock is held while the protocol runs), then read every
// row through the protocol. Phantom protection comes from the
// structure-version validation every protocol performs at commit.
func (wk *worker) runScan(t *txn.Transaction, op txn.Op) error {
	table := wk.cfg.DB.Table(op.Key.Table())
	if table == nil {
		return nil
	}
	wk.ctx.RecordScan(table)
	rows := wk.scanRows[:0]
	table.Scan(op.Key.Row(), op.Arg, func(r *storage.Row) bool {
		rows = append(rows, r)
		return true
	})
	wk.scanRows = rows
	proto := wk.cfg.Protocol
	for _, row := range rows {
		if _, err := proto.Read(wk.ctx, row); err != nil {
			return err
		}
		wk.opsRun++
		if wk.cfg.OpTime > 0 {
			clock.Spin(wk.cfg.OpTime)
		}
	}
	return nil
}

// logCommit appends the transaction's redo record to the WAL without
// waiting for it to reach stable storage: Run's barrier makes the whole
// run durable at once, and nothing is acknowledged before Run returns.
func (wk *worker) logCommit(t *txn.Transaction) {
	cw := wk.ctx.AppendCommittedWrites(wk.ccWrites[:0])
	wk.ccWrites = cw
	if len(cw) == 0 {
		return // read-only: nothing to redo
	}
	// The scratch Writes buffer is safe to reuse next commit: the log
	// serializes the record before AppendNoWait returns.
	upd := wk.walWrites[:0]
	for _, w := range cw {
		upd = append(upd, wal.Update{Key: uint64(w.Key), Ver: w.Ver, Fields: w.Fields})
	}
	wk.walWrites = upd
	lsn, err := wk.cfg.WAL.AppendNoWait(wal.Record{TxnID: int64(t.ID), IdemKey: t.IdemKey, Writes: upd})
	if err != nil {
		wk.cfg.walLSN[t.ID] = walRejected
		return
	}
	wk.cfg.walLSN[t.ID] = lsn + 1
}

// walBarrier is the run's durability point: one WAL barrier over every
// record the workers appended. Commits it does not cover are fatal to
// durability but not to the in-memory execution: they go to
// Hooks.OnWALError when a fault hook claims them (chaos runs inject log
// errors on purpose and track which commits lost durability) and lose
// their span, so they are never reported as acknowledgeable; otherwise
// the run fail-stops. Returns spans without the lost commits.
func (cfg *Config) walBarrier(byID []*txn.Transaction, spans []ExecSpan) []ExecSpan {
	durable, err := cfg.WAL.Barrier()
	var lost []int
	for id, next := range cfg.walLSN { // next is LSN+1
		if next > durable {
			lost = append(lost, id)
		}
	}
	if len(lost) == 0 {
		return spans
	}
	if err == nil {
		err = wal.ErrClosed // a refused append: the log's only append error
	}
	h := cfg.Hooks
	if h == nil || h.OnWALError == nil {
		panic("engine: WAL barrier failed: " + err.Error())
	}
	for _, id := range lost {
		h.OnWALError(byID[id], err)
	}
	kept := spans[:0]
	for _, sp := range spans {
		if cfg.walLSN[sp.TxnID] <= durable {
			kept = append(kept, sp)
		}
	}
	return kept
}

// toHistObs converts protocol observations to checker observations.
func toHistObs(in []cc.Obs) []history.Obs {
	out := make([]history.Obs, len(in))
	for i, o := range in {
		out[i] = history.Obs{Key: o.Key, Ver: o.Ver}
	}
	return out
}

// backoff applies short randomized backoff between retries so NO_WAIT
// style protocols do not livelock.
func (wk *worker) backoff(attempt int) {
	runtime.Gosched()
	if attempt == 0 {
		return
	}
	max := attempt
	if max > 16 {
		max = 16
	}
	clock.Spin(time.Duration(wk.rng.Intn(max*2)+1) * time.Microsecond)
}
