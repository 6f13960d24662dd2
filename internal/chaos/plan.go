package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"tskd/internal/engine"
	"tskd/internal/txn"
)

// Fault points. Every injection decision is keyed by one of these
// names plus site-specific keys; DESIGN.md documents the registry.
const (
	// PointWorkerStall stalls a worker before an execution attempt
	// (keys: txnID, attempt).
	PointWorkerStall = "engine/worker-stall"
	// PointAccessLatency injects a per-access latency spike (keys:
	// txnID, opIdx).
	PointAccessLatency = "engine/access-latency"
	// PointDepWaitStall stalls a worker entering a dependency wait
	// (keys: txnID, dep).
	PointDepWaitStall = "engine/dep-wait-stall"
	// PointClockSkew skews a worker's virtual-time progress tracking
	// (keys: worker).
	PointClockSkew = "engine/clock-skew"
	// PointWALFault plants the WAL write fault (byte offset + mode are
	// drawn once per seed, not per site).
	PointWALFault = "wal/write-fault"
	// PointConnDrop drops a client connection right after submitting
	// (keys: client, submission index).
	PointConnDrop = "server/conn-drop"
	// PointQueueBurst fires a queue-full submission burst (keys:
	// client, submission index).
	PointQueueBurst = "server/queue-full-burst"
	// PointSimNoise is the simulator's duration-noise model (the
	// clock-skew model reused from internal/sim).
	PointSimNoise = "sim/duration-noise"
	// PointKillServer is the kill-and-restart scenario's process kill:
	// the instant is chosen by the seed-derived acknowledged-commit
	// threshold (Plan.KillAfterAcks), and PointKillRedeliver selects
	// which acknowledged keys are redelivered after the restart (keys:
	// client, submission index).
	PointKillServer    = "server/kill"
	PointKillRedeliver = "server/kill-redeliver"
	// PointOverloadPri assigns the overload scenario's burst submissions
	// their priority class (keys: client, submission index).
	PointOverloadPri = "server/overload-pri"
	// PointShardCross decides whether shard-crash submission (c, i)
	// spans two shards (commits via 2PC) or stays on one.
	PointShardCross = "shard/cross"
	// PointShardRedeliver selects which acknowledged shard-crash keys
	// are redelivered after the restart (keys: client, submission index).
	PointShardRedeliver = "shard/redeliver"
	// PointReplCross / PointReplRedeliver are the replica-failover
	// scenario's analogues of the shard points (separate sites so the
	// two scenarios' schedules stay independent per seed).
	PointReplCross     = "replica/cross"
	PointReplRedeliver = "replica/redeliver"
	// PointAutoCross / PointAutoRedeliver are the auto-failover
	// scenario's analogues (its own sites again, plus "autofail/key"
	// and "autofail/kill" for rows and idempotency keys).
	PointAutoCross     = "autofail/cross"
	PointAutoRedeliver = "autofail/redeliver"
)

// Plan is the seed-derived fault schedule for one chaos run: which
// faults are armed, at what rates and magnitudes, plus the workload
// shape knobs the scenarios share. Same seed, same Plan — the Plan
// (together with the site hash) IS the replayable fault schedule.
type Plan struct {
	Seed     int64
	Protocol string
	Workers  int

	// Engine faults.
	StallRate float64
	StallMax  time.Duration
	OpLatRate float64
	OpLatMax  time.Duration
	DepStall  time.Duration
	Skew      float64 // ± relative skew of worker virtual clocks
	// Defer enables TsDEFER in the scenarios whose schedules tolerate
	// reordering (never with dependency waits: deferring a queue head
	// behind its own dependent would self-deadlock the worker).
	Defer bool

	// WAL fault: sticky write failure after WALFailAfter bytes
	// (negative = no log fault this seed); WALTorn selects torn-prefix
	// vs clean-error mode.
	WALFailAfter int64
	WALTorn      bool

	// Serving faults.
	DropRate   float64
	BurstEvery int
	BurstSize  int
	QueueDepth int

	// Simulator clock-skew amplitude (sim.Config.Noise).
	SimNoise float64

	// Kill-and-restart scenario: a durable server child process is
	// SIGKILLed once KillAfterAcks commits were acknowledged, restarted
	// over the same data directory, and the in-doubt submissions are
	// resubmitted under their original idempotency keys.
	KillClients         int     // concurrent phase-1 clients
	KillSubs            int     // submissions per client
	KillAfterAcks       int     // SIGKILL once this many commits acked
	KillSegmentBytes    int64   // child WAL segment rotation threshold
	KillCheckpointBytes int64   // child checkpoint threshold
	KillRedeliver       float64 // P(redeliver an acked key after restart)

	// Overload + WAL-stall scenario: a burst of deadline-carrying,
	// mixed-priority submissions lands while the log's fsync device is
	// stalled far past the breaker's trip latency.
	OverClients    int           // concurrent burst clients
	OverBurst      int           // submissions per burst client
	OverStall      time.Duration // injected per-fsync latency
	OverDeadlineMS int64         // burst deadline budget (milliseconds)
	OverLowPri     float64       // P(a burst submission is low priority)

	// Shard-crash scenario: a durable multi-shard server child is
	// SIGKILLed mid-load — racing 2PC prepares, decisions and
	// participant installs against the kill — restarted over the same
	// directory, and every in-doubt submission resubmitted under its
	// original idempotency key.
	ShardCount     int     // shards in the child server (>= 2)
	ShardClients   int     // concurrent phase-1 clients
	ShardSubs      int     // submissions per client
	ShardAfterAcks int     // SIGKILL once this many commits acked
	ShardCross     float64 // P(a submission spans two shards)
	ShardRedeliver float64 // P(redeliver an acked key after restart)
	ShardSegBytes  int64   // child WAL segment rotation threshold
	ShardCkptBytes int64   // child checkpoint threshold

	// Replica-failover scenario: a durable multi-shard primary ships
	// every WAL flush synchronously to a backup receiver and is
	// SIGKILLed mid-2PC; the backup directory is promoted (epoch bump)
	// and a second incarnation serves over it. The primary's own
	// directory is abandoned — the promoted timeline is the truth.
	ReplShards    int     // shards in the primary (>= 2)
	ReplClients   int     // concurrent phase-1 clients
	ReplSubs      int     // submissions per client
	ReplAfterAcks int     // SIGKILL the primary once this many commits acked
	ReplCross     float64 // P(a submission spans two shards)
	ReplRedeliver float64 // P(redeliver an acked key after failover)

	// Auto-failover scenario: like replica-failover, but nobody runs
	// -promote. A lease-gated replicating primary is SIGKILLed mid-2PC;
	// the arbiter observes the missed renewals, durably bumps the
	// epoch, and grants it to the most-caught-up backup, which
	// self-promotes and serves.
	AutoShards    int           // shards in the primary (>= 2)
	AutoClients   int           // concurrent phase-1 clients
	AutoSubs      int           // submissions per client
	AutoAfterAcks int           // SIGKILL the primary once this many commits acked
	AutoCross     float64       // P(a submission spans two shards)
	AutoRedeliver float64       // P(redeliver an acked key after failover)
	AutoLeaseTTL  time.Duration // arbiter lease TTL (the grant bound derives from it)
}

// engineProtocols are the CC protocols the chaos scenarios rotate
// through: the paper's evaluation set plus the lockers, i.e. every
// protocol in cc.Names. The list is spelled out so a seed keeps drawing
// the same protocol even if the registry's order changes.
var engineProtocols = []string{"OCC", "SILO", "TICTOC", "NO_WAIT", "WAIT_DIE"}

// NewPlan derives the fault schedule for a seed. It is a pure function
// of the seed: the draws come from a private PRNG seeded with it.
func NewPlan(seed int64) Plan {
	rng := rand.New(rand.NewSource(seed ^ 0x5EEDC4A05))
	p := Plan{
		Seed:       seed,
		Protocol:   engineProtocols[rng.Intn(len(engineProtocols))],
		Workers:    2 + rng.Intn(7), // 2..8
		StallRate:  0.01 + 0.04*rng.Float64(),
		StallMax:   time.Duration(50+rng.Intn(450)) * time.Microsecond,
		OpLatRate:  0.02 + 0.08*rng.Float64(),
		OpLatMax:   time.Duration(10+rng.Intn(190)) * time.Microsecond,
		DepStall:   time.Duration(rng.Intn(200)) * time.Microsecond,
		Skew:       0.3 * rng.Float64(),
		DropRate:   0.05 + 0.15*rng.Float64(),
		BurstEvery: 8 + rng.Intn(8),
		BurstSize:  8 + rng.Intn(17),
		QueueDepth: 8 + rng.Intn(57),
		SimNoise:   0.5 * rng.Float64(),
	}
	p.Defer = rng.Intn(2) == 0
	// One seed in five runs the WAL scenario fault-free (recovery of a
	// complete log must also hold); otherwise the log dies somewhere
	// inside — or just past — the expected ~40KB the workload writes.
	if rng.Intn(5) == 0 {
		p.WALFailAfter = -1
	} else {
		p.WALFailAfter = int64(1024 + rng.Intn(63*1024))
		p.WALTorn = rng.Intn(2) == 0
	}
	// Kill-and-restart knobs, drawn after everything else so the other
	// scenarios' schedules are unchanged per seed. The kill lands
	// between ~20% and ~70% of the way through the load; the tiny
	// segment and checkpoint thresholds force rotation + truncation to
	// happen before the kill, so recovery crosses real checkpoint and
	// truncation boundaries.
	p.KillClients = 2 + rng.Intn(2)
	p.KillSubs = 30 + rng.Intn(31)
	total := p.KillClients * p.KillSubs
	p.KillAfterAcks = total/5 + rng.Intn(total/2)
	p.KillSegmentBytes = int64(4096 + rng.Intn(4096))
	p.KillCheckpointBytes = int64(16384 + rng.Intn(16384))
	p.KillRedeliver = 0.2 + 0.3*rng.Float64()
	// Overload + WAL-stall knobs, drawn after the kill knobs for the
	// same reason: earlier scenarios' per-seed schedules must not shift.
	// The stall always exceeds the scenario's 10ms trip latency and the
	// deadlines always undercut the stall, so every seed exercises both
	// the breaker trip and deadline expiry under queueing.
	p.OverClients = 2 + rng.Intn(2)
	p.OverBurst = 24 + rng.Intn(17)
	p.OverStall = time.Duration(60+rng.Intn(91)) * time.Millisecond
	p.OverDeadlineMS = int64(40 + rng.Intn(41))
	p.OverLowPri = 0.3 + 0.4*rng.Float64()
	// Shard-crash knobs, drawn last for the same reason again. The kill
	// lands between ~20% and ~70% of the way through the load; the cross
	// fraction keeps a steady stream of 2PC rounds in flight so the kill
	// has prepared-but-undecided transactions to land on.
	p.ShardCount = 2 + rng.Intn(3) // 2..4
	p.ShardClients = 2 + rng.Intn(2)
	p.ShardSubs = 30 + rng.Intn(31)
	stotal := p.ShardClients * p.ShardSubs
	p.ShardAfterAcks = stotal/5 + rng.Intn(stotal/2)
	p.ShardCross = 0.25 + 0.5*rng.Float64()
	p.ShardRedeliver = 0.2 + 0.3*rng.Float64()
	p.ShardSegBytes = int64(4096 + rng.Intn(4096))
	p.ShardCkptBytes = int64(16384 + rng.Intn(16384))
	// Replica-failover knobs, drawn last — the standing rule: new knobs
	// append after every existing draw so earlier scenarios' per-seed
	// schedules never shift. The child reuses the shard-crash segment
	// and checkpoint thresholds (it is the same sharded server).
	p.ReplShards = 2 + rng.Intn(2) // 2..3
	p.ReplClients = 2 + rng.Intn(2)
	p.ReplSubs = 25 + rng.Intn(26)
	rtotal := p.ReplClients * p.ReplSubs
	p.ReplAfterAcks = rtotal/5 + rng.Intn(rtotal/2)
	p.ReplCross = 0.25 + 0.5*rng.Float64()
	p.ReplRedeliver = 0.2 + 0.3*rng.Float64()
	// Auto-failover knobs, appended after every existing draw (the
	// standing rule once more). The lease TTL is short enough to keep
	// the scenario fast but long enough that a healthy primary under
	// real-fsync load never misses a whole grant bound (1.75x TTL) of
	// renewals from scheduling noise alone.
	p.AutoShards = 2 + rng.Intn(2) // 2..3
	p.AutoClients = 2 + rng.Intn(2)
	p.AutoSubs = 25 + rng.Intn(26)
	ototal := p.AutoClients * p.AutoSubs
	p.AutoAfterAcks = ototal/5 + rng.Intn(ototal/2)
	p.AutoCross = 0.25 + 0.5*rng.Float64()
	p.AutoRedeliver = 0.2 + 0.3*rng.Float64()
	p.AutoLeaseTTL = time.Duration(300+rng.Intn(201)) * time.Millisecond
	return p
}

// EngineHooks builds the engine fault hooks driven by this plan. The
// returned hooks are stateless and safe for concurrent use: every
// decision is a site hash of the plan's seed.
func (p Plan) EngineHooks() *engine.Hooks {
	return &engine.Hooks{
		BeforeAttempt: func(worker, txnID, attempt int) time.Duration {
			h := site(p.Seed, PointWorkerStall, int64(txnID), int64(attempt))
			if hit(h, p.StallRate) {
				return stretch(h, p.StallMax)
			}
			return 0
		},
		BeforeOp: func(worker, txnID, opIdx int) time.Duration {
			h := site(p.Seed, PointAccessLatency, int64(txnID), int64(opIdx))
			if hit(h, p.OpLatRate) {
				return stretch(h, p.OpLatMax)
			}
			return 0
		},
		BeforeDepWait: func(worker, txnID, dep int) time.Duration {
			h := site(p.Seed, PointDepWaitStall, int64(txnID), int64(dep))
			if hit(h, 0.2) {
				return stretch(h, p.DepStall)
			}
			return 0
		},
		SkewBusy: func(worker int, busy time.Duration) time.Duration {
			h := site(p.Seed, PointClockSkew, int64(worker))
			f := 1 + p.Skew*(2*frac(h)-1)
			return time.Duration(float64(busy) * f)
		},
	}
}

// engineSummary renders the engine-fault side of the schedule; it is
// part of the verdict line and therefore deterministic.
func (p Plan) engineSummary() string {
	return fmt.Sprintf("proto=%s workers=%d stall=%.3f/%s oplat=%.3f/%s skew=%.3f defer=%v",
		p.Protocol, p.Workers, p.StallRate, p.StallMax, p.OpLatRate, p.OpLatMax, p.Skew, p.Defer)
}

// walSummary renders the WAL fault schedule.
func (p Plan) walSummary() string {
	if p.WALFailAfter < 0 {
		return p.engineSummary() + " wal=healthy"
	}
	mode := "clean"
	if p.WALTorn {
		mode = "torn"
	}
	return fmt.Sprintf("%s wal=%s@%d", p.engineSummary(), mode, p.WALFailAfter)
}

// simSummary renders the simulator noise schedule.
func (p Plan) simSummary() string {
	return fmt.Sprintf("workers=%d noise=%.3f", p.Workers, p.SimNoise)
}

// serverSummary renders the serving-fault schedule.
func (p Plan) serverSummary() string {
	return fmt.Sprintf("proto=%s workers=%d drop=%.3f burst=%dx%d queue=%d",
		p.Protocol, p.Workers, p.DropRate, p.BurstEvery, p.BurstSize, p.QueueDepth)
}

// killSummary renders the kill-and-restart schedule.
func (p Plan) killSummary() string {
	return fmt.Sprintf("proto=%s workers=%d load=%dx%d kill@%d seg=%d ckpt=%d redeliver=%.3f",
		p.Protocol, p.Workers, p.KillClients, p.KillSubs, p.KillAfterAcks,
		p.KillSegmentBytes, p.KillCheckpointBytes, p.KillRedeliver)
}

// shardSummary renders the shard-crash schedule.
func (p Plan) shardSummary() string {
	return fmt.Sprintf("proto=%s workers=%d shards=%d load=%dx%d kill@%d cross=%.3f seg=%d ckpt=%d redeliver=%.3f",
		p.Protocol, p.Workers, p.ShardCount, p.ShardClients, p.ShardSubs, p.ShardAfterAcks,
		p.ShardCross, p.ShardSegBytes, p.ShardCkptBytes, p.ShardRedeliver)
}

// replicaSummary renders the replica-failover schedule.
func (p Plan) replicaSummary() string {
	return fmt.Sprintf("proto=%s workers=%d shards=%d load=%dx%d kill@%d cross=%.3f seg=%d ckpt=%d redeliver=%.3f",
		p.Protocol, p.Workers, p.ReplShards, p.ReplClients, p.ReplSubs, p.ReplAfterAcks,
		p.ReplCross, p.ShardSegBytes, p.ShardCkptBytes, p.ReplRedeliver)
}

// autoSummary renders the auto-failover schedule.
func (p Plan) autoSummary() string {
	return fmt.Sprintf("proto=%s workers=%d shards=%d load=%dx%d kill@%d cross=%.3f ttl=%s redeliver=%.3f",
		p.Protocol, p.Workers, p.AutoShards, p.AutoClients, p.AutoSubs, p.AutoAfterAcks,
		p.AutoCross, p.AutoLeaseTTL, p.AutoRedeliver)
}

// autoCross decides whether auto-failover submission (c, i) spans two
// shards.
func (p Plan) autoCross(c, i int) bool {
	return hit(site(p.Seed, PointAutoCross, int64(c), int64(i)), p.AutoCross)
}

// redeliverAutoAcked decides whether the acked auto-failover
// submission (c, i) is redelivered after the failover (expected
// verdict: Duplicate).
func (p Plan) redeliverAutoAcked(client, i int) bool {
	return hit(site(p.Seed, PointAutoRedeliver, int64(client), int64(i)), p.AutoRedeliver)
}

// replCross decides whether replica-failover submission (c, i) spans
// two shards.
func (p Plan) replCross(c, i int) bool {
	return hit(site(p.Seed, PointReplCross, int64(c), int64(i)), p.ReplCross)
}

// redeliverReplAcked decides whether the acked replica-failover
// submission (c, i) is redelivered after the failover (expected
// verdict: Duplicate).
func (p Plan) redeliverReplAcked(client, i int) bool {
	return hit(site(p.Seed, PointReplRedeliver, int64(client), int64(i)), p.ReplRedeliver)
}

// crossShard decides whether shard-crash submission (c, i) spans two
// shards.
func (p Plan) crossShard(c, i int) bool {
	return hit(site(p.Seed, PointShardCross, int64(c), int64(i)), p.ShardCross)
}

// redeliverShardAcked decides whether the acked shard-crash submission
// (c, i) is redelivered after the restart (expected verdict:
// Duplicate).
func (p Plan) redeliverShardAcked(client, i int) bool {
	return hit(site(p.Seed, PointShardRedeliver, int64(client), int64(i)), p.ShardRedeliver)
}

// overloadSummary renders the overload + WAL-stall schedule.
func (p Plan) overloadSummary() string {
	return fmt.Sprintf("proto=%s workers=%d burst=%dx%d stall=%s deadline=%dms lowpri=%.3f",
		p.Protocol, p.Workers, p.OverClients, p.OverBurst, p.OverStall, p.OverDeadlineMS, p.OverLowPri)
}

// lowPriority decides the priority class of overload burst submission
// (c, i).
func (p Plan) lowPriority(c, i int) bool {
	return hit(site(p.Seed, PointOverloadPri, int64(c), int64(i)), p.OverLowPri)
}

// redeliverAcked decides whether the acked submission (c, i) is
// redelivered after the restart (expected verdict: Duplicate).
func (p Plan) redeliverAcked(client, i int) bool {
	return hit(site(p.Seed, PointKillRedeliver, int64(client), int64(i)), p.KillRedeliver)
}

// dropSubmission decides whether submission i of client c loses its
// connection right after the request is written.
func (p Plan) dropSubmission(client, i int) bool {
	return hit(site(p.Seed, PointConnDrop, int64(client), int64(i)), p.DropRate)
}

// hotKey returns a deterministic contended key for submission (c, i, j)
// out of a small hot set, so serving-scenario transactions conflict.
func (p Plan) hotKey(table uint16, client, i, j int) txn.Key {
	h := site(p.Seed, "server/hot-key", int64(client), int64(i), int64(j))
	return txn.MakeKey(table, h%64)
}
