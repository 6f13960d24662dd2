// Package shard is the execution runtime of the serving layer: the
// paper's bundled TsPAR execution (Section 2.1) and its shared-nothing
// generalization (Section 3, Limitations (3)), executed for real rather
// than modeled in virtual time.
//
// The key space is hash-partitioned over N independent engine
// instances, units. Each unit owns its slice exclusively: its own store,
// its own redo WAL directory with checkpoint and dedup sidecars, its own
// bounded admission queue and TsPAR bundling loop over a core.Pipeline,
// where transactions whose deadline passed while they queued are
// dropped and the overload controller is fed. An unsharded server is a
// one-unit Runtime over a flat data directory, so a single-shard
// transaction flows through exactly the machinery an unsharded server
// runs, just confined to the shard that owns its keys. Submissions are
// pooled Tasks that own their transaction; each is answered through a
// Replier, buffered for a whole bundle and flushed once per bundle.
//
// Cross-shard transactions are the residual. They commit through a
// coordinator-driven two-phase commit over the shards' operation
// channels: each participant executes its sub-plan between bundles
// (when its store is quiescent), buffers the redo images, appends a
// prepare record to its WAL, and votes; a coordinator that collects
// yes from every participant appends a commit decision to the
// coordinator log — the transaction's durability point — acknowledges
// the client, and tells the participants to install. The protocol is
// presumed abort: only commit decisions are ever logged, so a prepare
// record with no matching decision resolves to abort at recovery, and
// an aborting coordinator writes nothing. Keys touched by an in-doubt
// prepare are quiesced — local transactions that overlap them are
// parked until the decision arrives.
//
// Conflicts between cross-shard transactions are ordered where they
// are cheapest to see, at the coordinator (hold.go): it is the paper's
// runtime-conflict idea, TsDEFER, one level up. Every cross-shard
// transaction takes all of its keys in one in-flight key table before
// any prepare is sent, and one that shares a key with a dispatched-but-
// undecided transaction waits there, first come first served per key,
// until that one's decision is on its way to the participants. Taking
// keys all at once, in one place, means no deadlock and no starvation,
// and it means participants do not see overlapping prepares. They
// still never wait: a prepare that does overlap an in-doubt one (or
// reads a missing row, or cannot be logged) is voted down at once and
// the client told to come back — the safety net under the hold, not
// the scheduling policy.
//
// Recovery replays all shards to a consistent cut: the coordinator log
// is scanned first (committed global-txn set + boot epoch), then each
// shard restores its newest valid checkpoint, replays its WAL tail
// with prepares parked, and resolves every parked prepare against the
// committed set — apply if decided, presumed-abort otherwise — before
// any shard accepts traffic. See DESIGN.md §11.
package shard

import (
	"math/rand"

	"tskd/internal/txn"
)

// fibMult is the Fibonacci-hashing multiplier of the key → shard
// placement.
const fibMult = 0x9E3779B97F4A7C15

// MaxShards bounds the shard count (participant sets are tracked as a
// 64-bit mask).
const MaxShards = 64

// Router maps keys to owning shards by hash partitioning.
type Router struct {
	// Shards is the number of shards (1..MaxShards).
	Shards int
}

// Home returns the shard owning key k.
func (r Router) Home(k txn.Key) int {
	if r.Shards <= 1 {
		return 0
	}
	return int((uint64(k) * fibMult >> 32) % uint64(r.Shards))
}

// ParticipantMask returns the bitmask of shards touched by t's declared
// operations.
func (r Router) ParticipantMask(t *txn.Transaction) uint64 {
	var mask uint64
	for _, op := range t.Ops {
		mask |= 1 << uint(r.Home(op.Key))
	}
	return mask
}

// Participants appends the sorted distinct shards touched by t to buf
// and returns it. A transaction with no operations homes to shard 0.
func (r Router) Participants(t *txn.Transaction, buf []int) []int {
	mask := r.ParticipantMask(t)
	if mask == 0 {
		return append(buf, 0)
	}
	for i := 0; i < r.Shards; i++ {
		if mask&(1<<uint(i)) != 0 {
			buf = append(buf, i)
		}
	}
	return buf
}

// Confine rewrites w in place for an n-shard deployment: each
// transaction's keys are remapped (by linear probing within the row
// space [0, rowBound)) so they all land on one seed-chosen shard,
// except a crossFrac fraction whose last operation is steered to a
// second shard — the cross-shard residual, at a configurable rate.
// Benchmark and load tooling share this so "X% cross-shard" means the
// same thing everywhere. Returns how many transactions ended up
// single- vs cross-shard.
func Confine(w txn.Workload, n int, crossFrac float64, rowBound uint64, seed int64) (single, cross int) {
	if n <= 1 || rowBound == 0 {
		return len(w), 0
	}
	r := Router{Shards: n}
	rng := rand.New(rand.NewSource(seed ^ 0x5A4D5368))
	for _, t := range w {
		if len(t.Ops) == 0 {
			single++
			continue
		}
		home := rng.Intn(n)
		ops := t.Ops
		for i := range ops {
			ops[i].Key = probeToShard(r, ops[i].Key, home, rowBound)
		}
		if len(ops) >= 2 && rng.Float64() < crossFrac {
			other := (home + 1 + rng.Intn(n-1)) % n
			last := len(ops) - 1
			ops[last].Key = probeToShard(r, ops[last].Key, other, rowBound)
			cross++
		} else {
			single++
		}
		t.SetOps(ops) // invalidate cached access sets
	}
	return single, cross
}

// probeToShard walks rows upward (mod rowBound) from k until the key
// lands on shard want. With Fibonacci hashing a handful of probes
// suffice; the walk is bounded defensively.
func probeToShard(r Router, k txn.Key, want int, rowBound uint64) txn.Key {
	table, row := k.Table(), k.Row()%rowBound
	for i := uint64(0); i < rowBound; i++ {
		cand := txn.MakeKey(table, (row+i)%rowBound)
		if r.Home(cand) == want {
			return cand
		}
	}
	return k // unreachable for rowBound >= shards
}
