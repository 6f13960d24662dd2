package deferment

import (
	"math/rand"
	"slices"

	"tskd/internal/txn"
)

// Deferrer is the TsDEFER decision policy with the two knobs of
// Section 5 (#lookups and deferp%) plus the look-ahead horizon the
// paper suggests for long-running transactions.
//
// Before executing T, the worker calls ShouldDefer: the policy issues
// Lookups probes; each retrieved item that T itself accesses witnesses
// a probable runtime conflict. Following the paper's rule — defer when
// #lookups − d ≥ threshold, where d is the number of distinct
// non-conflicting items retrieved — the transaction is deferred with
// probability DeferP when at least Threshold probes witness conflicts
// (the two formulations coincide for distinct probes, and Example 5's
// arithmetic follows this one).
type Deferrer struct {
	// Lookups is #lookups, the probe budget per decision. Zero
	// disables TsDEFER entirely ("In the extreme case, one can disable
	// TsDEFER with #lookups = 0").
	Lookups int
	// DeferP is deferp%, the probability of deferring a candidate in
	// [0,1].
	DeferP float64
	// Threshold is the number of conflict witnesses required (default
	// 1, "typically 1" in the paper).
	Threshold int
	// Horizon is how many transactions past each remote head are
	// eligible for probing (default 1: the active transaction only).
	// Larger horizons catch conflicts with transactions about to start,
	// useful when conflicts are expensive.
	Horizon int
	// adaptive enables online deferp adaptation; see EnableAdaptive.
	adaptive bool
	adapt    adaptiveState
	// Exact switches the probe granularity: false (the paper-literal
	// mode) probes one random *item* of a remote active write set per
	// lookup; true probes one random *thread* per lookup and
	// intersects the candidate's access set with that thread's active
	// write set by sorted merge — still lock-free and bounded by the
	// declared set sizes, but with full sensitivity for transactions
	// whose sets are larger than a handful of items (YCSB's 16
	// accesses dilute per-item probes to near-uselessness).
	Exact bool

	tracker *Tracker
}

// NewDeferrer returns a policy over tr with the paper's default knobs
// (#lookups = 2, deferp% = 0.6).
func NewDeferrer(tr *Tracker) *Deferrer {
	return &Deferrer{Lookups: 2, DeferP: 0.6, Threshold: 1, Horizon: 1, tracker: tr}
}

// Tracker returns the underlying progress tracker.
func (d *Deferrer) Tracker() *Tracker { return d.tracker }

// ShouldDefer decides whether thread self should defer t instead of
// executing it now. rng is the worker's private RNG (no shared state).
func (d *Deferrer) ShouldDefer(self int, t *txn.Transaction, rng *rand.Rand) bool {
	if d.Lookups <= 0 || d.tracker == nil {
		return false
	}
	horizon := d.Horizon
	if horizon <= 0 {
		horizon = 1
	}
	witnesses := 0
	if d.Exact {
		for i := 0; i < d.Lookups; i++ {
			ahead := 0
			if horizon > 1 {
				ahead = rng.Intn(horizon)
			}
			ws, ok := d.tracker.ActiveWriteSet(self, ahead, rng)
			if ok && (intersects(t.ReadSet(), ws) || intersects(t.WriteSet(), ws)) {
				witnesses++
			}
		}
		out := d.decide(witnesses, rng)
		d.observe(out)
		return out
	}
	var seen [8]txn.Key // dedupe buffer for the (small) probe budget
	nSeen := 0
	base := rng.Intn(1 << 20) // per-decision offset for index selection
	for i := 0; i < d.Lookups; i++ {
		ahead := 0
		if horizon > 1 {
			ahead = rng.Intn(horizon)
		}
		item, ok := d.tracker.Lookup(self, ahead, base+i, rng)
		if !ok {
			continue
		}
		dup := false
		for j := 0; j < nSeen; j++ {
			if seen[j] == item {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if nSeen < len(seen) {
			seen[nSeen] = item
			nSeen++
		}
		if accesses(t, item) {
			witnesses++
		}
	}
	out := d.decide(witnesses, rng)
	d.observe(out)
	return out
}

// decide applies the threshold and deferp% knobs to the witness count.
func (d *Deferrer) decide(witnesses int, rng *rand.Rand) bool {
	threshold := d.Threshold
	if threshold <= 0 {
		threshold = 1
	}
	if witnesses < threshold {
		return false
	}
	return rng.Float64() < d.DeferP
}

// intersects reports whether two sorted key sets share an element.
func intersects(a, b []txn.Key) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// accesses reports whether t reads or writes item (a retrieved item is
// in a remote write set, so any access by t is a conflict under
// serializability).
func accesses(t *txn.Transaction, item txn.Key) bool {
	return t.Reads(item) || t.Writes(item)
}

// MaskWriteSets returns predicted write sets for w with accuracy alpha:
// each transaction keeps only ⌈alpha·|WS|⌉ of its write-set items
// (deterministically per seed). alpha = 1 returns exact sets. This
// implements the α knob of the access-set-accuracy experiment
// (Fig. 5h).
func MaskWriteSets(w txn.Workload, alpha float64, seed int64) [][]txn.Key {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	out := make([][]txn.Key, w.MaxID()+1)
	if alpha == 1 {
		// Exact sets (the common production setting): share each
		// transaction's own sorted write set instead of copying and
		// re-sorting it. The tracker treats predicted sets as
		// read-only, so aliasing is safe. No RNG: seeding one costs
		// more than a small bundle's whole mask.
		for _, t := range w {
			out[t.ID] = t.WriteSet()
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for _, t := range w {
		ws := t.WriteSet()
		n := int(float64(len(ws))*alpha + 0.9999)
		if n > len(ws) {
			n = len(ws)
		}
		cp := append([]txn.Key(nil), ws...)
		rng.Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		cp = cp[:n]
		slices.Sort(cp)
		out[t.ID] = cp
	}
	return out
}
