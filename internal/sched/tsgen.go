package sched

import (
	"math/rand"
	"sort"

	"tskd/internal/clock"
	"tskd/internal/conflict"
	"tskd/internal/estimator"
	"tskd/internal/partition"
	"tskd/internal/txn"
)

// ResidualOrder selects the ordering R̂ of the residual set TSgen
// iterates over (line 4 of Algorithm 1).
type ResidualOrder int

const (
	// OrderRandom is the paper's default: a random permutation.
	OrderRandom ResidualOrder = iota
	// OrderLongestFirst schedules costly transactions first, giving
	// them first pick of queue slots (ablation).
	OrderLongestFirst
	// OrderMostConflictingFirst schedules high-degree transactions
	// first (ablation).
	OrderMostConflictingFirst
)

// CkRCFMode selects the runtime-conflict check used when merging a
// residual transaction (procedure ckRCF).
type CkRCFMode int

const (
	// CkExact tests exact interval overlap against every queued
	// conflicting transaction.
	CkExact CkRCFMode = iota
	// CkTail conservatively rejects the merge if any conflicting
	// transaction in another queue ends after the candidate's start —
	// cheaper, never admits a runtime conflict CkExact would reject
	// (ablation).
	CkTail
)

// Options configures TSgen.
type Options struct {
	// Order is the residual iteration order (default OrderRandom).
	Order ResidualOrder
	// CkRCF is the runtime-conflict check variant (default CkExact).
	CkRCF CkRCFMode
	// Seed drives the random residual order.
	Seed int64
}

// transaction placement state during TSgen
const (
	stUnseen  = -1 // residual, not yet examined
	stQueued  = -2 // sentinel base; >=0 means "still in partition i"
	stInRs    = -3 // moved to R_s
	stPending = -4
)

// Generate is algorithm TSgen (Algorithm 1): it refines the partition
// plan into a schedule for w over plan.K() threads, reusing the
// conflict graph g built by the partitioner and the cost estimates of
// est. Of g it reads only the rows of plan.Residual (lines 7-10 look at
// the conflicts of T* alone), which is what keeps TSgen linear in the
// residual when g computes rows on demand.
//
// The plan's CC-free partitions must be pairwise conflict-free (as
// produced natively by Strife, or via partition.ExtractResidual for
// Schism/Horticulture); TSgen's RC-freedom invariant builds on that.
//
// Scheduling from scratch (Section 4, "Scheduling without input
// partition") is the special case of a plan whose partitions are empty
// and whose residual is all of w — see GenerateFromScratch.
func Generate(w txn.Workload, plan *partition.Plan, g *conflict.Graph, est estimator.Estimator, opt Options) *Schedule {
	k := plan.K()
	n := len(w)
	s := &Schedule{
		Queues: make([][]*txn.Transaction, k),
		place:  make([]Placement, n),
		cost:   make([]clock.Units, n),
		graph:  g,
	}
	// Estimate time(T) for every transaction once.
	for _, t := range w {
		c := est.Estimate(t)
		if c <= 0 {
			c = 1 // a zero-cost transaction would make intervals degenerate
		}
		s.cost[t.ID] = c
	}

	// State per transaction: >=0 partition index; stUnseen residual
	// not yet examined; stInRs in R_s. Queue placement is tracked in
	// s.place with queuedIn[id] >= 0.
	state := make([]int, n)
	queuedIn := make([]int, n)
	for i := range state {
		state[i] = stPending
		queuedIn[i] = -1
	}

	// Partition bookkeeping: remaining members (in order) and loads.
	// load_i = total estimated cost of everything destined for thread
	// i (still-in-partition + already-queued), per line 2.
	load := make([]clock.Units, k)
	qEnd := make([]clock.Units, k) // interval cursor of queue i
	for i, part := range plan.Parts {
		for _, t := range part {
			state[t.ID] = i
			load[i] += s.cost[t.ID]
		}
	}
	for _, t := range plan.Residual {
		state[t.ID] = stUnseen
	}
	s.Stats.InputResidual = len(plan.Residual)

	// Degenerate case: with no threads everything stays residual.
	if k == 0 {
		for _, t := range plan.Residual {
			s.Residual = append(s.Residual, t)
			s.place[t.ID] = Placement{Queue: -1}
		}
		return s
	}

	enqueue := func(t *txn.Transaction, qi int) {
		s.place[t.ID] = Placement{Queue: qi, Start: qEnd[qi], End: qEnd[qi] + s.cost[t.ID]}
		s.Queues[qi] = append(s.Queues[qi], t)
		qEnd[qi] += s.cost[t.ID]
		queuedIn[t.ID] = qi
	}

	byID := w.ByID()

	// Residual iteration order R̂ (line 4).
	order := append([]*txn.Transaction(nil), plan.Residual...)
	switch opt.Order {
	case OrderLongestFirst:
		sort.SliceStable(order, func(a, b int) bool {
			return s.cost[order[a].ID] > s.cost[order[b].ID]
		})
	case OrderMostConflictingFirst:
		sort.SliceStable(order, func(a, b int) bool {
			return g.Degree(order[a].ID) > g.Degree(order[b].ID)
		})
	default:
		rng := rand.New(rand.NewSource(opt.Seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}

	for _, tStar := range order {
		// Line 6: pick the least-loaded thread l.
		l := 0
		for i := 1; i < k; i++ {
			if load[i] < load[l] {
				l = i
			}
		}
		// Lines 7-9: move every partition transaction in conflict with
		// T* into its queue, pinning its scheduled runtime before T*.
		for _, nb := range g.Neighbors(tStar.ID) {
			if pi := state[nb]; pi >= 0 {
				state[nb] = stQueued
				enqueue(byID[int(nb)], pi)
				s.Stats.Moved++
			}
		}
		// Line 10: ckRCF — would appending T* to Q_l conflict at
		// runtime with any queued transaction in another queue?
		tentative := Placement{Queue: l, Start: qEnd[l], End: qEnd[l] + s.cost[tStar.ID]}
		if s.ckRCF(tStar.ID, tentative, queuedIn, opt.CkRCF) {
			state[tStar.ID] = stQueued
			enqueue(tStar, l)
			load[l] += s.cost[tStar.ID]
			s.Stats.Merged++
		} else {
			state[tStar.ID] = stInRs
			s.Residual = append(s.Residual, tStar)
			s.place[tStar.ID] = Placement{Queue: -1}
		}
	}

	// Lines 13-14: append the remaining partition transactions to
	// their queues, in partition order.
	for i, part := range plan.Parts {
		for _, t := range part {
			if state[t.ID] == i {
				state[t.ID] = stQueued
				enqueue(t, i)
			}
		}
	}
	return s
}

// ckRCF reports whether placing the candidate at the tentative
// placement keeps all queues pairwise RC-free. It inspects only the
// candidate's conflict-graph neighborhood: a runtime conflict needs a
// conventional conflict first.
func (s *Schedule) ckRCF(id int, tentative Placement, queuedIn []int, mode CkRCFMode) bool {
	for _, nb := range s.graph.Neighbors(id) {
		qi := queuedIn[nb]
		if qi < 0 || qi == tentative.Queue {
			continue
		}
		np := s.place[nb]
		switch mode {
		case CkTail:
			if np.End > tentative.Start {
				return false
			}
		default:
			if tentative.Overlaps(np) {
				return false
			}
		}
	}
	return true
}

// GenerateFromScratch computes a schedule for w without an input
// partition plan: all of w is treated as residual over empty CC-free
// partitions, exactly as Section 4 describes for TSKD[0].
func GenerateFromScratch(w txn.Workload, g *conflict.Graph, est estimator.Estimator, k int, opt Options) *Schedule {
	plan := partition.NewPlan(k)
	plan.Residual = append(plan.Residual, w...)
	return Generate(w, plan, g, est, opt)
}
