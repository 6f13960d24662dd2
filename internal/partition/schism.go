package partition

import (
	"math/rand"
	"slices"
	"sort"

	"tskd/internal/conflict"
	"tskd/internal/txn"
)

// Schism reimplements the workload-driven partitioner of Curino et al.
// (VLDB'10): model the workload as a graph whose edges are conflicts
// and compute a balanced k-way min-cut, so that conflicting
// transactions land in the same partition wherever balance permits.
// Curino et al. use METIS; we use the same multilevel scheme METIS
// popularized — heavy-edge-matching coarsening, greedy initial
// assignment, and boundary refinement — which reproduces balanced
// min-cuts at OLTP-bundle scale.
//
// Schism does not produce a residual; TSKD[C] extracts one with
// ExtractResidual as described in Section 6.1 of the TSKD paper.
type Schism struct {
	// MaxRefinePasses bounds boundary refinement (default 4).
	MaxRefinePasses int
	// Seed makes tie-breaking deterministic.
	Seed int64
}

// NewSchism returns Schism with default settings.
func NewSchism(seed int64) *Schism { return &Schism{MaxRefinePasses: 4, Seed: seed} }

// Name implements Partitioner.
func (s *Schism) Name() string { return "SCHISM" }

// coarseGraph is the working representation during multilevel
// partitioning: weighted vertices (transaction op counts) and weighted
// adjacency. Rows are sorted by neighbor and always walked in that
// order, so a run depends on Seed alone.
type coarseGraph struct {
	vwgt []int // vertex weights
	// adj[v] lists v's neighbors in ascending order and wgt[v] the
	// weights of those edges.
	adj, wgt [][]int32
	// members maps each coarse vertex to the original transaction
	// indices it contains.
	members [][]int32
}

// buildCoarse wraps the conflict graph as the finest level; its rows
// are g's own, not copies.
func buildCoarse(w txn.Workload, g *conflict.Graph) *coarseGraph {
	n := len(w)
	cg := &coarseGraph{
		vwgt:    make([]int, n),
		adj:     make([][]int32, n),
		wgt:     make([][]int32, n),
		members: make([][]int32, n),
	}
	for _, t := range w {
		cg.vwgt[t.ID] = t.Len()
		cg.members[t.ID] = []int32{int32(t.ID)}
	}
	for v := range cg.adj {
		cg.adj[v], cg.wgt[v] = g.Neighbors(v), g.Weights(v)
	}
	return cg
}

// coarsen performs one round of heavy-edge matching, merging matched
// vertex pairs. Returns the coarser graph and whether progress was
// made.
func (cg *coarseGraph) coarsen(rng *rand.Rand) (*coarseGraph, bool) {
	n := len(cg.vwgt)
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	merged := 0
	for _, v := range rng.Perm(n) {
		if match[v] >= 0 {
			continue
		}
		best, bestW := -1, int32(0)
		for i, u := range cg.adj[v] {
			if match[u] < 0 && cg.wgt[v][i] > bestW {
				best, bestW = int(u), cg.wgt[v][i]
			}
		}
		if best >= 0 {
			match[v], match[best] = best, v
			merged++
		}
	}
	if merged == 0 {
		return cg, false
	}
	// Number the coarse vertices by their lowest member.
	newID := make([]int32, n)
	next := 0
	entries := 0
	for v := 0; v < n; v++ {
		entries += len(cg.adj[v])
		if m := match[v]; m >= 0 && m < v {
			newID[v] = newID[m]
			continue
		}
		newID[v] = int32(next)
		next++
	}
	out := &coarseGraph{
		vwgt:    make([]int, next),
		adj:     make([][]int32, next),
		wgt:     make([][]int32, next),
		members: make([][]int32, next),
	}
	// Merged rows never hold more entries than the rows they merge, so
	// these two never reallocate under the row slices taken from them.
	nbr := make([]int32, 0, entries)
	wgt := make([]int32, 0, entries)
	sum := make([]int32, next) // edge weight gathered per coarse neighbor
	absorb := func(nv int32, x int) {
		out.vwgt[nv] += cg.vwgt[x]
		out.members[nv] = append(out.members[nv], cg.members[x]...)
		for i, u := range cg.adj[x] {
			nu := newID[u]
			if nu == nv {
				continue
			}
			if sum[nu] == 0 {
				nbr = append(nbr, nu)
			}
			sum[nu] += cg.wgt[x][i]
		}
	}
	for v := 0; v < n; v++ {
		m := match[v]
		if m >= 0 && m < v {
			continue // merged into m's vertex
		}
		nv := newID[v]
		lo := len(nbr)
		absorb(nv, v)
		if m >= 0 {
			absorb(nv, m)
		}
		row := nbr[lo:len(nbr):len(nbr)]
		slices.Sort(row)
		for _, nu := range row {
			wgt = append(wgt, sum[nu])
			sum[nu] = 0
		}
		out.adj[nv], out.wgt[nv] = row, wgt[lo:len(wgt):len(wgt)]
	}
	return out, true
}

// Partition implements Partitioner.
func (s *Schism) Partition(w txn.Workload, g *conflict.Graph, k int) *Plan {
	plan := NewPlan(k)
	if len(w) == 0 {
		return plan
	}
	rng := rand.New(rand.NewSource(s.Seed))
	cg := buildCoarse(w, g)

	// Coarsen until small or no progress.
	target := 8 * k
	if target < 32 {
		target = 32
	}
	for len(cg.vwgt) > target {
		next, ok := cg.coarsen(rng)
		if !ok {
			break
		}
		cg = next
	}

	// Initial assignment: heaviest vertices first onto the lightest
	// partition, preferring the partition with the strongest
	// connectivity when balance permits.
	n := len(cg.vwgt)
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	totalW := 0
	for _, vw := range cg.vwgt {
		totalW += vw
	}
	capLimit := totalW/k + totalW/(4*k) + 1
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cg.vwgt[order[a]] > cg.vwgt[order[b]] })
	load := make([]int, k)
	for _, v := range order {
		bestP, bestScore := -1, -1
		for p := 0; p < k; p++ {
			if load[p]+cg.vwgt[v] > capLimit && load[p] > 0 {
				continue
			}
			score := 0
			for i, u := range cg.adj[v] {
				if part[u] == p {
					score += int(cg.wgt[v][i])
				}
			}
			// Prefer connectivity, break ties toward lighter load.
			if score > bestScore || (score == bestScore && (bestP < 0 || load[p] < load[bestP])) {
				bestP, bestScore = p, score
			}
		}
		if bestP < 0 {
			bestP = argminInt(load)
		}
		part[v] = bestP
		load[bestP] += cg.vwgt[v]
	}

	// Refinement: greedy boundary moves that reduce the cut without
	// breaking balance.
	passes := s.MaxRefinePasses
	if passes <= 0 {
		passes = 4
	}
	for pass := 0; pass < passes; pass++ {
		moved := false
		for v := 0; v < n; v++ {
			cur := part[v]
			gain := make([]int, k)
			for i, u := range cg.adj[v] {
				gain[part[u]] += int(cg.wgt[v][i])
			}
			bestP := cur
			for p := 0; p < k; p++ {
				if p == cur {
					continue
				}
				if gain[p] > gain[bestP] && load[p]+cg.vwgt[v] <= capLimit {
					bestP = p
				}
			}
			if bestP != cur {
				load[cur] -= cg.vwgt[v]
				load[bestP] += cg.vwgt[v]
				part[v] = bestP
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	// Project back to transactions.
	byID := w.ByID()
	for v := 0; v < n; v++ {
		for _, id := range cg.members[v] {
			plan.Parts[part[v]] = append(plan.Parts[part[v]], byID[int(id)])
		}
	}
	// Keep partition-internal order deterministic (by ID).
	for i := range plan.Parts {
		sort.Slice(plan.Parts[i], func(a, b int) bool {
			return plan.Parts[i][a].ID < plan.Parts[i][b].ID
		})
	}
	return plan
}
