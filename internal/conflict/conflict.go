// Package conflict defines transaction conflicts relative to an
// isolation level (Section 2.1 of the paper) and builds the conflict
// graph G_c that both the partitioners and the TSgen scheduler consult.
//
// Under serializability, T and T' conflict iff they access a common
// data item and at least one of them writes it. Under snapshot
// isolation, they conflict iff their write sets intersect. The graph is
// built once per bundle and reused by the partitioner and TSgen exactly
// as the paper prescribes.
//
// # Layout
//
// A Graph is in compressed-sparse-row form: two flat []int32 arenas nbr
// and wgt plus one span per row, where row id occupies
// nbr[rows[id].lo:rows[id].hi] (neighbor IDs, strictly ascending) and
// the same range of wgt (the weight of each of those edges). Neighbors
// and Weights return those ranges as sub-slices; every undirected edge
// is stored in both of its rows.
//
// # Edge weight
//
// The weight of edge {a,b} is the number of (key, access of a, access
// of b) combinations in which at least one access is a write, where a
// transaction has one read access per key of its ReadSet (ignored under
// snapshot isolation) and one write access per key of its WriteSet. Two
// read-modify-writes of one key therefore weigh 3 (RW, WR, WW), a
// blind write against a read weighs 1. Schism cuts by these weights.
//
// # Builder reuse and graph lifetime
//
// Builder.Build does only the part that is linear in the bundle: it
// checks the IDs, interns the keys and lists each key's accessors. A
// row is computed the first time Neighbors, Weights, Degree or Conflict
// asks for it and appended to the arenas, so rows lie there in
// first-touch order and a consumer pays for the rows it reads: TSgen
// reads those of the residual, Strife none, Schism and
// partition.ExtractResidual all of them; Edges forces every row. The
// arenas are sized for all rows up front, so a row never moves once it
// has been returned, and a warmed Builder builds and serves rows
// without allocating.
//
// The price is a narrow contract. Reading a row may write it, so a
// graph obtained from a Builder belongs to one goroutine until every
// row has been read; and the graph, with every slice obtained from it,
// is overwritten by the next Build on the same Builder. A Builder is
// not safe for concurrent use.
//
// Build (the package function) lifts both limits: it forces every row,
// in ID order, and detaches the graph from its Builder, so the result
// is immutable, safe for concurrent readers, laid out row after row,
// and lives as long as it is referenced.
package conflict

import (
	"fmt"
	"math/bits"
	"sort"

	"tskd/internal/txn"
)

// Isolation selects the conflict definition.
type Isolation int

const (
	// Serializability: conflict = shared item with at least one writer.
	Serializability Isolation = iota
	// SnapshotIsolation: conflict = overlapping write sets.
	SnapshotIsolation
)

func (i Isolation) String() string {
	switch i {
	case Serializability:
		return "SERIALIZABLE"
	case SnapshotIsolation:
		return "SNAPSHOT"
	default:
		return fmt.Sprintf("Isolation(%d)", int(i))
	}
}

// Conflicting reports whether a and b are in conflict under the given
// isolation level, by merging their sorted access sets.
func Conflicting(a, b *txn.Transaction, level Isolation) bool {
	if level == SnapshotIsolation {
		return intersects(a.WriteSet(), b.WriteSet())
	}
	return intersects(a.WriteSet(), b.WriteSet()) ||
		intersects(a.WriteSet(), b.ReadSet()) ||
		intersects(a.ReadSet(), b.WriteSet())
}

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

// Graph is the undirected conflict graph of a workload: nodes are
// transactions (addressed by their dense IDs), and an edge joins every
// conflicting pair. Rows are sorted for O(log d) membership tests. See
// the package comment for the layout, the weight definition and, for a
// graph that came from a Builder, who may read it and for how long.
type Graph struct {
	level Isolation
	rows  []span  // per row: its range of nbr and wgt
	nbr   []int32 // arenas, filled up to used in first-touch order
	wgt   []int32
	used  int32
	built int      // rows computed so far
	from  *Builder // the index rows are computed from; nil once detached
}

// span is a row's range [lo, hi) of the arenas; lo < 0 marks a row not
// computed yet.
type span struct{ lo, hi int32 }

// Build constructs the conflict graph for w under the given isolation
// level, every row computed: the result is immutable and safe for
// concurrent readers. Transaction IDs must be dense in [0, len(w));
// Build panics otherwise, since every consumer indexes by ID.
func Build(w txn.Workload, level Isolation) *Graph {
	g := *new(Builder).Build(w, level) // copied out so the scratch is not kept alive
	g.Edges()
	g.from = nil
	return &g
}

// Builder builds conflict graphs, reusing its scratch and the graph's
// own arrays from one Build to the next. The zero value is ready.
type Builder struct {
	g Graph

	// Key interning: an open-addressing table from key to a dense key
	// number, rebuilt per bundle. slot holds key number + 1, 0 = empty.
	slot []int32
	keys []txn.Key

	// Per transaction ID, the key numbers of its accesses: reads in
	// ref[tOff[id]:tMid[id]], writes in ref[tMid[id]:tOff[id+1]].
	byID []*txn.Transaction
	ref  []int32
	tOff []int32
	tMid []int32

	// Per key number k, the IDs of the transactions accessing it, one
	// entry per access: readers in acc[kEnd[k]:kWr[k]], then writers in
	// acc[kWr[k]:kEnd[k+1]], each run in ascending order. A
	// read-modify-write is in both runs.
	acc  []int32
	kEnd []int32
	kWr  []int32

	// Row accumulators: cnt[o] is the weight gathered so far for the
	// edge to o, seen has bit o set iff cnt[o] may be non-zero. Both
	// are all-zero between rows.
	cnt  []int32
	seen []uint64
}

// Build indexes w for the conflict graph under level and returns the
// graph with no row computed yet; rows appear as they are read (see the
// package comment). Graph and rows live in storage the next call
// reuses, so they are valid only until then, and until every row has
// been read the graph must stay on the calling goroutine. IDs are
// checked as in the package-level Build.
func (b *Builder) Build(w txn.Workload, level Isolation) *Graph {
	n := len(w)
	b.byID = grow(b.byID, n)
	clear(b.byID)
	accesses := 0
	for _, t := range w {
		if t.ID < 0 || t.ID >= n {
			panic(fmt.Sprintf("conflict: transaction ID %d outside [0,%d)", t.ID, n))
		}
		if b.byID[t.ID] != nil {
			panic(fmt.Sprintf("conflict: transaction ID %d appears twice", t.ID))
		}
		b.byID[t.ID] = t
		if level == Serializability {
			accesses += len(t.ReadSet())
		}
		accesses += len(t.WriteSet())
	}
	b.index(level, accesses)
	clear(b.byID) // do not pin the bundle's transactions

	g := &b.g
	g.level, g.from = level, b
	g.rows = grow(g.rows, n)
	for id := range g.rows {
		g.rows[id].lo = -1
	}
	g.nbr = grow(g.nbr, b.rowBound())
	g.wgt = grow(g.wgt, len(g.nbr))
	g.used, g.built = 0, 0
	b.cnt = grow(b.cnt, n)
	b.seen = grow(b.seen, (n+63)/64)
	return g
}

// row returns the span of row id, computing the row on first use.
func (g *Graph) row(id int) span {
	if s := g.rows[id]; s.lo >= 0 {
		return s
	}
	return g.fill(id)
}

// fill computes row id into the arenas: every writer of a key the
// transaction reads and every accessor of a key it writes gains one
// unit of weight per access, and sweeping the bitset in word order
// emits the row sorted.
func (g *Graph) fill(id int) span {
	b := g.from
	cnt, seen := b.cnt, b.seen
	lo, mid, hi := b.tOff[id], b.tMid[id], b.tOff[id+1]
	for _, k := range b.ref[lo:mid] {
		tally(b.acc[b.kWr[k]:b.kEnd[k+1]], cnt, seen)
	}
	for _, k := range b.ref[mid:hi] {
		tally(b.acc[b.kEnd[k]:b.kEnd[k+1]], cnt, seen)
	}
	cnt[id] = 0 // no self edge
	seen[id>>6] &^= 1 << (id & 63)
	e := g.used
	for wi, word := range seen {
		if word == 0 {
			continue
		}
		seen[wi] = 0
		for ; word != 0; word &= word - 1 {
			o := int32(wi<<6 | bits.TrailingZeros64(word))
			g.nbr[e], g.wgt[e] = o, cnt[o]
			cnt[o] = 0
			e++
		}
	}
	s := span{g.used, e}
	g.rows[id] = s
	g.used = e
	g.built++
	return s
}

// tally adds one unit of weight for every entry of list.
func tally(list, cnt []int32, seen []uint64) {
	for _, o := range list {
		cnt[o]++
		seen[o>>6] |= 1 << (o & 63)
	}
}

// index interns the keys of the transactions in b.byID and fills the
// per-transaction key references and the per-key accessor lists.
// accesses is the total number of (transaction, key) accesses that
// count under level.
func (b *Builder) index(level Isolation, accesses int) {
	n := len(b.byID)
	// At most half full, so linear probes stay short.
	shift := 64 - bits.Len(uint(2*accesses))
	b.slot = grow(b.slot, 1<<(64-shift))
	clear(b.slot)
	b.keys = b.keys[:0]
	b.ref = grow(b.ref, accesses)
	b.tOff = grow(b.tOff, n+1)
	b.tMid = grow(b.tMid, n)
	// First count: kWr[k] readers, kEnd[k+1] writers of key k.
	b.kEnd = grow(b.kEnd, accesses+1)
	b.kWr = grow(b.kWr, accesses)
	clear(b.kEnd)
	clear(b.kWr)
	pos := int32(0)
	for id, t := range b.byID {
		b.tOff[id] = pos
		if level == Serializability {
			for _, key := range t.ReadSet() {
				k := b.intern(key, shift)
				b.ref[pos] = k
				pos++
				b.kWr[k]++
			}
		}
		b.tMid[id] = pos
		for _, key := range t.WriteSet() {
			k := b.intern(key, shift)
			b.ref[pos] = k
			pos++
			b.kEnd[k+1]++
		}
	}
	b.tOff[n] = pos

	// Then turn the counts into fill cursors: kWr[k] to where key k's
	// readers start, kEnd[k+1] to where its writers start. Filling
	// advances each by the count it replaced, which leaves kWr[k] at the
	// writers' start and kEnd[k+1] at the list's end, the next list's
	// start; kEnd[0] stays 0.
	nk := len(b.keys)
	b.kEnd, b.kWr = b.kEnd[:nk+1], b.kWr[:nk]
	pos = 0
	for k := range b.kWr {
		readers, writers := b.kWr[k], b.kEnd[k+1]
		b.kWr[k] = pos
		pos += readers
		b.kEnd[k+1] = pos
		pos += writers
	}
	b.acc = grow(b.acc, accesses)
	for id := range b.byID {
		lo, mid, hi := b.tOff[id], b.tMid[id], b.tOff[id+1]
		for _, k := range b.ref[lo:mid] {
			b.acc[b.kWr[k]] = int32(id)
			b.kWr[k]++
		}
		for _, k := range b.ref[mid:hi] {
			b.acc[b.kEnd[k+1]] = int32(id)
			b.kEnd[k+1]++
		}
	}
}

// rowBound returns an upper bound on the total length of all rows: a
// row has at most one entry per list element its transaction visits,
// and never more than every other transaction. Sizing the CSR arrays
// by it lets rows be written in place; it is tight on dense graphs
// (the second cap) and within the mean edge weight on sparse ones.
func (b *Builder) rowBound() int {
	n := len(b.tMid)
	total := 0
	for id := 0; id < n; id++ {
		visits := 0
		for _, k := range b.ref[b.tOff[id]:b.tMid[id]] {
			visits += int(b.kEnd[k+1] - b.kWr[k])
		}
		for _, k := range b.ref[b.tMid[id]:b.tOff[id+1]] {
			visits += int(b.kEnd[k+1] - b.kEnd[k])
		}
		total += min(visits, n-1)
	}
	return total
}

// intern returns the dense number of key, assigning the next one on
// first sight.
func (b *Builder) intern(key txn.Key, shift int) int32 {
	mask := uint64(len(b.slot) - 1)
	for i := uint64(key) * 0x9E3779B97F4A7C15 >> shift; ; i = (i + 1) & mask {
		switch s := b.slot[i]; {
		case s == 0:
			b.keys = append(b.keys, key)
			b.slot[i] = int32(len(b.keys))
			return int32(len(b.keys) - 1)
		case b.keys[s-1] == key:
			return s - 1
		}
	}
}

// grow returns s with length n, reallocating only when the capacity
// falls short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Weights returns the edge weights parallel to Neighbors(id) (see the
// package comment for the definition). Callers must not mutate the
// result.
func (g *Graph) Weights(id int) []int32 { return g.slice(g.wgt, id) }

// Level returns the isolation level the graph was built under.
func (g *Graph) Level() Isolation { return g.level }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.rows) }

// Edges returns the number of undirected edges. Every row has to be
// computed to know it: on a graph from a Builder, Edges costs whatever
// rows have not been read yet.
func (g *Graph) Edges() int {
	for id := 0; g.built < len(g.rows); id++ {
		g.row(id)
	}
	return int(g.used) / 2
}

// Neighbors returns the sorted IDs of transactions in conflict with id.
// Callers must not mutate the result.
func (g *Graph) Neighbors(id int) []int32 { return g.slice(g.nbr, id) }

// Degree returns the number of conflicts of id.
func (g *Graph) Degree(id int) int {
	s := g.row(id)
	return int(s.hi - s.lo)
}

// Conflict reports whether transactions a and b are joined by an edge.
func (g *Graph) Conflict(a, b int) bool {
	ns := g.Neighbors(a)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(b) })
	return i < len(ns) && ns[i] == int32(b)
}

// slice returns row id of arena a, capped so an append by the caller
// cannot reach the row behind it.
func (g *Graph) slice(a []int32, id int) []int32 {
	s := g.row(id)
	return a[s.lo:s.hi:s.hi]
}
