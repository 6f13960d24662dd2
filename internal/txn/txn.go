// Package txn defines the transaction model shared by every subsystem:
// operations, access sets, templates, and the runtime knobs (minimum
// runtime lower bounds and commit-time I/O delays) used by the
// benchmark extensions of Section 6.1 of the paper.
//
// A Transaction here is a *declared* unit of work: a sequence of
// operations over global data-item keys, plus metadata that lets the
// scheduler (internal/sched), the partitioners (internal/partition) and
// the deferment module (internal/deferment) reason about it before and
// during execution. The execution engine (internal/engine) interprets
// the operations against the storage layer under a CC protocol.
package txn

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Key identifies a data item globally across all tables. The high 16
// bits carry the table id and the low 48 bits the row key within the
// table, so conflict analysis can operate on flat key sets without
// consulting the catalog.
type Key uint64

const tableShift = 48

// MakeKey composes a global key from a table id and a row key.
func MakeKey(table uint16, row uint64) Key {
	return Key(uint64(table)<<tableShift | row&(1<<tableShift-1))
}

// Table extracts the table id from a global key.
func (k Key) Table() uint16 { return uint16(k >> tableShift) }

// Row extracts the row key within the table from a global key.
func (k Key) Row() uint64 { return uint64(k) & (1<<tableShift - 1) }

func (k Key) String() string {
	return fmt.Sprintf("%d:%d", k.Table(), k.Row())
}

// OpKind enumerates the kinds of database actions a transaction issues.
type OpKind uint8

const (
	// OpRead reads a data item.
	OpRead OpKind = iota
	// OpWrite blindly overwrites a data item (Fields[0] = Arg).
	OpWrite
	// OpInsert creates a new data item. Inserts count as writes for
	// conflict purposes.
	OpInsert
	// OpUpdate is a read-modify-write (Fields[0] += Arg, wrapping). It
	// counts as both a read and a write for conflict purposes, and the
	// engine validates the read so increments are never lost.
	OpUpdate
	// OpScan is a range read of rows with keys in [Key.Row(), Arg]
	// within Key's table. Its read set is not known before execution,
	// so scans contribute nothing to the declared access sets: they are
	// always executed with CC — per-row read validation plus a
	// table-structure-version check for phantom protection — exactly
	// the paper's treatment of range queries (Section 3, Limitations).
	OpScan
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpInsert:
		return "I"
	case OpUpdate:
		return "U"
	case OpScan:
		return "S"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is a single database action on a key. Arg carries the operation's
// argument for writing kinds (the value to store, or the wrapping
// delta for updates); Field selects the column it applies to.
type Op struct {
	Kind  OpKind
	Key   Key
	Arg   uint64
	Field uint8
}

// Transaction is a declared transaction: its logic template, its
// instantiation parameters, its operation list, and per-transaction
// runtime knobs added by the benchmark extensions.
type Transaction struct {
	// ID is unique within a workload bundle and indexes auxiliary
	// arrays (conflict graph adjacency, schedules, progress tracker).
	ID int

	// Template names the stored procedure this transaction was
	// instantiated from (e.g. "NewOrder", "YCSB-A"). The history-based
	// cost estimator matches on it.
	Template string

	// Params are the instantiation parameters of the template (e.g.
	// warehouse/district/customer ids). Used by the estimator to find
	// similar historical executions and by TsDEFER to predict access
	// sets without executing.
	Params []uint64

	// Ops is the declared operation sequence.
	Ops []Op

	// MinRuntime lower-bounds the execution time of the transaction:
	// if it finishes earlier, commit is delayed until MinRuntime has
	// elapsed (Section 6.1, "Extension with runtime skewness").
	MinRuntime time.Duration

	// IODelay is an artificial delay added at commit time to emulate
	// I/O latency (Section 6.1, "Extension with I/O latency").
	IODelay time.Duration

	// UserAbort marks a transaction that rolls back for application
	// reasons after executing (TPC-C: ~1% of NewOrders hit an invalid
	// item). The engine executes it, aborts instead of committing, and
	// does not retry.
	UserAbort bool

	// IdemKey is the client-chosen idempotency key of the request that
	// carried this transaction (0 = none). It rides into the WAL commit
	// record so the serving layer's exactly-once dedup window survives
	// crashes.
	IdemKey uint64

	// Deadline, when nonzero, is the wall-clock instant past which the
	// transaction must not (re-)execute: the engine drops it before the
	// first attempt and between retries, and the serving layer drops it
	// at bundle formation, answering StatusExpired. A transaction past
	// its deadline is abandoned work — executing it only inflates
	// runtime conflicts for live transactions.
	Deadline time.Time

	readSet   []Key // lazily computed, sorted, deduplicated
	writeSet  []Key // lazily computed, sorted, deduplicated
	accessSet []Key // their union, computed with them
	setsValid bool  // the three sets reflect Ops (capacity is reused)
}

// New returns a transaction with the given id and operations.
func New(id int, ops ...Op) *Transaction {
	return &Transaction{ID: id, Ops: ops}
}

// R appends a read of key k and returns the transaction for chaining.
func (t *Transaction) R(k Key) *Transaction {
	t.Ops = append(t.Ops, Op{Kind: OpRead, Key: k})
	t.invalidate()
	return t
}

// W appends a write of key k and returns the transaction for chaining.
func (t *Transaction) W(k Key) *Transaction {
	t.Ops = append(t.Ops, Op{Kind: OpWrite, Key: k})
	t.invalidate()
	return t
}

// I appends an insert of key k and returns the transaction for chaining.
func (t *Transaction) I(k Key) *Transaction {
	t.Ops = append(t.Ops, Op{Kind: OpInsert, Key: k})
	t.invalidate()
	return t
}

// U appends a read-modify-write of key k adding delta (wrapping) to
// field 0 and returns the transaction for chaining.
func (t *Transaction) U(k Key, delta uint64) *Transaction {
	t.Ops = append(t.Ops, Op{Kind: OpUpdate, Key: k, Arg: delta})
	t.invalidate()
	return t
}

// UF appends a read-modify-write of field f of key k adding delta
// (wrapping) and returns the transaction for chaining.
func (t *Transaction) UF(k Key, f uint8, delta uint64) *Transaction {
	t.Ops = append(t.Ops, Op{Kind: OpUpdate, Key: k, Arg: delta, Field: f})
	t.invalidate()
	return t
}

// WF appends a blind write of value v to field f of key k and returns
// the transaction for chaining.
func (t *Transaction) WF(k Key, f uint8, v uint64) *Transaction {
	t.Ops = append(t.Ops, Op{Kind: OpWrite, Key: k, Arg: v, Field: f})
	t.invalidate()
	return t
}

// IF appends an insert of key k initializing field f to v and returns
// the transaction for chaining.
func (t *Transaction) IF(k Key, f uint8, v uint64) *Transaction {
	t.Ops = append(t.Ops, Op{Kind: OpInsert, Key: k, Arg: v, Field: f})
	t.invalidate()
	return t
}

// S appends a range scan of [lo, lo+span] within lo's table and
// returns the transaction for chaining.
func (t *Transaction) S(lo Key, span uint64) *Transaction {
	t.Ops = append(t.Ops, Op{Kind: OpScan, Key: lo, Arg: lo.Row() + span})
	t.invalidate()
	return t
}

// SetOps replaces the operation list wholesale and invalidates the
// cached access sets. Workload rewriters (the sharded confinement
// helper) use it after mutating Ops in place, since direct writes
// through the Ops slice would leave previously computed sets stale.
func (t *Transaction) SetOps(ops []Op) {
	t.Ops = ops
	t.invalidate()
}

// HasScan reports whether t contains a range scan (and therefore has a
// partially unknown access set).
func (t *Transaction) HasScan() bool {
	for _, op := range t.Ops {
		if op.Kind == OpScan {
			return true
		}
	}
	return false
}

// invalidate marks the cached access sets stale. Their backing arrays
// are kept and rewritten by the next computeSets, so a caller holding a
// previously returned set must not mutate the transaction.
func (t *Transaction) invalidate() {
	t.setsValid = false
}

// ReadSet returns the sorted, deduplicated set of keys read by t.
// The result is cached; callers must not mutate it.
func (t *Transaction) ReadSet() []Key {
	if !t.setsValid {
		t.computeSets()
	}
	return t.readSet
}

// WriteSet returns the sorted, deduplicated set of keys written
// (including inserts) by t. The result is cached; callers must not
// mutate it.
func (t *Transaction) WriteSet() []Key {
	if !t.setsValid {
		t.computeSets()
	}
	return t.writeSet
}

func (t *Transaction) computeSets() {
	rs := t.readSet[:0]
	ws := t.writeSet[:0]
	for _, op := range t.Ops {
		switch op.Kind {
		case OpRead:
			rs = append(rs, op.Key)
		case OpWrite, OpInsert:
			ws = append(ws, op.Key)
		case OpUpdate:
			rs = append(rs, op.Key)
			ws = append(ws, op.Key)
		}
	}
	t.readSet = dedupe(rs)
	t.writeSet = dedupe(ws)
	// Guarantee non-nil: the zero Transaction's sets start nil and some
	// callers distinguish "computed empty" from "absent".
	if t.readSet == nil {
		t.readSet = []Key{}
	}
	if t.writeSet == nil {
		t.writeSet = []Key{}
	}
	t.accessSet = union(t.accessSet[:0], t.readSet, t.writeSet)
	t.setsValid = true
}

// AccessSet returns the sorted, deduplicated union of the read and
// write sets of t. The result is cached; callers must not mutate it.
func (t *Transaction) AccessSet() []Key {
	if !t.setsValid {
		t.computeSets()
	}
	return t.accessSet
}

// union merges the sorted, duplicate-free sets a and b into dst[:0],
// which is reallocated, once and to the most the union can hold, only
// when it is too small. The result is never nil.
func union(dst, a, b []Key) []Key {
	if n := len(a) + len(b); dst == nil || cap(dst) < n {
		dst = make([]Key, 0, n)
	}
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] < b[0]:
			dst, a = append(dst, a[0]), a[1:]
		case a[0] > b[0]:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst, a, b = append(dst, a[0]), a[1:], b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

func dedupe(ks []Key) []Key {
	if len(ks) == 0 {
		return ks
	}
	slices.Sort(ks)
	out := ks[:1]
	for _, k := range ks[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// Len returns the number of operations in t, the brute-force cost
// estimate used as a fallback by the estimator (each read/write is one
// unit of time, as in Example 1 of the paper).
func (t *Transaction) Len() int { return len(t.Ops) }

// Reads reports whether t reads key k.
func (t *Transaction) Reads(k Key) bool { return contains(t.ReadSet(), k) }

// Writes reports whether t writes (or inserts) key k.
func (t *Transaction) Writes(k Key) bool { return contains(t.WriteSet(), k) }

func contains(set []Key, k Key) bool {
	i := sort.Search(len(set), func(i int) bool { return set[i] >= k })
	return i < len(set) && set[i] == k
}

// String renders the transaction in the paper's compact notation, e.g.
// "T1 = R[2:0]W[2:0]".
func (t *Transaction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "T%d =", t.ID)
	for _, op := range t.Ops {
		fmt.Fprintf(&b, " %s[%s]", op.Kind, op.Key)
	}
	return b.String()
}

// Workload is an ordered bundle of transactions revealed to the system
// at once (the "bundled" workload model of Section 2.1).
type Workload []*Transaction

// TotalOps returns the total number of operations across the workload.
func (w Workload) TotalOps() int {
	n := 0
	for _, t := range w {
		n += len(t.Ops)
	}
	return n
}

// ByID returns a lookup table from transaction ID to transaction.
// Transaction IDs must be unique within the workload.
func (w Workload) ByID() map[int]*Transaction {
	m := make(map[int]*Transaction, len(w))
	for _, t := range w {
		m[t.ID] = t
	}
	return m
}

// MaxID returns the largest transaction ID in the workload, or -1 for
// an empty workload. Dense auxiliary arrays are sized as MaxID()+1.
func (w Workload) MaxID() int {
	max := -1
	for _, t := range w {
		if t.ID > max {
			max = t.ID
		}
	}
	return max
}
