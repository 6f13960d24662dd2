// Package storage implements the in-memory row store underneath the
// execution engine: a catalog of tables, sharded hash indexes, and rows
// carrying the per-row metadata words used by the CC protocols
// (internal/cc).
//
// The design mirrors DBx1000's storage manager, the testbed the paper
// integrates TSKD into: fixed-schema tables of fixed-width tuples,
// primary-key hash indexes, and per-row concurrency-control state
// co-located with the data. Tuples are immutable and installed with an
// atomic pointer swap (copy-on-write), so optimistic protocols can read
// without locks and without data races; validation detects torn
// version observations by version words, exactly as in Silo/TicToc.
package storage

import (
	"sync/atomic"

	"tskd/internal/txn"
)

// Tuple is an immutable snapshot of a row's field values. Writers build
// a new Tuple and install it atomically at commit; readers always see a
// consistent snapshot.
type Tuple struct {
	// Fields holds the column values. The schema (column meaning) is
	// defined by the workload that owns the table.
	Fields []uint64
}

// Clone returns a deep copy of the tuple for modification.
func (t *Tuple) Clone() *Tuple {
	f := make([]uint64, len(t.Fields))
	copy(f, t.Fields)
	return &Tuple{Fields: f}
}

// Row is a stored data item plus the per-row CC metadata words. All
// concurrency control is performed through the exported atomic words;
// the semantics of each word are owned by the protocol in use (only one
// protocol runs at a time per database).
type Row struct {
	// Key is the global key of this row.
	Key txn.Key

	data atomic.Pointer[Tuple]

	// Ver is a combined lock/version word in the style of Silo TID
	// words: bit 0 is the write-lock bit, the remaining bits are a
	// version counter incremented on every committed write. OCC and
	// SILO use it for validation; 2PL uses bit 0 together with Lock.
	Ver atomic.Uint64

	// WTS and RTS are the write and read timestamps used by TICTOC.
	WTS atomic.Uint64
	RTS atomic.Uint64

	// Lock is the 2PL lock word: the high bit marks an exclusive
	// holder, the low 31 bits count shared holders. The middle bits
	// carry the exclusive owner's timestamp for WAIT_DIE ordering.
	Lock atomic.Uint64
}

// NewRow allocates a row with nFields zeroed columns.
func NewRow(key txn.Key, nFields int) *Row {
	r := &Row{Key: key}
	r.data.Store(&Tuple{Fields: make([]uint64, nFields)})
	return r
}

// Load returns the current tuple snapshot. Safe to call concurrently
// with writers; the snapshot is immutable.
func (r *Row) Load() *Tuple { return r.data.Load() }

// Install atomically publishes a new tuple snapshot. Only the committing
// writer that holds the row's write latch (per the protocol in use) may
// call Install.
func (r *Row) Install(t *Tuple) { r.data.Store(t) }

// Field returns the value of column i in the current snapshot.
func (r *Row) Field(i int) uint64 { return r.data.Load().Fields[i] }

// Version word layout helpers (bit 0 = lock bit).

// VerLockBit is the lock bit in the Ver word.
const VerLockBit = uint64(1)

// VerLocked reports whether the version word v has its lock bit set.
func VerLocked(v uint64) bool { return v&VerLockBit != 0 }

// VerNumber extracts the version counter from version word v.
func VerNumber(v uint64) uint64 { return v >> 1 }

// TryLatch attempts to set the lock bit on the Ver word. It returns
// true on success. The version counter is unchanged.
func (r *Row) TryLatch() bool {
	v := r.Ver.Load()
	if VerLocked(v) {
		return false
	}
	return r.Ver.CompareAndSwap(v, v|VerLockBit)
}

// Unlatch clears the lock bit, optionally bumping the version counter
// (bump=true on committed writes so readers' validation fails).
func (r *Row) Unlatch(bump bool) {
	v := r.Ver.Load()
	nv := v &^ VerLockBit
	if bump {
		nv += 2 // version lives above the lock bit
	}
	r.Ver.Store(nv)
}
