// Package cc implements the concurrency-control protocols the engine
// executes transactions under. The protocol set follows DBx1000 (the
// paper's testbed): two-phase locking in NO_WAIT and WAIT_DIE flavours,
// OCC (validation with a coarse commit critical section, in the spirit
// of Kung–Robinson as implemented in DBx1000), SILO (decentralized
// optimistic validation with per-row latches, Tu et al. SOSP'13) and
// TICTOC (data-driven commit timestamps, Yu et al. SIGMOD'16), plus
// NONE for executing RC-free scheduled queues without CC.
//
// All protocols buffer writes in the transaction context and install
// them at commit (strict two-phase behaviour for the lockers, standard
// optimistic behaviour for the rest), so a transaction's effects become
// visible atomically. Reads observe the transaction's own pending
// writes.
//
// A conflict (lock denial, failed validation, wait-die death) surfaces
// as ErrConflict; the engine aborts and retries the transaction, which
// is exactly the "conflict penalty" the paper's scheduling and
// deferment techniques aim to reduce.
package cc

import (
	"errors"
	"slices"

	"tskd/internal/storage"
	"tskd/internal/txn"
)

// ErrConflict reports that the transaction lost a conflict under the
// protocol in use and must abort (the engine retries it).
var ErrConflict = errors.New("cc: conflict")

// Stats counts protocol-level events for one worker. Counters are plain
// fields because each worker owns its Stats; aggregate after the run.
type Stats struct {
	// Contended counts lock/latch acquisitions that found the
	// lock already held (the paper's #contended_mutex metric).
	Contended uint64
	// Aborts counts protocol-initiated aborts (conflict losses).
	Aborts uint64
}

// Ctx is the per-transaction execution context. It carries the 2PL
// timestamp, the read/write sets accumulated during execution, and a
// pointer to the owning worker's Stats. A Ctx is reused across retries
// of the same transaction via Reset.
type Ctx struct {
	// TS is the transaction's timestamp, allocated at Begin by the 2PL
	// protocols only: WAIT_DIE orders by it and the lock word records it
	// as the exclusive owner. The optimistic protocols and NONE leave it
	// untouched (TICTOC's commit timestamps are data-driven).
	TS uint64

	// Stats points at the owning worker's counters; never nil after
	// NewCtx.
	Stats *Stats

	// Observe makes protocols capture version observations for the
	// serializability checker (internal/history). Leave false in
	// production runs; the capture adds bookkeeping to 2PL reads and
	// commit installs.
	Observe bool

	reads  []readEntry
	writes []writeEntry
	// pending maps a row to the index+1 of its write entry, for
	// read-own-writes and write-after-write coalescing. Lazily built.
	pending map[*storage.Row]int
	// locks tracks the 2PL lock mode held per row (lockShared or
	// lockExclusive); empty under other protocols.
	locks map[*storage.Row]uint8
	// scans records tables range-scanned by the transaction with the
	// structure version observed at scan time; every protocol
	// validates them at commit (conservative phantom protection).
	scans []scanEntry
	// freeTuples recycles staged read-your-writes images across
	// attempts. Only staged images ever enter the pool: an installed
	// tuple is published to lock-free readers, so it must never be
	// reused.
	freeTuples []*storage.Tuple
}

type scanEntry struct {
	table *storage.Table
	sver  uint64
}

// 2PL lock modes recorded in Ctx.locks.
const (
	lockShared    uint8 = 1
	lockExclusive uint8 = 2
)

type readEntry struct {
	row *storage.Row
	ver uint64 // Ver word observed (OCC/SILO)
	wts uint64 // TICTOC
	rts uint64 // TICTOC
}

type writeEntry struct {
	row *storage.Row
	// tuple is the pending image for read-your-writes; it is built
	// from the base current at Write time and is NOT what commit
	// installs.
	tuple *storage.Tuple
	// upd is the composed update function. Commit re-applies it to a
	// fresh clone of the row under the latch, so blind updates stay
	// atomic even when the base changed after Write time (validated
	// reads make the recomputation identical to the staged image).
	upd    UpdateFunc
	locked bool // 2PL: exclusive lock held; SILO/TICTOC/OCC: latched during commit
	// stagedOwned marks tuple as a pool-owned staged image (recyclable
	// once the attempt ends). install flips it off when it replaces the
	// staged image with the installed one.
	stagedOwned bool
	// installedVer is the version number this commit installed,
	// captured while the row latch is held (valid after Commit
	// succeeds).
	installedVer uint64
}

// NewCtx returns a context attached to the given stats sink.
func NewCtx(stats *Stats) *Ctx {
	if stats == nil {
		stats = &Stats{}
	}
	return &Ctx{
		Stats:   stats,
		pending: make(map[*storage.Row]int),
		locks:   make(map[*storage.Row]uint8),
	}
}

// Reset clears the context for a fresh attempt (same or different
// transaction). The timestamp is not reallocated here; 2PL's Begin
// does that. Staged images the previous attempt abandoned (abort
// paths) return to the tuple pool here.
func (c *Ctx) Reset() {
	for i := range c.writes {
		c.recycleStaged(&c.writes[i])
	}
	c.reads = c.reads[:0]
	c.writes = c.writes[:0]
	c.scans = c.scans[:0]
	clear(c.pending)
	clear(c.locks)
}

// stagedClone builds the transaction-private read-your-writes image of
// src, reusing a recycled tuple when one is available.
func (c *Ctx) stagedClone(src *storage.Tuple) *storage.Tuple {
	if n := len(c.freeTuples); n > 0 {
		t := c.freeTuples[n-1]
		c.freeTuples = c.freeTuples[:n-1]
		t.Fields = append(t.Fields[:0], src.Fields...)
		return t
	}
	return src.Clone()
}

// recycleStaged returns w's staged image to the pool if w still owns
// one. Safe to call more than once.
func (c *Ctx) recycleStaged(w *writeEntry) {
	if w.stagedOwned && w.tuple != nil {
		c.freeTuples = append(c.freeTuples, w.tuple)
		w.tuple = nil
	}
	w.stagedOwned = false
}

// RecordScan notes that the transaction is about to range-scan table,
// capturing the current structure version. The engine calls it before
// enumerating the range.
func (c *Ctx) RecordScan(table *storage.Table) {
	c.scans = append(c.scans, scanEntry{table: table, sver: table.SVer.Load()})
}

// NoteStructureChange tells the context that the transaction itself
// just inserted into (or deleted from) table, so its own structure
// bump does not count against its earlier scans.
func (c *Ctx) NoteStructureChange(table *storage.Table) {
	for i := range c.scans {
		if c.scans[i].table == table {
			c.scans[i].sver++
		}
	}
}

// validateScans reports whether every scanned table is structurally
// unchanged since the scan (no inserts or deletes — no phantoms). All
// protocols call it during Commit.
func (c *Ctx) validateScans() bool {
	for _, s := range c.scans {
		if s.table.SVer.Load() != s.sver {
			return false
		}
	}
	return true
}

// pendingTuple returns the transaction's own pending image of row, or
// nil if the transaction has not written it.
func (c *Ctx) pendingTuple(row *storage.Row) *storage.Tuple {
	if i, ok := c.pending[row]; ok {
		return c.writes[i-1].tuple
	}
	return nil
}

// stage records an update of row: it refreshes the read-your-writes
// image and composes upd onto the entry's update chain.
func (c *Ctx) stage(row *storage.Row, upd UpdateFunc) {
	if i, ok := c.pending[row]; ok {
		e := &c.writes[i-1]
		prev := e.upd
		e.upd = func(t *storage.Tuple) { prev(t); upd(t) }
		upd(e.tuple)
		return
	}
	img := c.stagedClone(row.Load())
	upd(img)
	c.writes = append(c.writes, writeEntry{row: row, tuple: img, upd: upd, stagedOwned: true})
	c.pending[row] = len(c.writes)
}

// install recomputes the write's image from the current base and
// publishes it. The caller must hold the row's latch (or, for 2PL, the
// exclusive lock plus the latch); it returns the installed version
// number. The committed image is retained in the entry so redo logging
// can read it after Commit returns.
func (w *writeEntry) install(c *Ctx) uint64 {
	fresh := w.row.Load().Clone()
	w.upd(fresh)
	w.installedVer = storage.VerNumber(w.row.Ver.Load()) + 1
	w.row.Install(fresh)
	c.recycleStaged(w)
	w.tuple = fresh
	return w.installedVer
}

// CommittedWrite is the redo image of one installed row version.
type CommittedWrite struct {
	// Key is the row's global key.
	Key txn.Key
	// Ver is the installed version number.
	Ver uint64
	// Fields is the committed image. Callers must not mutate it.
	Fields []uint64
}

// CommittedWrites returns the redo images of the last committed
// attempt, for write-ahead logging. Only meaningful after Commit
// succeeded.
func (c *Ctx) CommittedWrites() []CommittedWrite {
	return c.AppendCommittedWrites(make([]CommittedWrite, 0, len(c.writes)))
}

// AppendCommittedWrites appends the redo images of the last committed
// attempt to dst and returns the extended slice, so a caller on the
// commit hot path can reuse one buffer across commits.
func (c *Ctx) AppendCommittedWrites(dst []CommittedWrite) []CommittedWrite {
	for i := range c.writes {
		w := &c.writes[i]
		dst = append(dst, CommittedWrite{Key: w.row.Key, Ver: w.installedVer, Fields: w.tuple.Fields})
	}
	return dst
}

// sortedWrites orders the write entries by row key to guarantee a
// global latch-acquisition order (deadlock freedom for the optimistic
// protocols' commit phases).
func (c *Ctx) sortedWrites() []writeEntry {
	slices.SortFunc(c.writes, func(a, b writeEntry) int {
		switch {
		case a.row.Key < b.row.Key:
			return -1
		case a.row.Key > b.row.Key:
			return 1
		}
		return 0
	})
	// Re-index pending after the sort.
	for i := range c.writes {
		c.pending[c.writes[i].row] = i + 1
	}
	return c.writes
}

// UpdateFunc mutates a cloned tuple in place; the protocol installs the
// clone at commit.
type UpdateFunc func(*storage.Tuple)

// Obs is one version observation for the serializability checker: the
// transaction read or installed version Ver of the row with key Key.
type Obs struct {
	Key txn.Key
	Ver uint64
}

// Observations returns the version observations of the last committed
// attempt: the versions each row had when read, and the versions this
// transaction installed. Only meaningful when Observe was set and the
// attempt committed.
func (c *Ctx) Observations() (reads, writes []Obs) {
	reads = make([]Obs, 0, len(c.reads))
	for _, r := range c.reads {
		reads = append(reads, Obs{Key: r.row.Key, Ver: storage.VerNumber(r.ver)})
	}
	writes = make([]Obs, 0, len(c.writes))
	for _, w := range c.writes {
		writes = append(writes, Obs{Key: w.row.Key, Ver: w.installedVer})
	}
	return reads, writes
}

// Protocol is a concurrency-control scheme. Exactly one protocol
// instance governs a database at a time; instances hold whatever global
// state the scheme needs (timestamp counters, validation mutexes).
//
// The contract: Begin, then any sequence of Read/Write, then either
// Commit or Abort. Read and Write may return ErrConflict, after which
// the caller must Abort. Commit may return ErrConflict, after which the
// protocol has already rolled back internal state but the caller must
// still call Abort to release context resources.
type Protocol interface {
	// Name returns the protocol's display name (e.g. "SILO").
	Name() string
	// Begin prepares ctx for a new attempt (2PL also allocates a
	// timestamp).
	Begin(c *Ctx)
	// Read returns a consistent snapshot of row, observing the
	// transaction's own pending writes.
	Read(c *Ctx, row *storage.Row) (*storage.Tuple, error)
	// Write stages an update of row built by applying upd to the
	// current (or pending) image.
	Write(c *Ctx, row *storage.Row, upd UpdateFunc) error
	// Commit validates and installs the transaction's writes.
	Commit(c *Ctx) error
	// Abort releases all protocol resources held by the attempt.
	Abort(c *Ctx)
}
