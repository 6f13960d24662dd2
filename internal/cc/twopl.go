package cc

import (
	"runtime"
	"sync/atomic"

	"tskd/internal/storage"
)

// Lock word layout (storage.Row.Lock):
//
//	bit 63        exclusive bit
//	bits 32..62   exclusive owner's timestamp (truncated to 31 bits)
//	bits 0..31    shared holder count
const (
	exclBit    = uint64(1) << 63
	ownerShift = 32
	ownerMask  = (uint64(1)<<31 - 1) << ownerShift
	countMask  = uint64(1)<<32 - 1
)

func lockOwnerTS(v uint64) uint64 { return (v & ownerMask) >> ownerShift }
func lockCount(v uint64) uint64   { return v & countMask }

// TwoPL is strict two-phase locking. Shared locks are taken on reads,
// exclusive locks on writes, all held until commit or abort. The
// WaitDie flag selects the deadlock-handling policy:
//
//   - NO_WAIT (WaitDie=false): any denied lock request aborts the
//     requester immediately.
//   - WAIT_DIE (WaitDie=true): a requester older than the exclusive
//     holder waits; otherwise it dies (aborts). Waiting is only ever
//     permitted on exclusively-held rows, so wait chains have strictly
//     decreasing timestamps and no deadlock can form.
type TwoPL struct {
	WaitDie bool
	ts      atomic.Uint64 // last transaction timestamp handed out
}

// NewNoWait returns 2PL with the NO_WAIT policy.
func NewNoWait() *TwoPL { return &TwoPL{} }

// NewWaitDie returns 2PL with the WAIT_DIE policy.
func NewWaitDie() *TwoPL { return &TwoPL{WaitDie: true} }

// Name implements Protocol.
func (p *TwoPL) Name() string {
	if p.WaitDie {
		return "WAIT_DIE"
	}
	return "NO_WAIT"
}

// Begin implements Protocol.
func (p *TwoPL) Begin(c *Ctx) {
	c.Reset()
	c.TS = p.ts.Add(1)
}

// Read implements Protocol: acquire a shared lock (unless already
// locked by this transaction) and return the visible image.
func (p *TwoPL) Read(c *Ctx, row *storage.Row) (*storage.Tuple, error) {
	if c.locks[row] == 0 {
		if err := p.acquireShared(c, row); err != nil {
			return nil, err
		}
		c.locks[row] = lockShared
		if c.Observe {
			// Stable under the shared lock: installs require the
			// exclusive lock.
			c.reads = append(c.reads, readEntry{row: row, ver: row.Ver.Load()})
		}
	}
	if t := c.pendingTuple(row); t != nil {
		return t, nil
	}
	return row.Load(), nil
}

// Write implements Protocol: acquire (or upgrade to) an exclusive lock
// and stage the update.
func (p *TwoPL) Write(c *Ctx, row *storage.Row, upd UpdateFunc) error {
	switch c.locks[row] {
	case lockExclusive:
		// already exclusive
	case lockShared:
		if err := p.upgrade(c, row); err != nil {
			return err
		}
		c.locks[row] = lockExclusive
	default:
		if err := p.acquireExclusive(c, row); err != nil {
			return err
		}
		c.locks[row] = lockExclusive
	}
	c.stage(row, upd)
	return nil
}

func (p *TwoPL) acquireShared(c *Ctx, row *storage.Row) error {
	contended := false
	for {
		v := row.Lock.Load()
		if v&exclBit != 0 {
			if !contended {
				c.Stats.Contended++
				contended = true
			}
			if p.WaitDie && c.TS < lockOwnerTS(v) {
				runtime.Gosched() // older: wait for the younger owner
				continue
			}
			return ErrConflict
		}
		if row.Lock.CompareAndSwap(v, v+1) {
			return nil
		}
	}
}

func (p *TwoPL) acquireExclusive(c *Ctx, row *storage.Row) error {
	contended := false
	want := exclBit | (c.TS&(1<<31-1))<<ownerShift
	for {
		v := row.Lock.Load()
		if v == 0 {
			if row.Lock.CompareAndSwap(0, want) {
				return nil
			}
			continue
		}
		if !contended {
			c.Stats.Contended++
			contended = true
		}
		if p.WaitDie && v&exclBit != 0 && c.TS < lockOwnerTS(v) {
			runtime.Gosched()
			continue
		}
		// Shared-held rows are never waited on, even under WAIT_DIE:
		// shared holders carry no timestamps, and waiting on them could
		// re-introduce deadlock. Conservatively die.
		return ErrConflict
	}
}

// upgrade promotes a shared lock this transaction holds to exclusive.
// It succeeds only if the transaction is the sole shared holder.
func (p *TwoPL) upgrade(c *Ctx, row *storage.Row) error {
	want := exclBit | (c.TS&(1<<31-1))<<ownerShift
	for {
		v := row.Lock.Load()
		if v&exclBit != 0 || lockCount(v) != 1 {
			// Another reader (or an impossible writer) is present;
			// upgrading would deadlock against a symmetric upgrader.
			c.Stats.Contended++
			return ErrConflict
		}
		if row.Lock.CompareAndSwap(v, want) {
			return nil
		}
	}
}

// Commit implements Protocol: install staged writes under the held
// exclusive locks, then release everything. It never fails — strict
// 2PL conflicts surface at lock acquisition time.
func (p *TwoPL) Commit(c *Ctx) error {
	if !c.validateScans() {
		p.releaseAll(c)
		return ErrConflict
	}
	for i := range c.writes {
		w := &c.writes[i]
		for !w.row.TryLatch() {
			// Only this transaction writes the row (exclusive lock),
			// but readers rely on the latch bit for snapshot
			// consistency under mixed protocols; contention here is
			// with momentary readers only.
			runtime.Gosched()
		}
		w.install(c)
		w.row.Unlatch(true)
	}
	p.releaseAll(c)
	return nil
}

// Abort implements Protocol: release all locks, drop staged writes.
func (p *TwoPL) Abort(c *Ctx) {
	p.releaseAll(c)
	c.Stats.Aborts++
}

func (p *TwoPL) releaseAll(c *Ctx) {
	for row, mode := range c.locks {
		switch mode {
		case lockShared:
			row.Lock.Add(^uint64(0)) // decrement shared count
		case lockExclusive:
			row.Lock.Store(0)
		}
		delete(c.locks, row)
	}
}
