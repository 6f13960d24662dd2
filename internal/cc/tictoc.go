package cc

import (
	"runtime"

	"tskd/internal/storage"
)

// TicToc is the data-driven timestamp protocol of Yu et al.
// (SIGMOD'16). Each row carries a write timestamp (WTS) and a read
// timestamp (RTS); a committing transaction derives its commit
// timestamp from the timestamps of the data it touched instead of from
// a global counter, and lazily extends read leases (RTS) so that
// read-mostly rows almost never cause aborts. The paper finds TSKD
// works best with TICTOC (Section 6.3).
type TicToc struct{}

// NewTicToc returns the TICTOC protocol.
func NewTicToc() *TicToc { return &TicToc{} }

// Name implements Protocol.
func (p *TicToc) Name() string { return "TICTOC" }

// Begin implements Protocol.
func (p *TicToc) Begin(c *Ctx) {
	c.Reset()
}

// Read implements Protocol: record (wts, rts) atomically consistent
// with the tuple snapshot.
func (p *TicToc) Read(c *Ctx, row *storage.Row) (*storage.Tuple, error) {
	if t := c.pendingTuple(row); t != nil {
		return t, nil
	}
	contended := false
	for {
		v1 := row.Ver.Load()
		if storage.VerLocked(v1) {
			if !contended {
				c.Stats.Contended++
				contended = true
			}
			runtime.Gosched() // let the latch holder finish
			continue
		}
		wts := row.WTS.Load()
		rts := row.RTS.Load()
		t := row.Load()
		if row.Ver.Load() == v1 && row.WTS.Load() == wts {
			c.reads = append(c.reads, readEntry{row: row, ver: v1, wts: wts, rts: rts})
			return t, nil
		}
	}
}

// Write implements Protocol: purely local staging.
func (p *TicToc) Write(c *Ctx, row *storage.Row, upd UpdateFunc) error {
	c.stage(row, upd)
	return nil
}

// Commit implements Protocol: lock write set, compute the commit
// timestamp from the touched data, validate/extend read leases,
// install.
func (p *TicToc) Commit(c *Ctx) error {
	writes := c.sortedWrites()
	// Phase 1: latch the write set in key order.
	for i := range writes {
		contended := false
		for !writes[i].row.TryLatch() {
			if !contended {
				c.Stats.Contended++
				contended = true
			}
			runtime.Gosched()
		}
		writes[i].locked = true
	}
	// Yield with the write set latched; see Silo.Commit.
	if len(writes) > 0 {
		runtime.Gosched()
	}
	// Phase 2: compute commit timestamp.
	var commitTS uint64
	for _, w := range writes {
		if rts := w.row.RTS.Load(); rts+1 > commitTS {
			commitTS = rts + 1
		}
	}
	for _, r := range c.reads {
		if r.wts > commitTS {
			commitTS = r.wts
		}
	}
	if !c.validateScans() {
		p.unlatchWrites(c, 0)
		return ErrConflict
	}
	// Phase 3: validate the read set at commitTS, extending leases.
	for _, r := range c.reads {
		if commitTS <= r.rts {
			continue // lease already covers commitTS
		}
		_, ownWrite := c.pending[r.row]
		if r.row.WTS.Load() != r.wts {
			p.unlatchWrites(c, 0)
			return ErrConflict
		}
		if storage.VerLocked(r.row.Ver.Load()) && !ownWrite {
			p.unlatchWrites(c, 0)
			return ErrConflict
		}
		// Extend the lease: RTS = max(RTS, commitTS).
		for {
			rts := r.row.RTS.Load()
			if rts >= commitTS || r.row.RTS.CompareAndSwap(rts, commitTS) {
				break
			}
		}
	}
	// Phase 4: install writes at commitTS.
	for i := range writes {
		writes[i].install(c)
	}
	p.unlatchWrites(c, commitTS)
	return nil
}

// unlatchWrites releases all held write latches. A non-zero commitTS
// stamps WTS=RTS=commitTS and bumps versions (commit); zero leaves
// timestamps untouched (abort).
func (p *TicToc) unlatchWrites(c *Ctx, commitTS uint64) {
	for i := range c.writes {
		if !c.writes[i].locked {
			continue
		}
		row := c.writes[i].row
		if commitTS != 0 {
			row.WTS.Store(commitTS)
			row.RTS.Store(commitTS)
		}
		row.Unlatch(commitTS != 0)
		c.writes[i].locked = false
	}
}

// Abort implements Protocol.
func (p *TicToc) Abort(c *Ctx) {
	c.Stats.Aborts++
}
