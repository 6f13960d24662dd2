package cc

import (
	"runtime"

	"tskd/internal/storage"
)

// Silo is the decentralized optimistic protocol of Tu et al. (SOSP'13)
// as implemented in DBx1000: reads record row versions without
// locking; commit latches the write set in global key order, validates
// the read set against current versions, and installs new images with
// bumped versions. There is no global coordination point, which is why
// it scales past OCC's serialized validation.
type Silo struct{}

// NewSilo returns the SILO protocol.
func NewSilo() *Silo { return &Silo{} }

// Name implements Protocol.
func (p *Silo) Name() string { return "SILO" }

// Begin implements Protocol.
func (p *Silo) Begin(c *Ctx) {
	c.Reset()
}

// Read implements Protocol.
func (p *Silo) Read(c *Ctx, row *storage.Row) (*storage.Tuple, error) {
	if t := c.pendingTuple(row); t != nil {
		return t, nil
	}
	t, ver := snapshotRow(c, row)
	c.reads = append(c.reads, readEntry{row: row, ver: ver})
	return t, nil
}

// Write implements Protocol: purely local staging.
func (p *Silo) Write(c *Ctx, row *storage.Row, upd UpdateFunc) error {
	c.stage(row, upd)
	return nil
}

// Commit implements Protocol: latch write set (sorted), validate reads,
// install.
func (p *Silo) Commit(c *Ctx) error {
	writes := c.sortedWrites()
	// Phase 1: latch the write set in key order (deadlock-free).
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
	// Yield with the write set latched: on hosts with fewer cores than
	// workers this recreates the preemption points real multicore
	// hardware has, making latch contention observable.
	if len(writes) > 0 {
		runtime.Gosched()
	}
	// Phase 2: validate the read set. A read is valid if its version is
	// unchanged and the row is not latched by another transaction.
	for _, r := range c.reads {
		v := r.row.Ver.Load()
		_, ownWrite := c.pending[r.row]
		if storage.VerNumber(v) != storage.VerNumber(r.ver) ||
			(storage.VerLocked(v) && !ownWrite) {
			p.unlatchWrites(c, false)
			return ErrConflict
		}
	}
	if !c.validateScans() {
		p.unlatchWrites(c, false)
		return ErrConflict
	}
	// Phase 3: install and release with version bumps.
	for i := range writes {
		writes[i].install(c)
	}
	p.unlatchWrites(c, true)
	return nil
}

func (p *Silo) unlatchWrites(c *Ctx, bump bool) {
	for i := range c.writes {
		if c.writes[i].locked {
			c.writes[i].row.Unlatch(bump)
			c.writes[i].locked = false
		}
	}
}

// Abort implements Protocol. Commit releases its own latches on
// failure, so only bookkeeping remains.
func (p *Silo) Abort(c *Ctx) {
	c.Stats.Aborts++
}
