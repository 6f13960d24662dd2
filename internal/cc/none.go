package cc

import (
	"runtime"

	"tskd/internal/storage"
)

// None executes transactions without any concurrency control. It is
// the execution mode for RC-free scheduled queues when time estimates
// are trusted (Section 2.2): transactions in different queues are
// runtime-conflict free by construction, so no guarding is needed.
// Correctness is the scheduler's responsibility, not the protocol's.
//
// Writes are still installed with the row latch held and version bumps,
// so mixed deployments (RC-free queues under None while the residual
// runs under an optimistic protocol) keep reader snapshots consistent.
type None struct{}

// NewNone returns the no-op protocol.
func NewNone() *None { return &None{} }

// Name implements Protocol.
func (p *None) Name() string { return "NONE" }

// Begin implements Protocol.
func (p *None) Begin(c *Ctx) {
	c.Reset()
}

// Read implements Protocol. It returns the transaction's own pending
// image if present, else the current committed snapshot.
func (p *None) Read(c *Ctx, row *storage.Row) (*storage.Tuple, error) {
	if t := c.pendingTuple(row); t != nil {
		return t, nil
	}
	if c.Observe {
		// Capture the observed version for the serializability
		// checker — the entire point of running NONE under a Recorder
		// is to find out whether the schedule alone was safe.
		t, ver := snapshotRow(c, row)
		c.reads = append(c.reads, readEntry{row: row, ver: ver})
		return t, nil
	}
	return row.Load(), nil
}

// Write implements Protocol, staging the update.
func (p *None) Write(c *Ctx, row *storage.Row, upd UpdateFunc) error {
	c.stage(row, upd)
	return nil
}

// Commit implements Protocol, installing all staged writes. It fails
// only when a range scan was invalidated (phantom protection applies
// under every protocol, including NONE).
func (p *None) Commit(c *Ctx) error {
	if !c.validateScans() {
		return ErrConflict
	}
	ws := c.sortedWrites()
	for i := range ws {
		w := &ws[i]
		for !w.row.TryLatch() {
			c.Stats.Contended++
			runtime.Gosched()
		}
		w.install(c)
		w.row.Unlatch(true)
	}
	return nil
}

// Abort implements Protocol. Staged writes are simply dropped.
func (p *None) Abort(c *Ctx) {
	c.Stats.Aborts++
}
