package cc

import (
	"runtime"
	"sync"

	"tskd/internal/storage"
)

// OCC is optimistic concurrency control with a serialized validation
// phase, following DBx1000's OCC implementation of the Kung–Robinson
// scheme: reads and writes run without any locking, and commit enters
// a global critical section where the read set is validated against
// the current row versions before the write set is installed.
//
// The coarse critical section is the defining cost of this protocol —
// it is what SILO removes — so we keep it deliberately.
type OCC struct {
	mu sync.Mutex // global validation critical section
}

// NewOCC returns the OCC protocol.
func NewOCC() *OCC { return &OCC{} }

// Name implements Protocol.
func (p *OCC) Name() string { return "OCC" }

// Begin implements Protocol.
func (p *OCC) Begin(c *Ctx) {
	c.Reset()
}

// Read implements Protocol: take a consistent (version, tuple) snapshot
// without locking, retrying while a writer holds the row latch.
func (p *OCC) Read(c *Ctx, row *storage.Row) (*storage.Tuple, error) {
	if t := c.pendingTuple(row); t != nil {
		return t, nil
	}
	t, ver := snapshotRow(c, row)
	c.reads = append(c.reads, readEntry{row: row, ver: ver})
	return t, nil
}

// snapshotRow loads a (tuple, version) pair that is mutually
// consistent: the version word was identical and unlocked before and
// after the tuple load. Spins through concurrent installs, counting
// contention once.
func snapshotRow(c *Ctx, row *storage.Row) (*storage.Tuple, uint64) {
	contended := false
	for {
		v1 := row.Ver.Load()
		if storage.VerLocked(v1) {
			if !contended {
				c.Stats.Contended++
				contended = true
			}
			// Yield so a descheduled latch holder can finish its
			// install; a hot spin would livelock on small hosts.
			runtime.Gosched()
			continue
		}
		t := row.Load()
		if row.Ver.Load() == v1 {
			return t, v1
		}
	}
}

// Write implements Protocol: purely local staging.
func (p *OCC) Write(c *Ctx, row *storage.Row, upd UpdateFunc) error {
	c.stage(row, upd)
	return nil
}

// Commit implements Protocol: serialized validate-then-install.
func (p *OCC) Commit(c *Ctx) error {
	// The global critical section is this protocol's scalability
	// bottleneck; count the times we found it held (#contended_mutex).
	if !p.mu.TryLock() {
		c.Stats.Contended++
		p.mu.Lock()
	}
	defer p.mu.Unlock()
	// Yield once inside the critical section so commits from different
	// workers genuinely interleave on hosts with fewer cores than
	// workers (real multicore hardware preempts here all the time).
	runtime.Gosched()
	// Validation: every read version must be unchanged. Inside the
	// critical section no other transaction is installing, so a bare
	// version comparison suffices.
	for _, r := range c.reads {
		if r.row.Ver.Load() != r.ver {
			return ErrConflict
		}
	}
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

// Abort implements Protocol.
func (p *OCC) Abort(c *Ctx) {
	c.Stats.Aborts++
}
