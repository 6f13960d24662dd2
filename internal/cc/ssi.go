package cc

import (
	"runtime"
	"sync"

	"tskd/internal/storage"
)

// SSI is serializable snapshot isolation in the style of Cahill et
// al. (SIGMOD'08), built on the same version chains as MVCC:
// transactions read a consistent snapshot at their begin timestamp and
// first-committer-wins resolves write-write conflicts; serializability
// is restored on top of snapshot isolation by tracking rw-
// antidependencies and aborting a transaction that develops both an
// inbound and an outbound rw-antidependency edge (the "dangerous
// structure" at the center of every SI anomaly).
//
// The rw-edge bookkeeping uses a small table of recently committed
// transactions guarded by one mutex; this is the textbook certifier
// design, deliberately simpler than the lock-free protocols the paper
// benchmarks — SSI is an extension beyond the paper's protocol set.
type SSI struct {
	ts tsSource

	mu sync.Mutex
	// recent holds committed transactions that overlapping snapshots
	// may still race with.
	recent []ssiCommit
}

type ssiCommit struct {
	begin, commit uint64
	reads         []uint64
	writes        []uint64
	// hadIn / hadOut track the committed transaction's inbound and
	// outbound rw-antidependency edges. They keep being updated after
	// commit: later committers that discover an edge to a committed
	// transaction mark it here, and abort themselves if the mark
	// completes a committed pivot (Cahill's rule for pivots that
	// commit before both edges are visible).
	hadIn, hadOut bool
}

// NewSSI returns the SSI protocol.
func NewSSI() *SSI { return &SSI{} }

// Name implements Protocol.
func (p *SSI) Name() string { return "SSI" }

// Begin implements Protocol.
func (p *SSI) Begin(c *Ctx) {
	c.Reset()
	c.TS = p.ts.next()
}

// Read implements Protocol: snapshot read at the begin timestamp,
// identical to MVCC's visibility rule (without the RTS bookkeeping —
// writers are validated by the certifier instead).
func (p *SSI) Read(c *Ctx, row *storage.Row) (*storage.Tuple, error) {
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
			runtime.Gosched()
			continue
		}
		wts := row.WTS.Load()
		t := row.Load()
		if row.Ver.Load() != v1 {
			continue
		}
		if wts <= c.TS {
			c.reads = append(c.reads, readEntry{row: row, ver: v1, wts: wts})
			return t, nil
		}
		rec := row.VersionAt(c.TS)
		if row.Ver.Load() != v1 {
			continue
		}
		if rec == nil {
			return nil, ErrConflict // snapshot pruned
		}
		c.reads = append(c.reads, readEntry{row: row, ver: rec.VerNum << 1, wts: rec.WTS})
		return rec.Tuple, nil
	}
}

// Write implements Protocol: purely local staging.
func (p *SSI) Write(c *Ctx, row *storage.Row, upd UpdateFunc) error {
	c.stage(row, upd)
	return nil
}

// Commit implements Protocol: latch the write set, then certify inside
// the critical section — first-committer-wins for write-write
// conflicts, dangerous-structure detection for rw-antidependencies —
// then install new versions at a fresh commit timestamp.
func (p *SSI) Commit(c *Ctx) error {
	writes := c.sortedWrites()
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
	if len(writes) > 0 {
		runtime.Gosched() // preemption point; see Silo.Commit
	}

	// First-committer-wins: any version newer than our snapshot on a
	// row we write means a concurrent committer beat us.
	for _, w := range writes {
		if w.row.WTS.Load() > c.TS {
			p.unlatchWrites(c)
			return ErrConflict
		}
	}
	if !c.validateScans() {
		p.unlatchWrites(c)
		return ErrConflict
	}

	// Certify against concurrently committed transactions.
	commitTS, ok := p.certify(c)
	if !ok {
		p.unlatchWrites(c)
		c.Stats.Contended++
		return ErrConflict
	}
	p.install(c, commitTS)
	return nil
}

// install publishes c's latched writes as the versions of commitTS, the
// timestamp certify recorded for them, and releases the latches.
func (p *SSI) install(c *Ctx, commitTS uint64) {
	writes := c.writes
	for i := range writes {
		w := &writes[i]
		cur := w.row.Load()
		w.row.PushVersion(&storage.VersionRec{
			VerNum: storage.VerNumber(w.row.Ver.Load()),
			WTS:    w.row.WTS.Load(),
			Tuple:  cur,
		})
		w.install(c)
		w.row.WTS.Store(commitTS)
		w.row.Unlatch(true)
		w.locked = false
	}
}

// certify runs the dangerous-structure test against recently committed
// transactions and, on success, allocates the commit timestamp and
// records this commit under it. Called with the write latches held so
// certification and installation are atomic relative to other
// committers. The timestamp is taken here, under p.mu, and handed to
// install: were it only predicted here and drawn later, a Begin in
// between would take the predicted number, read the versions this
// commit overwrites and still pass for "began after it committed", so
// its rw-antidependency would never be seen.
func (p *SSI) certify(c *Ctx) (commitTS uint64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()

	myReads, myWrites := readKeys(c), writeKeys(c)

	var inRW, outRW bool
	// Edges to committed transactions are discovered here; the marks
	// are applied only if this transaction passes certification.
	var markIn, markOut []int
	for i := range p.recent {
		r := &p.recent[i]
		if r.commit <= c.TS {
			continue // not concurrent: committed before our snapshot
		}
		// Outbound rw: we read a version r overwrote — edge us → r,
		// which is an *inbound* edge for r. If r already has an
		// outbound edge, r is a committed pivot: abort ourselves.
		if keysIntersect(myReads, r.writes) {
			outRW = true
			if r.hadOut {
				return 0, false
			}
			markIn = append(markIn, i)
		}
		// Inbound rw: r read a version we overwrite — edge r → us, an
		// *outbound* edge for r. If r already has an inbound edge, r
		// is a committed pivot: abort ourselves.
		if keysIntersect(myWrites, r.reads) {
			inRW = true
			if r.hadIn {
				return 0, false
			}
			markOut = append(markOut, i)
		}
	}
	if inRW && outRW {
		return 0, false // we are the pivot of a dangerous structure
	}
	for _, i := range markIn {
		p.recent[i].hadIn = true
	}
	for _, i := range markOut {
		p.recent[i].hadOut = true
	}
	commitTS = p.ts.next()
	p.recent = append(p.recent, ssiCommit{
		begin:  c.TS,
		commit: commitTS,
		reads:  myReads,
		writes: myWrites,
		hadIn:  inRW,
		hadOut: outRW,
	})
	// Garbage-collect old entries. A bounded window is a pragmatic
	// approximation of "no active snapshot can race with these"; the
	// serializability checker in the tests guards the approximation.
	if len(p.recent) > 4096 {
		p.recent = append(p.recent[:0], p.recent[len(p.recent)/2:]...)
	}
	return commitTS, true
}

func (p *SSI) unlatchWrites(c *Ctx) {
	for i := range c.writes {
		if c.writes[i].locked {
			c.writes[i].row.Unlatch(false)
			c.writes[i].locked = false
		}
	}
}

// Abort implements Protocol.
func (p *SSI) Abort(c *Ctx) {
	c.Stats.Aborts++
}

func readKeys(c *Ctx) []uint64 {
	out := make([]uint64, len(c.reads))
	for i, r := range c.reads {
		out[i] = uint64(r.row.Key)
	}
	return out
}

func writeKeys(c *Ctx) []uint64 {
	out := make([]uint64, len(c.writes))
	for i, w := range c.writes {
		out[i] = uint64(w.row.Key)
	}
	return out
}

// keysIntersect is a small unsorted intersection test; certifier sets
// are short-lived and small.
func keysIntersect(a, b []uint64) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return false
	}
	m := make(map[uint64]struct{}, len(a))
	for _, k := range a {
		m[k] = struct{}{}
	}
	for _, k := range b {
		if _, ok := m[k]; ok {
			return true
		}
	}
	return false
}
