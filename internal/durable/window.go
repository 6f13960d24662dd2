package durable

import (
	"sync"

	"tskd/internal/client"
)

// window.go: the idempotency window, the state behind exactly-once
// resubmission. A client that lost its connection cannot know whether
// an in-flight transaction committed, so it resubmits under the same
// idempotency key; the window remembers recently committed keys (with
// their responses) and keys currently in flight, and answers duplicates
// without executing them again. The unsharded server keeps one, every
// shard keeps one for its single-shard transactions, and the sharded
// coordinator keeps one for cross-shard transactions.

// State classifies a key on Begin.
type State uint8

const (
	Miss     State = iota // key unknown: caller proceeds, key is now inflight
	Inflight              // an earlier submission is still executing
	Hit                   // key committed: answer from the cached response
)

// Window is an idempotency window with FIFO eviction of committed keys.
// It is safe for concurrent use: connection readers and the bundling
// loop both touch it.
type Window struct {
	mu        sync.Mutex
	inflight  map[uint64]struct{}
	committed map[uint64]client.Response
	order     []uint64 // committed keys, oldest first (FIFO eviction)
	limit     int
}

// NewWindow returns an empty window remembering at most limit committed
// keys.
func NewWindow(limit int) *Window {
	return &Window{
		inflight:  make(map[uint64]struct{}),
		committed: make(map[uint64]client.Response),
		limit:     limit,
	}
}

// Begin classifies key and, on a Miss, marks it inflight. On a Hit the
// cached response is returned (Seq is the original submission's; the
// caller rewrites it).
func (d *Window) Begin(key uint64) (State, client.Response) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if resp, ok := d.committed[key]; ok {
		return Hit, resp
	}
	if _, ok := d.inflight[key]; ok {
		return Inflight, client.Response{}
	}
	d.inflight[key] = struct{}{}
	return Miss, client.Response{}
}

// Commit moves key from inflight to committed, caching resp for future
// duplicates, and evicts the oldest committed keys beyond the limit.
func (d *Window) Commit(key uint64, resp client.Response) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.inflight, key)
	if _, ok := d.committed[key]; !ok {
		d.order = append(d.order, key)
	}
	d.committed[key] = resp
	for len(d.order) > d.limit {
		old := d.order[0]
		d.order = d.order[1:]
		delete(d.committed, old)
	}
}

// Release drops an inflight mark (abort, cancel, failed admission): the
// client may retry the key.
func (d *Window) Release(key uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.inflight, key)
}

// Restore inserts recovered keys, oldest first, as committed with a
// synthetic response (the original's latency detail did not survive the
// crash; the commit fact did).
func (d *Window) Restore(keys ...uint64) {
	for _, k := range keys {
		d.Commit(k, client.Response{Status: client.StatusCommit})
	}
}

// CommittedKeys returns the committed window oldest first, for the
// checkpoint sidecar.
func (d *Window) CommittedKeys() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]uint64(nil), d.order...)
}

// Size is the number of committed plus inflight keys.
func (d *Window) Size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.committed) + len(d.inflight)
}
