package shard

import (
	"slices"
	"sync"
	"time"

	"tskd/internal/txn"
)

// hold.go: the coordinator's in-flight key tracker — TsDEFER one level
// up. Every cross-shard transaction of a runtime passes through one
// holdTable before any prepare is sent: it takes all of its keys at
// once, and a transaction that shares a key with a dispatched-but-
// undecided one waits here, at the coordinator, instead of colliding
// at a participant and being voted down.
//
// The table is a lock manager with one FIFO queue per key and a single
// mutex. A transaction joins the queue of every key it touches in one
// critical section, so arrival order is one total order that every
// queue agrees with: no cycle of waiters can form (no deadlock), and
// nobody overtakes an earlier arrival on a shared key (no starvation).
// It is dispatched the moment it heads all of its queues — that is,
// when its keys are free and no earlier waiter wants them — by whoever
// removed the last transaction ahead of it; nobody polls and nothing
// is broadcast. The conflict rule is the participants' own: any shared
// key, reads included.

// holder is one cross-shard transaction's place in the table.
type holder struct {
	keys []txn.Key // distinct keys, sorted
	// ahead counts the keys on which an earlier transaction is still
	// queued before this one; 0 means dispatched. Guarded by the
	// table's mutex.
	ahead int
	// ready receives once when a waiting holder is dispatched.
	ready chan struct{}
}

// keyQueue is one key's FIFO: the transaction at its head and the ones
// behind it, in arrival order.
type keyQueue struct {
	head    *holder
	waiters []*holder
}

type holdTable struct {
	mu   sync.Mutex
	keys map[txn.Key]keyQueue
}

var holderPool = sync.Pool{New: func() any { return &holder{ready: make(chan struct{}, 1)} }}

// newHolder returns a holder for the distinct keys of ops.
func newHolder(ops []txn.Op) *holder {
	h := holderPool.Get().(*holder)
	ks := h.keys[:0]
	for _, o := range ops {
		ks = append(ks, o.Key)
	}
	slices.Sort(ks)
	h.keys = slices.Compact(ks)
	return h
}

// enqueue queues h behind whatever is already queued on each of its
// keys, in one step, and reports whether h heads all of them already:
// true means dispatched (the caller owns the keys until it calls drop),
// false means the caller must wait.
func (ht *holdTable) enqueue(h *holder) (dispatched bool) {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	if ht.keys == nil {
		ht.keys = make(map[txn.Key]keyQueue)
	}
	h.ahead = 0
	for _, k := range h.keys {
		q, busy := ht.keys[k]
		if !busy {
			q.head = h
		} else {
			q.waiters = append(q.waiters, h)
			h.ahead++
		}
		ht.keys[k] = q
	}
	return h.ahead == 0
}

// wait blocks a holder that enqueue left waiting until it is dispatched
// (true) or until deadline (when nonzero) passes first (false: h has
// left every queue, holds nothing and must not be used again).
func (ht *holdTable) wait(h *holder, deadline time.Time) (dispatched bool) {
	if deadline.IsZero() {
		<-h.ready
		return true
	}
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-h.ready:
		return true
	case <-timer.C:
	}
	ht.mu.Lock()
	dispatched = h.ahead == 0
	if !dispatched {
		ht.dropLocked(h)
	}
	ht.mu.Unlock()
	if dispatched {
		<-h.ready // lost the race with the dispatch: the keys are h's after all
		return true
	}
	holderPool.Put(h)
	return false
}

// drop takes h out of every queue it is in — releasing the keys of a
// dispatched transaction — dispatches whoever now heads all of its
// queues, and recycles h.
func (ht *holdTable) drop(h *holder) {
	ht.mu.Lock()
	ht.dropLocked(h)
	ht.mu.Unlock()
	holderPool.Put(h)
}

func (ht *holdTable) dropLocked(h *holder) {
	for _, k := range h.keys {
		q := ht.keys[k]
		if q.head != h {
			// A waiter leaving mid-queue (deadline): nobody moves up to
			// the head, so nobody behind it is any closer to dispatch.
			i := slices.Index(q.waiters, h)
			q.waiters = slices.Delete(q.waiters, i, i+1)
			ht.keys[k] = q
			continue
		}
		if len(q.waiters) == 0 {
			delete(ht.keys, k)
			continue
		}
		next := q.waiters[0]
		q.head = next
		q.waiters = slices.Delete(q.waiters, 0, 1)
		ht.keys[k] = q
		if next.ahead--; next.ahead == 0 {
			next.ready <- struct{}{} // buffered: never blocks under mu
		}
	}
}
