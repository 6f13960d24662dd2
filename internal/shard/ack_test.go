package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/engine"
	"tskd/internal/txn"
)

// testGate is a wal.FlushGate the test controls. It sits after the
// write and the fsync in every log's flush path, so holding it holds
// the bundle's durability barrier. hold, when non-nil, blocks each
// check until closed (announcing itself on entered); err vetoes.
type testGate struct {
	mu      sync.Mutex
	hold    chan struct{}
	entered chan struct{}
	err     error
}

func (g *testGate) set(hold chan struct{}, err error) {
	g.mu.Lock()
	g.hold, g.err = hold, err
	g.mu.Unlock()
}

func (g *testGate) check() error {
	g.mu.Lock()
	hold := g.hold
	g.mu.Unlock()
	if hold != nil {
		g.entered <- struct{}{}
		<-hold
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// TestUnitAckWaitsForBundleBarrier is the bundle-barrier ack rule
// through shard units: a unit's engine run appends its bundle's commits
// without waiting and ends in one barrier, and the unit answers only
// after it. While the barrier is held no `committed` goes out; when it
// fails, nothing from the bundle is acknowledged and no idempotency key
// from it enters the unit's window. (A production unit fail-stops on a
// failed barrier; the test claims the failure through OnWALError so the
// process survives to be inspected.)
func TestUnitAckWaitsForBundleBarrier(t *testing.T) {
	const shards, perShard = 2, 8
	gate := &testGate{entered: make(chan struct{}, shards)}
	var mu sync.Mutex
	lost := make(map[uint64]bool)
	rt, err := Open(Config{
		Shards: shards, DB: ycsbBase,
		Bundle: perShard, FlushInterval: 50 * time.Millisecond, QueueDepth: 4096,
		Core: core.Options{Workers: 2, Hooks: &engine.Hooks{OnWALError: func(tx *txn.Transaction, err error) {
			mu.Lock()
			lost[tx.IdemKey] = true
			mu.Unlock()
		}}},
		Durability: &Durability{Dir: t.TempDir(), NoSync: true, FlushGate: gate.check},
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer shutdown(t, rt)

	// submit sends one full bundle of single-shard updates to every
	// shard, idempotency keys firstKey.., and returns the response
	// stream.
	submit := func(firstKey uint64) <-chan client.Response {
		out := make(chan client.Response, shards*perShard)
		key := firstKey
		for sh := 0; sh < shards; sh++ {
			for i := 0; i < perShard; i++ {
				tx := &txn.Transaction{IdemKey: key}
				tx.UF(keyOn(rt.Router(), sh, uint64(i*37)), 1, 0)
				rt.Submit(tx, func(r client.Response) { out <- r })
				key++
			}
		}
		return out
	}
	collect := func(out <-chan client.Response, wantCommit bool) {
		t.Helper()
		for i := 0; i < shards*perShard; i++ {
			select {
			case r := <-out:
				if (r.Status == client.StatusCommit) != wantCommit {
					t.Fatalf("response %d: status %q (%s), want committed=%v", i, r.Status, r.Error, wantCommit)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("only %d of %d responses", i, shards*perShard)
			}
		}
	}

	// Held barrier: both units execute their bundle and park in the
	// gate; nothing is answered until it opens.
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	defer release() // a failing test must not leave the units parked
	gate.set(hold, nil)
	out := submit(1000)
	for sh := 0; sh < shards; sh++ {
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d units reached their barrier", sh, shards)
		}
	}
	select {
	case r := <-out:
		t.Fatalf("response %+v arrived while the barrier was held", r)
	case <-time.After(100 * time.Millisecond):
	}
	gate.set(nil, nil)
	release()
	collect(out, true)

	// Failed barrier: nothing acknowledged, nothing remembered.
	veto := errors.New("lease lost")
	gate.set(nil, veto)
	collect(submit(2000), false)
	mu.Lock()
	defer mu.Unlock()
	if len(lost) != shards*perShard {
		t.Fatalf("OnWALError saw %d commits, want all %d of the vetoed bundles", len(lost), shards*perShard)
	}
	for _, u := range rt.units {
		for _, k := range u.dedup.CommittedKeys() {
			if k >= 2000 {
				t.Errorf("shard %d: idempotency key %d of an unacknowledged commit entered the window", u.id, k)
			}
		}
	}
	gate.set(nil, nil) // let shutdown's final flushes through
}
