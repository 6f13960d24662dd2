package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/engine"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// heldSyncer is a stable-storage barrier the test controls, over every
// log it wraps: while held, each Sync announces itself on entered and
// blocks until release; a non-nil err fails every Sync after the real
// fsync ran.
type heldSyncer struct {
	entered chan struct{}
	release chan struct{}

	mu  sync.Mutex
	err error
}

// wrap is a DurabilityOptions.WrapSyncer: each log segment keeps its
// own inner barrier.
func (h *heldSyncer) wrap(in wal.Syncer) wal.Syncer { return heldSync{h, in} }

func (h *heldSyncer) fail(err error) {
	h.mu.Lock()
	h.err = err
	h.mu.Unlock()
}

type heldSync struct {
	h     *heldSyncer
	inner wal.Syncer
}

func (s heldSync) Sync() error {
	h := s.h
	if h.release != nil {
		select {
		case h.entered <- struct{}{}:
		default:
		}
		<-h.release
	}
	if err := s.inner.Sync(); err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// submitPipelined sends every request over one pipelined connection at
// once and delivers the responses, in completion order, on the returned
// channel.
func submitPipelined(t *testing.T, addr string, reqs []client.Request) <-chan client.Response {
	t.Helper()
	pc, err := client.DialPipelined(addr, client.PipelineConfig{Window: len(reqs)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	out := make(chan client.Response, len(reqs))
	for _, req := range reqs {
		go func(req client.Request) {
			resp, err := pc.Submit(context.Background(), req)
			if err != nil {
				t.Errorf("submit: %v", err)
			}
			out <- resp
		}(req)
	}
	return out
}

// markerReqs are n single-shard marker requests (see shardMarkerReq),
// markers and idempotency keys first...
func markerReqs(t *testing.T, shards int, first uint64, n int) []client.Request {
	reqs := make([]client.Request, n)
	for i := range reqs {
		reqs[i] = shardMarkerReq(t, shards, first+uint64(i), int(first)+i)
	}
	return reqs
}

// startHeld boots a durable server over shards shards whose every log
// fsync runs through hs.
func startHeld(t *testing.T, shards int, hs *heldSyncer, mut func(*Config)) *Server {
	t.Helper()
	ycsb := workload.YCSB{Records: 64}
	cfg := withShards(durableConfig(t.TempDir(), ycsb), shards, ycsb)
	cfg.Durability.NoSync = false
	cfg.Durability.WrapSyncer = hs.wrap
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAckWaitsForBundleBarrier is the bundle-barrier ack rule on the
// serving path: the engine appends a bundle's commits without waiting
// and one fsync covers them all, so while that fsync is held no client
// may see `committed` — and once it returns, every one of them does.
// The sharded row holds every unit's barrier through WrapSyncer.
func TestAckWaitsForBundleBarrier(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 16
			hs := &heldSyncer{entered: make(chan struct{}, 1), release: make(chan struct{})}
			s := startHeld(t, shards, hs, nil)
			defer s.Shutdown(context.Background())
			release := sync.OnceFunc(func() { close(hs.release) })
			defer release() // a failing test must not leave a unit parked in Sync

			out := submitPipelined(t, s.Addr(), markerReqs(t, shards, 100, n))
			select {
			case <-hs.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the bundle never reached its fsync")
			}
			// A bundle has executed (its rows are installed) and sits in
			// its barrier, and no other can get past its own. Nothing may
			// be acknowledged for as long as the barriers are held.
			select {
			case resp := <-out:
				t.Fatalf("response %+v arrived while the bundle's fsync was held", resp)
			case <-time.After(100 * time.Millisecond):
			}
			release()
			for i := 0; i < n; i++ {
				select {
				case resp := <-out:
					if !resp.Committed() {
						t.Fatalf("after release: status %q (%s)", resp.Status, resp.Error)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d responses after release", i, n)
				}
			}
			st := s.Stats()
			if st.Committed != n || st.WALRecords != n {
				t.Fatalf("committed %d, WAL records %d, want %d each", st.Committed, st.WALRecords, n)
			}
			if st.WALSyncs > uint64(st.Bundles) {
				t.Errorf("%d fsyncs for %d bundles: more than one barrier per bundle", st.WALSyncs, st.Bundles)
			}
		})
	}
}

// TestStatsAnswerWhileFsyncIsHeld: the log holds its mutex across the
// fsync, and a stalled disk is exactly when an operator asks /metrics
// what is going on, so Stats must not queue up behind it. The WAL
// counters it reports are read without the log's mutex and, once the
// fsync returns, say what they always said.
func TestStatsAnswerWhileFsyncIsHeld(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 16
			hs := &heldSyncer{entered: make(chan struct{}, 1), release: make(chan struct{})}
			s := startHeld(t, shards, hs, nil)
			defer s.Shutdown(context.Background())
			release := sync.OnceFunc(func() { close(hs.release) })
			defer release()

			out := submitPipelined(t, s.Addr(), markerReqs(t, shards, 100, n))
			select {
			case <-hs.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the bundle never reached its fsync")
			}
			held := make(chan Stats, 1)
			go func() { held <- s.Stats() }()
			select {
			case st := <-held:
				// The stuck flushes are visible as such: written, not yet
				// synced — one per unit that reached its barrier.
				if st.WALRecords == 0 || st.WALBytes == 0 || st.WALFlushes < 1 || st.WALFlushes > uint64(shards) || st.WALSyncs != 0 {
					t.Errorf("during the held fsync: %d records, %d bytes, %d flushes, %d syncs; want >0, >0, 1..%d, 0",
						st.WALRecords, st.WALBytes, st.WALFlushes, st.WALSyncs, shards)
				}
			case <-time.After(100 * time.Millisecond):
				t.Fatal("Stats blocked behind the held fsync")
			}
			release()
			for i := 0; i < n; i++ {
				select {
				case resp := <-out:
					if !resp.Committed() {
						t.Fatalf("after release: status %q (%s)", resp.Status, resp.Error)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d responses after release", i, n)
				}
			}
			st := s.Stats()
			if st.WALRecords != n || st.WALFlushes != uint64(st.Bundles) || st.WALSyncs != st.WALFlushes || st.WALBytes == 0 {
				t.Errorf("after release: %d records, %d flushes, %d syncs, %d bytes over %d bundles; want %d records and one flush and sync per bundle",
					st.WALRecords, st.WALFlushes, st.WALSyncs, st.WALBytes, st.Bundles, n)
			}
		})
	}
}

// TestFailedBarrierAcksNothing: when a bundle's barrier fails, nothing
// from that bundle is acknowledged and none of its idempotency keys
// enters the dedup window — a resubmission is never answered as a
// committed duplicate. A production server fail-stops there (the
// engine panics: memory is ahead of the log); the test claims the
// failure through Hooks.OnWALError so the process survives to be
// inspected. The flush-gate veto, the other way a barrier fails, is
// covered per unit by internal/shard's TestUnitAckWaitsForBundleBarrier.
func TestFailedBarrierAcksNothing(t *testing.T) {
	boom := errors.New("boom")
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 16
			const firstKey = 500
			hs := &heldSyncer{}
			var mu sync.Mutex
			lost := make(map[uint64]bool)
			s := startHeld(t, shards, hs, func(cfg *Config) {
				cfg.Core.Hooks = &engine.Hooks{OnWALError: func(tx *txn.Transaction, err error) {
					if !errors.Is(err, boom) {
						t.Errorf("commit lost to %v, want the injected failure", err)
					}
					mu.Lock()
					lost[tx.IdemKey] = true
					mu.Unlock()
				}}
			})
			defer s.Shutdown(context.Background())
			hs.fail(boom)

			reqs := markerReqs(t, shards, firstKey, n)
			out := submitPipelined(t, s.Addr(), reqs)
			for i := 0; i < n; i++ {
				select {
				case resp := <-out:
					if resp.Committed() {
						t.Fatalf("seq %d acknowledged as committed over a failed barrier", resp.Seq)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d responses", i, n)
				}
			}
			mu.Lock()
			if len(lost) != n {
				t.Fatalf("OnWALError saw %d commits, want all %d", len(lost), n)
			}
			mu.Unlock()
			out = submitPipelined(t, s.Addr(), reqs)
			for i := 0; i < n; i++ {
				if resp := <-out; resp.Committed() && resp.Duplicate {
					t.Errorf("seq %d: the idempotency key of an unacknowledged commit entered the dedup window", resp.Seq)
				}
			}
		})
	}
}
