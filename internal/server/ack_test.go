package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/engine"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// heldSyncer is a stable-storage barrier the test controls: while held,
// Sync announces itself on entered and blocks until release; a non-nil
// err fails every Sync after the real fsync ran.
type heldSyncer struct {
	inner   wal.Syncer
	entered chan struct{}
	release chan struct{}

	mu  sync.Mutex
	err error
}

func (h *heldSyncer) wrap(in wal.Syncer) wal.Syncer { h.inner = in; return h }

func (h *heldSyncer) fail(err error) {
	h.mu.Lock()
	h.err = err
	h.mu.Unlock()
}

func (h *heldSyncer) Sync() error {
	if h.release != nil {
		select {
		case h.entered <- struct{}{}:
		default:
		}
		<-h.release
	}
	if err := h.inner.Sync(); err != nil {
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

func markerReqs(t *testing.T, firstKey uint64, n int) []client.Request {
	reqs := make([]client.Request, n)
	for i := range reqs {
		reqs[i] = markerReq(t, firstKey+uint64(i), i)
	}
	return reqs
}

// TestAckWaitsForBundleBarrier is the bundle-barrier ack rule on the
// serving path: the engine appends a bundle's commits without waiting
// and one fsync covers them all, so while that fsync is held no client
// may see `committed` — and once it returns, every one of them does.
func TestAckWaitsForBundleBarrier(t *testing.T) {
	const n = 16
	hs := &heldSyncer{entered: make(chan struct{}, 1), release: make(chan struct{})}
	cfg := durableConfig(t.TempDir(), workload.YCSB{Records: 64})
	cfg.Durability.NoSync = false
	cfg.Durability.WrapSyncer = hs.wrap
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	release := sync.OnceFunc(func() { close(hs.release) })
	defer release() // a failing test must not leave the bundler parked in Sync

	out := submitPipelined(t, s.Addr(), markerReqs(t, 100, n))
	select {
	case <-hs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the bundle never reached its fsync")
	}
	// The first bundle has executed (its rows are installed) and sits
	// in its barrier. Nothing may be acknowledged for as long as the
	// barrier is held.
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
}

// TestStatsAnswerWhileFsyncIsHeld: the log holds its mutex across the
// fsync, and a stalled disk is exactly when an operator asks /metrics
// what is going on, so Stats must not queue up behind it. The WAL
// counters it reports are read without the log's mutex and, once the
// fsync returns, say what they always said.
func TestStatsAnswerWhileFsyncIsHeld(t *testing.T) {
	const n = 16
	hs := &heldSyncer{entered: make(chan struct{}, 1), release: make(chan struct{})}
	cfg := durableConfig(t.TempDir(), workload.YCSB{Records: 64})
	cfg.Durability.NoSync = false
	cfg.Durability.WrapSyncer = hs.wrap
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	release := sync.OnceFunc(func() { close(hs.release) })
	defer release()

	out := submitPipelined(t, s.Addr(), markerReqs(t, 100, n))
	select {
	case <-hs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the bundle never reached its fsync")
	}
	held := make(chan Stats, 1)
	go func() { held <- s.Stats() }()
	select {
	case st := <-held:
		// The stuck flush is visible as such: written, not yet synced.
		if st.WALRecords == 0 || st.WALBytes == 0 || st.WALFlushes != 1 || st.WALSyncs != 0 {
			t.Errorf("during the held fsync: %d records, %d bytes, %d flushes, %d syncs; want >0, >0, 1, 0",
				st.WALRecords, st.WALBytes, st.WALFlushes, st.WALSyncs)
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
}

// TestFailedBarrierAcksNothing: when a bundle's barrier fails — the
// fsync errors, or the flush gate vetoes (a lapsed lease) — nothing
// from that bundle is acknowledged and none of its idempotency keys
// enters the dedup window. A production server fail-stops there (the
// engine panics: memory is ahead of the log); the test claims the
// failure through Hooks.OnWALError so the process survives to be
// inspected.
func TestFailedBarrierAcksNothing(t *testing.T) {
	boom := errors.New("boom")
	for name, arm := range map[string]func(*Server, *heldSyncer){
		"fsync error": func(_ *Server, hs *heldSyncer) { hs.fail(boom) },
		"gate veto":   func(s *Server, _ *heldSyncer) { s.log.SetFlushGate(func() error { return boom }) },
	} {
		t.Run(name, func(t *testing.T) {
			const n = 16
			const firstKey = 500
			hs := &heldSyncer{}
			var mu sync.Mutex
			lost := make(map[uint64]bool)
			cfg := durableConfig(t.TempDir(), workload.YCSB{Records: 64})
			cfg.Durability.NoSync = false
			cfg.Durability.WrapSyncer = hs.wrap
			cfg.Core.Hooks = &engine.Hooks{OnWALError: func(tx *txn.Transaction, err error) {
				if !errors.Is(err, boom) {
					t.Errorf("commit lost to %v, want the injected failure", err)
				}
				mu.Lock()
				lost[tx.IdemKey] = true
				mu.Unlock()
			}}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			arm(s, hs)

			out := submitPipelined(t, s.Addr(), markerReqs(t, firstKey, n))
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
			defer mu.Unlock()
			if len(lost) != n {
				t.Fatalf("OnWALError saw %d commits, want all %d", len(lost), n)
			}
			for _, k := range s.dedup.CommittedKeys() {
				if k >= firstKey && k < firstKey+n {
					t.Errorf("idempotency key %d of an unacknowledged commit entered the dedup window", k)
				}
			}
		})
	}
}
