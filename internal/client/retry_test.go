package client

import (
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestNextIdemKeyNeverZero checks the key generator's one hard rule:
// zero means "no key" on the wire, so it is never handed out, even
// when the counter wraps.
func TestNextIdemKeyNeverZero(t *testing.T) {
	r := DialReliable("127.0.0.1:1", RetryPolicy{Seed: 1})
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		k := r.NextIdemKey()
		if k == 0 {
			t.Fatal("zero idempotency key issued")
		}
		if seen[k] {
			t.Fatalf("key %d issued twice", k)
		}
		seen[k] = true
	}
	// Force the wrap.
	r.mu.Lock()
	r.next = ^uint64(0)
	r.mu.Unlock()
	if k := r.NextIdemKey(); k != ^uint64(0) {
		t.Fatalf("pre-wrap key = %d", k)
	}
	if k := r.NextIdemKey(); k == 0 {
		t.Fatal("wrap issued the zero key")
	}
}

// TestSubmitExhaustsRetriesOnDeadServer bounds the failure mode: with
// no server at all, Submit returns ErrRetriesExhausted after
// MaxAttempts dial attempts, not an infinite loop.
func TestSubmitExhaustsRetriesOnDeadServer(t *testing.T) {
	r := DialReliable("127.0.0.1:1", RetryPolicy{
		Base: 100 * time.Microsecond, Max: time.Millisecond, MaxAttempts: 3, Seed: 7,
	})
	_, err := r.Submit(context.Background(), Request{Ops: "R[1:1]"})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

// TestSubmitHonorsContext checks that cancellation interrupts the
// backoff sleep promptly.
func TestSubmitHonorsContext(t *testing.T) {
	r := DialReliable("127.0.0.1:1", RetryPolicy{
		Base: time.Hour, Max: time.Hour, MaxAttempts: 5, Seed: 7,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Submit(ctx, Request{Ops: "R[1:1]"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff")
	}
}

// TestSubmitDeadlineDoomed checks that a deadlined request stops
// retrying once its budget elapses client-side: with an unreachable
// server the reliable client gives up with a synthesized StatusExpired
// instead of burning the whole attempt budget on dead work.
func TestSubmitDeadlineDoomed(t *testing.T) {
	r := DialReliable("127.0.0.1:1", RetryPolicy{
		Base: 5 * time.Millisecond, Max: 10 * time.Millisecond, MaxAttempts: 1000, Seed: 7,
	})
	start := time.Now()
	resp, err := r.Submit(context.Background(), Request{Seq: 3, Ops: "R[1:1]", DeadlineMS: 25})
	if err != nil {
		t.Fatalf("err = %v, want synthesized expired response", err)
	}
	if resp.Status != StatusExpired || resp.Seq != 3 {
		t.Fatalf("resp = %+v, want StatusExpired seq=3", resp)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("took %v: deadline did not bound the retry loop", d)
	}
}

// TestBackoffHonorsRetryAfter checks the server hint is a floor under
// the jittered exponential step.
func TestBackoffHonorsRetryAfter(t *testing.T) {
	r := DialReliable("127.0.0.1:1", RetryPolicy{
		Base: time.Microsecond, Max: 2 * time.Microsecond, Seed: 7,
	})
	start := time.Now()
	if err := r.backoff(context.Background(), 0, 30); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("slept %v, retry-after hint was 30ms", d)
	}
}

// flappingListener accepts connections, completes the preamble
// handshake, and closes each one before a single response is written —
// a server stuck in a crash loop: dials succeed, connections die. It
// counts the connections it slammed.
func flappingListener(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var slammed atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			slammed.Add(1)
			var pre [len(BinPreamble)]byte
			if _, err := io.ReadFull(nc, pre[:]); err == nil {
				nc.Write(pre[:])
			}
			nc.Close()
		}
	}()
	return ln.Addr().String(), &slammed
}

// steadyServer answers every request on every connection with a
// commit.
func steadyServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serveFrames(nc, func(req Request, reply func(Response)) {
				reply(Response{Seq: req.Seq, Status: StatusCommit})
			})
		}
	}()
	return ln.Addr().String()
}

// TestMultiAddrFailsOverFromFlappingServer points a multi-address
// reliable client at a flapping listener first and a healthy server
// second: submissions must converge on the healthy one and commit,
// with the flapping address actually having been tried.
func TestMultiAddrFailsOverFromFlappingServer(t *testing.T) {
	flapAddr, slammed := flappingListener(t)
	goodAddr := steadyServer(t)
	r := DialReliableMulti([]string{flapAddr, goodAddr}, RetryPolicy{
		Base: time.Millisecond, Max: 5 * time.Millisecond, MaxAttempts: 20, Seed: 11,
	})
	defer r.Close()
	for i := 0; i < 5; i++ {
		resp, err := r.Submit(context.Background(), Request{Seq: uint64(i), Ops: "R[1:1]"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp.Status != StatusCommit {
			t.Fatalf("submit %d: status %s", i, resp.Status)
		}
	}
	if slammed.Load() == 0 {
		t.Fatal("flapping address was never tried")
	}
	if got := r.Addr(); got != goodAddr {
		t.Fatalf("client points at %s, want the healthy %s", got, goodAddr)
	}
}

// TestMalformedRequestIsTerminal: a request the client cannot encode
// comes back StatusError, terminal, without costing the connection —
// ReliableConn neither resubmits it nor redials, so the connection
// other submissions share stays up.
func TestMalformedRequestIsTerminal(t *testing.T) {
	var dials atomic.Int64
	r := DialReliable(steadyServer(t), RetryPolicy{
		Base: time.Millisecond, Max: 5 * time.Millisecond, Seed: 1,
		Dial: func(addr string) (WireConn, error) {
			dials.Add(1)
			return DialPipelined(addr, PipelineConfig{})
		},
	})
	defer r.Close()
	resp, err := r.Submit(context.Background(), Request{Ops: "R[x1]X[x2]"})
	if err != nil || resp.Status != StatusError || resp.Error == "" {
		t.Fatalf("malformed submit: %+v, %v; want StatusError", resp, err)
	}
	if resp, err := r.Submit(context.Background(), Request{Ops: "R[x1]"}); err != nil || !resp.Committed() {
		t.Fatalf("submit after malformed: %+v, %v", resp, err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialed %d times, want 1", n)
	}
}

// redirectingServer answers every request with not_primary pointing at
// leader — a deposed primary that knows its successor.
func redirectingServer(t *testing.T, leader string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var refused atomic.Int64
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serveFrames(nc, func(req Request, reply func(Response)) {
				refused.Add(1)
				reply(Response{Seq: req.Seq, Status: StatusNotPrimary, Leader: leader})
			})
		}
	}()
	return ln.Addr().String(), &refused
}

// TestNotPrimaryRedirectLearnsLeader: a client configured with ONLY the
// deposed primary's address must still converge — the not_primary
// response carries the promoted backup's address, the client learns it
// as a new candidate and commits there. This is the discovery path
// automatic failover relies on: nobody re-configures the clients.
func TestNotPrimaryRedirectLearnsLeader(t *testing.T) {
	goodAddr := steadyServer(t)
	deposedAddr, refused := redirectingServer(t, goodAddr)
	r := DialReliableMulti([]string{deposedAddr}, RetryPolicy{
		Base: time.Millisecond, Max: 5 * time.Millisecond, MaxAttempts: 10, Seed: 5,
	})
	defer r.Close()
	for i := 0; i < 3; i++ {
		resp, err := r.Submit(context.Background(), Request{Seq: uint64(i), Ops: "R[1:1]"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp.Status != StatusCommit {
			t.Fatalf("submit %d: status %s", i, resp.Status)
		}
	}
	if refused.Load() == 0 {
		t.Fatal("deposed address was never tried")
	}
	if got := r.Addr(); got != goodAddr {
		t.Fatalf("client points at %s, want the redirected leader %s", got, goodAddr)
	}
	// Only the first submission should have paid the redirect: the
	// learned leader is sticky across submissions.
	if n := refused.Load(); n != 1 {
		t.Fatalf("deposed primary refused %d submissions, want 1", n)
	}
}

// TestNotPrimaryWithoutLeaderRotates: a not_primary refusal with no
// successor named falls back to plain rotation through the configured
// candidates.
func TestNotPrimaryWithoutLeaderRotates(t *testing.T) {
	deposedAddr, _ := redirectingServer(t, "")
	goodAddr := steadyServer(t)
	r := DialReliableMulti([]string{deposedAddr, goodAddr}, RetryPolicy{
		Base: time.Millisecond, Max: 5 * time.Millisecond, MaxAttempts: 10, Seed: 5,
	})
	defer r.Close()
	resp, err := r.Submit(context.Background(), Request{Seq: 1, Ops: "R[1:1]"})
	if err != nil || resp.Status != StatusCommit {
		t.Fatalf("submit: %+v, %v", resp, err)
	}
	if got := r.Addr(); got != goodAddr {
		t.Fatalf("client points at %s, want %s", got, goodAddr)
	}
}

// TestQuarantineSkipsDeadAddress: once a dead address has refused
// quarantineAfter consecutive dials it leaves the rotation, so
// submissions stop paying a failed dial (and its backoff) every time
// around the ring; it re-enters after the jittered re-probe delay.
func TestQuarantineSkipsDeadAddress(t *testing.T) {
	var dead atomic.Int64
	goodAddr := steadyServer(t)
	deadAddr := "127.0.0.1:1"
	r := DialReliableMulti([]string{deadAddr, goodAddr}, RetryPolicy{
		Base: 100 * time.Microsecond, Max: time.Millisecond, MaxAttempts: 50, Seed: 9,
		Dial: func(addr string) (WireConn, error) {
			if addr == deadAddr {
				dead.Add(1)
				return nil, errors.New("connection refused")
			}
			return DialPipelined(addr, PipelineConfig{})
		},
	})
	defer r.Close()
	// Burn the dead address into quarantine: each round drops the
	// healthy connection and points the cursor back at the dead
	// address, so the submission either pays one failed dial there (not
	// yet quarantined) or skips it outright. After quarantineAfter
	// failures it must stop being dialed entirely.
	for i := 0; i < 30; i++ {
		r.Close()
		r.mu.Lock()
		r.cur = 0
		r.mu.Unlock()
		resp, err := r.Submit(context.Background(), Request{Seq: uint64(i), Ops: "R[1:1]"})
		if err != nil || resp.Status != StatusCommit {
			t.Fatalf("submit %d: %+v, %v", i, resp, err)
		}
	}
	if n := dead.Load(); n != quarantineAfter {
		t.Fatalf("dead address dialed %d times, want exactly %d (then quarantined)", n, quarantineAfter)
	}
	// After the re-probe delay the address re-enters the rotation.
	time.Sleep(2 * quarantineBase)
	r.Close()
	r.mu.Lock()
	r.cur = 0 // point the cursor back at the dead address
	r.mu.Unlock()
	if _, err := r.Submit(context.Background(), Request{Seq: 99, Ops: "R[1:1]"}); err != nil {
		t.Fatalf("post-quarantine submit: %v", err)
	}
	if n := dead.Load(); n <= quarantineAfter {
		t.Fatal("quarantined address was never re-probed after its delay")
	}
}

// TestMultiAddrRotatesThroughDeadAddresses: with every address dead,
// the dial failures must rotate round-robin through the whole list
// before retries exhaust — no address is permanently sticky.
func TestMultiAddrRotatesThroughDeadAddresses(t *testing.T) {
	r := DialReliableMulti([]string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}, RetryPolicy{
		Base: 100 * time.Microsecond, Max: time.Millisecond, MaxAttempts: 6, Seed: 3,
	})
	start := r.Addr()
	if _, err := r.Submit(context.Background(), Request{Ops: "R[1:1]"}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// 6 failed dials over 3 addresses: the cursor visited every
	// address twice and wrapped back to the start.
	if r.Addr() != start {
		t.Fatalf("cursor at %s after 6 attempts over 3 addrs, want wrap to %s", r.Addr(), start)
	}
}
