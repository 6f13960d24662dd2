package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tskd/internal/arbiter"
	"tskd/internal/client"
)

// TestLeaseGateRefusesAndRedirects wires two servers and a real
// arbiter together: server A holds the lease and commits; a rival
// registers the same group at a higher epoch (what a promoted backup
// does), which fences A; from then on A refuses every submission with
// not_primary plus the new leader's address, and a reliable client
// configured with only A's address converges on B via the redirect.
func TestLeaseGateRefusesAndRedirects(t *testing.T) {
	arb, err := arbiter.New(arbiter.Config{
		Dir:        t.TempDir(),
		LeaseTTL:   250 * time.Millisecond,
		ProbeEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := arb.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer arb.Close()

	// Server B: the failover target. Plain server (its own lease is not
	// under test); its address is what the arbiter hands to fenced peers.
	b, ycsb := startServer(t, nil)
	defer b.Shutdown(context.Background())

	// Server A: the primary whose dispatch is lease-gated.
	lcA, err := arbiter.NewLeaseClient(arbiter.LeaseConfig{
		Addr: arb.Addr(), Group: "g0", Epoch: 1, Announce: "node-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lcA.Close()
	a, _ := startServer(t, func(c *Config) { c.Lease = lcA })
	defer a.Shutdown(context.Background())
	if !lcA.WaitHeld(2 * time.Second) {
		t.Fatal("server A never acquired the lease")
	}

	// Held lease: submissions commit and the lease shows on /metrics
	// and /healthz.
	conn, err := client.DialPipelined(a.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reqs := genRequests(t, ycsb, 4, 42)
	for _, req := range reqs[:2] {
		resp, err := conn.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Committed() {
			t.Fatalf("held-lease submit: status %q (%s)", resp.Status, resp.Error)
		}
	}
	conn.Close()
	if st := a.Stats(); st.Lease == nil || !st.Lease.Held || st.Lease.Epoch != 1 {
		t.Fatalf("stats lease = %+v, want held at epoch 1", st.Lease)
	}
	if body := healthz(t, a); !strings.Contains(body, "role=primary") {
		t.Fatalf("/healthz = %q, want role=primary", body)
	}

	// A promoted rival claims the group at epoch 2, announcing B's
	// address. A's next renew is fenced.
	lcB, err := arbiter.NewLeaseClient(arbiter.LeaseConfig{
		Addr: arb.Addr(), Group: "g0", Epoch: 2, Announce: b.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lcB.Close()
	if !lcB.WaitHeld(2 * time.Second) {
		t.Fatal("rival never acquired the lease")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !errors.Is(lcA.Check(), arbiter.ErrLeaseFenced) {
		if time.Now().After(deadline) {
			t.Fatal("server A was never fenced")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Direct submission to A is refused with the new leader's address.
	conn2, err := client.DialPipelined(a.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := conn2.Submit(context.Background(), reqs[2])
	conn2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != client.StatusNotPrimary {
		t.Fatalf("fenced submit: status %q, want %q", resp.Status, client.StatusNotPrimary)
	}
	if resp.Leader != b.Addr() {
		t.Fatalf("fenced submit: leader %q, want %q", resp.Leader, b.Addr())
	}
	if st := a.Stats(); st.NotPrimary == 0 {
		t.Error("stats: NotPrimary counter never incremented")
	}
	if body := healthz(t, a); !strings.Contains(body, "not primary") {
		t.Fatalf("fenced /healthz = %q, want not primary", body)
	}

	// A reliable client that only knows A's address learns B from the
	// redirect and commits there.
	r := client.DialReliableMulti([]string{a.Addr()}, client.RetryPolicy{Seed: 7})
	defer r.Close()
	rresp, err := r.Submit(context.Background(), reqs[3])
	if err != nil {
		t.Fatal(err)
	}
	if !rresp.Committed() {
		t.Fatalf("redirected submit: status %q (%s)", rresp.Status, rresp.Error)
	}
	if got := r.Addr(); got != b.Addr() {
		t.Fatalf("reliable client converged on %q, want %q", got, b.Addr())
	}
	if st := b.Stats(); st.Committed == 0 {
		t.Error("server B committed nothing after the redirect")
	}
}

// healthz fetches the health endpoint body (any status).
func healthz(t *testing.T, s *Server) string {
	t.Helper()
	resp, err := http.Get("http://" + s.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
