package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/replica"
	"tskd/internal/workload"
)

// replication_test.go: the serving layer as a replicating primary —
// wire-protocol commits shipped synchronously to a backup receiver,
// replication surfaced on /metrics and /healthz, and the shipped
// directory recoverable into an identical server.

func TestServerReplicatesAndFailsOver(t *testing.T) {
	backup := t.TempDir()
	srv, err := replica.NewServer(replica.ServerConfig{Dir: backup, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ship, err := replica.NewShipper(replica.ShipperConfig{
		Addr: srv.Addr(), Sync: true, AckTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()

	primary := t.TempDir()
	s, ycsb := startServer(t, func(c *Config) {
		c.Durability = &DurabilityOptions{Dir: primary, NoSync: true, Replication: ship}
	})

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	reqs := genRequests(t, ycsb, n, 42)
	for i := range reqs {
		reqs[i].IdemKey = uint64(1000 + i)
		resp, err := conn.Submit(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Committed() {
			t.Fatalf("req %d: %q (%s)", i, resp.Status, resp.Error)
		}
	}
	conn.Close()

	// Replication shows up on /metrics and /healthz.
	st := s.Stats()
	if st.Replication == nil || st.Replication.Role != "primary" ||
		st.Replication.State != "sync" || st.Replication.ShippedGroups == 0 {
		t.Fatalf("replication stats: %+v", st.Replication)
	}
	resp, err := http.Get("http://" + s.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "role=primary") || !strings.Contains(string(body), "epoch=0") {
		t.Fatalf("/healthz body: %q", body)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if lag := ship.Stats().LagBytes; lag != 0 {
		t.Fatalf("lag %d after sync shipping", lag)
	}
	ship.Close()

	// Promote the backup and boot a server over the shipped directory:
	// every acknowledged commit must be there, and the restored dedup
	// window must answer the old idempotency keys as duplicates.
	if _, err := replica.Promote(backup); err != nil {
		t.Fatal(err)
	}
	ycsb2 := workload.YCSB{Records: 2000, Theta: 0.9, OpsPerTxn: 8, ReadRatio: 0.5, RMW: true}
	cfg := Config{
		Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
		Bundle: 64, FlushInterval: 2 * time.Millisecond, QueueDepth: 1024,
		DB:         ycsb2.BuildDB(),
		Durability: &DurabilityOptions{Dir: backup, NoSync: true},
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("open promoted backup: %v", err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	if s2.Recovery().Replayed == 0 || s2.Recovery().DedupRestored < n {
		t.Fatalf("promoted recovery: %+v", s2.Recovery())
	}
	if s2.replicaEpoch != 1 {
		t.Fatalf("promoted epoch %d, want 1", s2.replicaEpoch)
	}
	conn2, err := client.DialPipelined(s2.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	dup := reqs[0]
	r2, err := conn2.Submit(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Committed() || !r2.Duplicate {
		t.Fatalf("shipped dedup miss on promoted backup: %+v", r2)
	}
	hresp, err := http.Get("http://" + s2.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(string(hbody), "role=promoted epoch=1") {
		t.Fatalf("promoted /healthz body: %q", hbody)
	}
}
