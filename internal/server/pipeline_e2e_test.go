package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/workload"
)

// pipeline_e2e_test.go: end-to-end coverage of the binary wire
// protocol and the pipelined client — the preamble handshake, many
// in-flight transactions completing out of order, and exactly-once
// effects across a mid-stream connection drop.

// TestPipelinedBinaryE2E drives one binary pipelined connection with
// many concurrent submitters: every transaction commits, completions
// interleave across bundles (out-of-order by construction), and the
// server counts the handshaken connection.
func TestPipelinedBinaryE2E(t *testing.T) {
	s, ycsb := startServer(t, nil)
	defer s.Shutdown(context.Background())

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{Window: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			reqs := genRequests(t, ycsb, perWorker, int64(300+wi))
			for i, req := range reqs {
				resp, err := conn.Submit(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				if !resp.Committed() {
					errs <- fmt.Errorf("worker %d req %d: status %q (%s)", wi, i, resp.Status, resp.Error)
					return
				}
			}
		}(wi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Committed != workers*perWorker {
		t.Errorf("committed %d, want %d", st.Committed, workers*perWorker)
	}
	if st.ConnsBinary != 1 {
		t.Errorf("conns_binary = %d, want 1", st.ConnsBinary)
	}
	if st.Bundles >= workers*perWorker {
		t.Errorf("bundles %d for %d txns: pipelining produced no batching", st.Bundles, workers*perWorker)
	}
}

// TestConnWithoutPreambleClosed: a connection that opens with a JSON
// request line instead of the preamble is counted malformed and
// closed, and nothing it sent is admitted.
func TestConnWithoutPreambleClosed(t *testing.T) {
	s, _ := startServer(t, nil)
	defer s.Shutdown(context.Background())

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, `{"seq":1,"ops":"R[x1]"}`+"\n"); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, nc, bufio.NewReader(nc))
	st := s.Stats()
	if st.Malformed != 1 || st.Admitted != 0 || st.ConnsBinary != 0 {
		t.Errorf("malformed %d admitted %d conns_binary %d, want 1/0/0", st.Malformed, st.Admitted, st.ConnsBinary)
	}
}

// TestPipelinedDropExactlyOnce interleaves out-of-order pipelined
// completions with deliberate mid-stream connection drops and checks
// that ReliableConn resubmission stays exactly-once: every marker row
// is inserted with version 1, even for transactions whose first
// submission's connection died with the outcome unknown.
func TestPipelinedDropExactlyOnce(t *testing.T) {
	ycsb := workload.YCSB{Records: 256}
	cfg := durableConfig(t.TempDir(), ycsb)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	// The reliable client heals over pipelined binary connections; the
	// dial hook captures the live one so the test can kill it.
	var connMu sync.Mutex
	var live *client.PipelinedConn
	rc := client.DialReliable(s.Addr(), client.RetryPolicy{
		Seed: 42,
		Dial: func(addr string) (client.WireConn, error) {
			c, err := client.DialPipelined(addr, client.PipelineConfig{Window: 64})
			if err != nil {
				return nil, err
			}
			connMu.Lock()
			live = c
			connMu.Unlock()
			return c, nil
		},
	})
	defer rc.Close()

	const workers, perWorker = 4, 50
	const total = workers * perWorker
	var completed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := markerReq(t, 0, wi*perWorker+i) // idem assigned by rc
				resp, err := rc.Submit(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("worker %d txn %d: %v", wi, i, err)
					return
				}
				if !resp.Committed() {
					errs <- fmt.Errorf("worker %d txn %d: status %q (%s)", wi, i, resp.Status, resp.Error)
					return
				}
				completed.Add(1)
			}
		}(wi)
	}
	// Kill the live connection twice mid-stream, with in-flight
	// pipelined submissions each time.
	go func() {
		for _, at := range []int64{total / 4, total / 2} {
			for completed.Load() < at {
				time.Sleep(time.Millisecond)
			}
			connMu.Lock()
			c := live
			connMu.Unlock()
			if c != nil {
				c.Close()
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exactly-once: every marker exists at version 1 — resubmissions
	// after the drops were answered by the dedup window, not re-run.
	assertMarkers(t, s.DB(), total)
	st := s.Stats()
	if st.ConnsBinary < 2 {
		t.Errorf("conns_binary = %d, want >= 2 (reconnect after drop)", st.ConnsBinary)
	}
}
