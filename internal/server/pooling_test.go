package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"tskd/internal/client"
)

// TestPoolingIntegrityUnderConcurrency hammers the pooled serve path —
// pooled pendings, pooled transactions, per-connection encode buffers,
// buffered bundle flushes — with many concurrent connections. If a
// pooled object were ever reused while its response was still in
// flight, response frames would interleave corruptly (the client's
// decoder would fail the connection) or a response would reach the
// wrong waiter. Every submission must come back exactly once with a
// coherent outcome, and the server must account for every result.
func TestPoolingIntegrityUnderConcurrency(t *testing.T) {
	s, ycsb := startServer(t, func(c *Config) {
		c.Bundle = 32 // many small bundles: maximal pool churn
		c.QueueDepth = 4096
	})

	const conns, perConn = 16, 300
	var wg sync.WaitGroup
	var mu sync.Mutex
	outcomes := make(map[string]int)
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			reqs := genRequests(t, ycsb, perConn, int64(ci+1))
			conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			for _, req := range reqs {
				for {
					resp, err := conn.Submit(context.Background(), req)
					if err != nil {
						t.Errorf("conn %d: %v", ci, err)
						return
					}
					if resp.Status == client.StatusRejected {
						time.Sleep(time.Duration(resp.RetryAfterMS) * time.Millisecond)
						continue
					}
					switch resp.Status {
					case client.StatusCommit, client.StatusAbort, client.StatusCanceled:
					default:
						t.Errorf("conn %d: incoherent outcome %+v", ci, resp)
					}
					if resp.QueueUS < 0 || resp.ExecUS < 0 || resp.Retries < 0 {
						t.Errorf("conn %d: corrupt response fields %+v", ci, resp)
					}
					mu.Lock()
					outcomes[resp.Status]++
					mu.Unlock()
					break
				}
			}
		}(ci)
	}
	wg.Wait()

	total := 0
	for _, n := range outcomes {
		total += n
	}
	if total != conns*perConn {
		t.Fatalf("got %d outcomes, want %d (%v)", total, conns*perConn, outcomes)
	}
	st := s.Stats()
	if st.Forfeited != 0 {
		t.Errorf("forfeited %d responses with all connections healthy", st.Forfeited)
	}
	if st.ResultsStreamed != uint64(conns*perConn) {
		t.Errorf("results streamed = %d, want %d", st.ResultsStreamed, conns*perConn)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
