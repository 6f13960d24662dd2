package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/history"
	"tskd/internal/shard"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

// markedRequests builds n requests whose transactions each insert one
// marker row of their own (rows from 1<<20 + first*64 up, homed with the
// transaction's first key), so how often each executed shows in the
// history. With shards > 1 a crossFrac share spans two shards.
func markedRequests(t *testing.T, ycsb workload.YCSB, shards, n int, crossFrac float64, first, seed int64) []client.Request {
	t.Helper()
	c := ycsb
	c.Txns, c.Seed = n, seed
	w := c.Generate()
	shard.Confine(w, shards, crossFrac, uint64(ycsb.Records), seed)
	router := shard.Router{Shards: shards}
	reqs := make([]client.Request, len(w))
	for i, tx := range w {
		home := router.Home(tx.Ops[0].Key)
		m := markerKey(int(first+int64(i)) * 64)
		for router.Home(m) != home {
			m++
		}
		req, err := client.NewRequest(0, tx.I(m))
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	return reqs
}

// auditedRun submits reqs over a raw connection, window at a time,
// resubmitting refused ones under fresh sequence numbers, and returns
// the count of each final status. Unlike the pipelined client, which
// drops an answer it has no waiter for, it fails on any answer to a
// sequence number that was never sent or was answered already —
// including one that arrives after the last expected answer.
func auditedRun(addr string, reqs []client.Request, window int) (map[string]int, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	if _, err := io.WriteString(nc, client.BinPreamble); err != nil {
		return nil, err
	}
	br := bufio.NewReader(nc)
	echo := make([]byte, len(client.BinPreamble))
	if _, err := io.ReadFull(br, echo); err != nil {
		return nil, err
	}
	// read returns the bodies of one response frame; a clean timeout
	// (nothing arrived) is (nil, nil) when quiet is set.
	read := func(wait time.Duration, quiet bool) ([]client.Response, error) {
		nc.SetReadDeadline(time.Now().Add(wait))
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if ne, ok := err.(net.Error); quiet && ok && ne.Timeout() {
				return nil, nil
			}
			return nil, err
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, err
		}
		if len(payload) < 5 || payload[0] != client.BinFrameResponses {
			return nil, fmt.Errorf("not a response frame: %x", payload)
		}
		resps := make([]client.Response, binary.LittleEndian.Uint32(payload[1:5]))
		rest := payload[5:]
		for i := range resps {
			if rest, err = client.DecodeResponseBody(rest, &resps[i]); err != nil {
				return nil, err
			}
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%d stray bytes after %d response bodies", len(rest), len(resps))
		}
		return resps, nil
	}
	outcomes := make(map[string]int)
	queue := append([]client.Request(nil), reqs...)
	var seq uint64
	for len(queue) > 0 {
		batch := queue[:min(window, len(queue))]
		queue = queue[len(batch):]
		inflight := make(map[uint64]client.Request, len(batch))
		var frames []byte
		for _, req := range batch {
			seq++
			req.Seq = seq
			inflight[seq] = req
			ops, err := txn.ParseOps(nil, req.Ops)
			if err != nil {
				return nil, err
			}
			if frames, err = client.AppendRequestFrame(frames, &req, ops); err != nil {
				return nil, err
			}
		}
		if _, err := nc.Write(frames); err != nil {
			return nil, err
		}
		backoff := time.Duration(0)
		for len(inflight) > 0 {
			resps, err := read(10*time.Second, false)
			if err != nil {
				return nil, fmt.Errorf("%d answers outstanding: %w", len(inflight), err)
			}
			for _, resp := range resps {
				req, ok := inflight[resp.Seq]
				if !ok {
					return nil, fmt.Errorf("answer %+v: seq never sent or already answered", resp)
				}
				delete(inflight, resp.Seq)
				if resp.Status == client.StatusRejected || resp.Status == client.StatusShed {
					queue = append(queue, req)
					backoff = max(backoff, time.Duration(resp.RetryAfterMS)*time.Millisecond)
					continue
				}
				switch resp.Status {
				case client.StatusCommit, client.StatusAbort, client.StatusCanceled:
				default:
					return nil, fmt.Errorf("incoherent outcome %+v", resp)
				}
				if resp.QueueUS < 0 || resp.ExecUS < 0 || resp.Retries < 0 {
					return nil, fmt.Errorf("corrupt response fields %+v", resp)
				}
				outcomes[resp.Status]++
			}
		}
		time.Sleep(backoff)
	}
	if resps, err := read(50*time.Millisecond, true); err != nil || len(resps) != 0 {
		return nil, fmt.Errorf("after the last answer: %+v, %v", resps, err)
	}
	return outcomes, nil
}

// TestPoolingIntegrityUnderConcurrency hammers the pooled serve path —
// pooled tasks, pooled transactions, per-connection encode buffers,
// buffered bundle flushes, and on the sharded row 2PC coordinators
// answering through the same writers — with many concurrent
// connections. If a pooled task were recycled while its answer was
// still due (answered twice, or its transaction reused while a
// coordinator still held it), an answer would reach the wrong sequence
// number or come twice, frames would interleave corruptly, or a marker
// would be installed twice. Every submission must come back exactly
// once with a coherent outcome in bounded time, every marker must be
// installed exactly once, and the server must account for every result.
func TestPoolingIntegrityUnderConcurrency(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rec := history.NewRecorder()
			s, ycsb := startShards(t, shards, func(c *Config) {
				c.Bundle = 32 // many small bundles: maximal pool churn
				c.QueueDepth = 4096
				c.Core.Recorder = rec
			})

			const conns, perConn = 16, 300
			var wg sync.WaitGroup
			var mu sync.Mutex
			outcomes := make(map[string]int)
			for ci := 0; ci < conns; ci++ {
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					reqs := markedRequests(t, ycsb, shards, perConn, 0.25, int64(ci*perConn), int64(ci+1))
					got, err := auditedRun(s.Addr(), reqs, 4)
					if err != nil {
						t.Errorf("conn %d: %v", ci, err)
						return
					}
					mu.Lock()
					for status, n := range got {
						outcomes[status] += n
					}
					mu.Unlock()
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
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Forfeited != 0 {
				t.Errorf("forfeited %d responses with all connections healthy", st.Forfeited)
			}
			if st.ResultsStreamed != uint64(conns*perConn) {
				t.Errorf("results streamed = %d, want %d", st.ResultsStreamed, conns*perConn)
			}
			installs := make(map[txn.Key]int)
			for _, e := range rec.Events() {
				for _, w := range e.Writes {
					if w.Key.Row() >= 1<<20 {
						installs[w.Key]++
					}
				}
			}
			for k, n := range installs {
				if n != 1 {
					t.Errorf("marker %v installed %d times", k, n)
				}
			}
			if len(installs) != outcomes[client.StatusCommit] {
				t.Errorf("%d markers installed for %d commits", len(installs), outcomes[client.StatusCommit])
			}
			if err := rec.Check(); err != nil {
				t.Errorf("serializability: %v", err)
			}
		})
	}
}
