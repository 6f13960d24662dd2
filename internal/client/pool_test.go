package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tskd/internal/txn"
)

// serveFrames runs the server side of one connection for the fake
// servers in this package's tests: it answers the preamble, then hands
// each decoded request to answer, whose reply callback writes a
// one-body response frame (safe from any goroutine). It returns when
// the connection fails or carries a bad frame.
func serveFrames(nc net.Conn, answer func(req Request, reply func(Response))) {
	defer nc.Close()
	br := bufio.NewReader(nc)
	var pre [len(BinPreamble)]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || string(pre[:]) != BinPreamble {
		return
	}
	if _, err := nc.Write(pre[:]); err != nil {
		return
	}
	var wmu sync.Mutex
	reply := func(resp Response) {
		body := AppendResponseBody(nil, &resp)
		frame := append(AppendResponsesHeader(nil, 1, len(body)), body...)
		wmu.Lock()
		defer wmu.Unlock()
		nc.Write(frame)
	}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > MaxBinFrameBytes {
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		var req Request
		var tx txn.Transaction
		if err := DecodeRequestFrame(payload, &req, &tx, nil); err != nil {
			return
		}
		answer(req, reply)
	}
}

// scriptedServer accepts one connection and answers each request with
// a response whose ExecUS echoes the request's Seq, after asking the
// script how long to stall that particular seq. It lets the tests
// below interleave late responses with new submissions.
func scriptedServer(t *testing.T, delay func(seq uint64) time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		serveFrames(nc, func(req Request, reply func(Response)) {
			go func(seq uint64) {
				if d := delay(seq); d > 0 {
					time.Sleep(d)
				}
				reply(Response{Seq: seq, Status: StatusCommit, ExecUS: int64(seq)})
			}(req.Seq)
		})
	}()
	return ln.Addr().String()
}

// TestSubmitPooledChannelNoStaleDelivery cancels a Submit whose
// response is still in flight, lets that late response land, then runs
// many more submissions on the same connection. The recycled response
// channels must never hand a caller someone else's outcome: every
// response's ExecUS echo must match the seq the caller submitted.
func TestSubmitPooledChannelNoStaleDelivery(t *testing.T) {
	var stallFirst atomic.Bool
	stallFirst.Store(true)
	addr := scriptedServer(t, func(seq uint64) time.Duration {
		if seq == 1 && stallFirst.Load() {
			return 150 * time.Millisecond
		}
		return 0
	})
	c, err := DialPipelined(addr, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := c.Submit(ctx, Request{Ops: "R[x1]"}); err != context.DeadlineExceeded {
		t.Fatalf("stalled submit: err = %v, want deadline exceeded", err)
	}

	// The stale response for seq 1 lands mid-way through these; none of
	// them may observe it, and no seq may be delivered twice.
	seen := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		resp, err := c.Submit(context.Background(), Request{Ops: "R[x" + strconv.Itoa(i) + "]"})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(resp.ExecUS) != resp.Seq || resp.Seq == 1 {
			t.Fatalf("submission %d got someone else's response: %+v", i, resp)
		}
		if seen[resp.Seq] {
			t.Fatalf("seq %d delivered twice", resp.Seq)
		}
		seen[resp.Seq] = true
	}
}
