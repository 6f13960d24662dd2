package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/history"
	"tskd/internal/partition"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

// startServer boots a loopback server over a fresh YCSB database.
func startServer(t *testing.T, mut func(*Config)) (*Server, workload.YCSB) {
	t.Helper()
	ycsb := workload.YCSB{Records: 2000, Theta: 0.9, OpsPerTxn: 8, ReadRatio: 0.5, RMW: true}
	cfg := Config{
		Addr:          "127.0.0.1:0",
		HTTPAddr:      "127.0.0.1:0",
		Bundle:        64,
		FlushInterval: 2 * time.Millisecond,
		QueueDepth:    1024,
		Partitioner:   partition.NewStrife(1),
		DB:            ycsb.BuildDB(),
		Core:          core.Options{Workers: 4, Protocol: "SILO", Seed: 1},
	}
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
	return s, ycsb
}

// genRequests builds n wire requests from the YCSB generator.
func genRequests(t *testing.T, ycsb workload.YCSB, n int, seed int64) []client.Request {
	t.Helper()
	c := ycsb
	c.Txns = n
	c.Seed = seed
	w := c.Generate()
	reqs := make([]client.Request, len(w))
	for i, tx := range w {
		req, err := client.NewRequest(0, tx)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = req
	}
	return reqs
}

// TestClosedLoopSerializable drives the server with concurrent
// closed-loop clients and checks that every submission commits exactly
// once and that everything committed is conflict-serializable.
func TestClosedLoopSerializable(t *testing.T) {
	rec := history.NewRecorder()
	s, ycsb := startServer(t, func(c *Config) { c.Core.Recorder = rec })
	defer s.Shutdown(context.Background())

	const clients, perClient = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			reqs := genRequests(t, ycsb, perClient, int64(100+ci))
			for _, req := range reqs {
				resp, err := conn.Submit(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				if !resp.Committed() {
					errs <- fmt.Errorf("client %d: status %q (%s)", ci, resp.Status, resp.Error)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Committed != clients*perClient {
		t.Errorf("committed %d, want %d", st.Committed, clients*perClient)
	}
	if st.Admitted != clients*perClient || st.Rejected != 0 {
		t.Errorf("admitted %d rejected %d, want %d/0", st.Admitted, st.Rejected, clients*perClient)
	}
	if st.ResultsStreamed != clients*perClient {
		t.Errorf("results %d, want %d", st.ResultsStreamed, clients*perClient)
	}
	if st.Bundles == 0 {
		t.Error("no bundles executed")
	}
	if rec.Len() != clients*perClient {
		t.Errorf("recorder has %d commits, want %d", rec.Len(), clients*perClient)
	}
	if err := rec.Check(); err != nil {
		t.Errorf("serializability: %v", err)
	}
}

// TestOpenLoopAndMetrics fires submissions without waiting for
// responses (open loop), asserts every one gets exactly one result,
// and exercises /healthz and /metrics.
func TestOpenLoopAndMetrics(t *testing.T) {
	s, ycsb := startServer(t, nil)
	defer s.Shutdown(context.Background())

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 400
	reqs := genRequests(t, ycsb, n, 7)
	rng := rand.New(rand.NewSource(7))
	var wg sync.WaitGroup
	statuses := make(chan string, n)
	for _, req := range reqs {
		// Poisson-ish arrivals at ~100k/s so the bundler's timer and
		// size paths both trigger.
		time.Sleep(time.Duration(rng.ExpFloat64() * float64(10*time.Microsecond)))
		wg.Add(1)
		go func(req client.Request) {
			defer wg.Done()
			resp, err := conn.Submit(context.Background(), req)
			if err != nil {
				statuses <- "err:" + err.Error()
				return
			}
			statuses <- resp.Status
		}(req)
	}
	wg.Wait()
	close(statuses)
	got := map[string]int{}
	for st := range statuses {
		got[st]++
	}
	if got[client.StatusCommit] != n {
		t.Fatalf("statuses %v, want %d commits", got, n)
	}

	// Health endpoint.
	resp, err := http.Get("http://" + s.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}

	// Metrics endpoint must expose the engine counters.
	mresp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	if st.Committed != n || st.Bundles == 0 || st.QueueCap == 0 {
		t.Errorf("metrics snapshot: %+v", st)
	}
	if st.ExecLat.Count != n {
		t.Errorf("exec latency count %d, want %d", st.ExecLat.Count, n)
	}
	if st.QueueWait.Count != n {
		t.Errorf("queue wait count %d, want %d", st.QueueWait.Count, n)
	}
}

// TestBackpressure saturates a tiny admission queue and checks that
// overflow is rejected with a retry-after hint instead of buffering,
// and that rejected transactions never execute.
func TestBackpressure(t *testing.T) {
	s, ycsb := startServer(t, func(c *Config) {
		c.Bundle = 4
		c.QueueDepth = 4
		c.FlushInterval = 200 * time.Millisecond // slow flush: queue fills
		c.Core.OpTime = 200 * time.Microsecond   // slow bundles: queue stays full
	})
	defer s.Shutdown(context.Background())

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 64
	reqs := genRequests(t, ycsb, n, 3)
	var wg sync.WaitGroup
	results := make(chan client.Response, n)
	for _, req := range reqs {
		wg.Add(1)
		go func(req client.Request) {
			defer wg.Done()
			resp, err := conn.Submit(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			results <- resp
		}(req)
	}
	wg.Wait()
	close(results)

	var commits, rejects int
	for resp := range results {
		switch {
		case resp.Committed():
			commits++
		case resp.Rejected():
			rejects++
			if resp.RetryAfterMS <= 0 {
				t.Errorf("rejection without retry-after: %+v", resp)
			}
		default:
			t.Errorf("unexpected status %+v", resp)
		}
	}
	if rejects == 0 {
		t.Fatalf("no rejections with queue depth 4 and %d concurrent submits", n)
	}
	if commits+rejects != n {
		t.Fatalf("commits %d + rejects %d != %d", commits, rejects, n)
	}
	st := s.Stats()
	if st.Committed != uint64(commits) || st.Rejected != uint64(rejects) {
		t.Errorf("server stats %+v disagree with client view (%d commits, %d rejects)", st, commits, rejects)
	}
}

// TestDrainFlushesAdmitted checks the graceful-shutdown contract:
// everything admitted before Shutdown gets a result, new admissions
// are rejected while draining, and the server refuses double shutdown.
func TestDrainFlushesAdmitted(t *testing.T) {
	s, ycsb := startServer(t, func(c *Config) {
		c.Bundle = 512 // big bundle + long flush: drain must force the flush
		c.FlushInterval = time.Hour
	})

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 100
	reqs := genRequests(t, ycsb, n, 11)
	var wg sync.WaitGroup
	results := make(chan client.Response, n)
	for _, req := range reqs {
		wg.Add(1)
		go func(req client.Request) {
			defer wg.Done()
			resp, err := conn.Submit(context.Background(), req)
			if err == nil {
				results <- resp
			}
		}(req)
	}

	// Wait until everything is admitted, then drain: the hour-long
	// flush interval means only Shutdown can release these.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Admitted == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission stalled: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	close(results)

	var commits int
	for resp := range results {
		if resp.Committed() {
			commits++
		} else {
			t.Errorf("admitted transaction did not commit: %+v", resp)
		}
	}
	if commits != n {
		t.Fatalf("drain dropped transactions: %d/%d committed", commits, n)
	}
	if err := s.Shutdown(context.Background()); err == nil {
		t.Error("second shutdown should error")
	}
}

// TestRejectedWhileDraining checks that a submission arriving on a
// live connection after drain starts is rejected, not dropped.
func TestRejectedWhileDraining(t *testing.T) {
	s, ycsb := startServer(t, nil)
	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	reqs := genRequests(t, ycsb, 2, 5)
	if resp, err := conn.Submit(context.Background(), reqs[0]); err != nil || !resp.Committed() {
		t.Fatalf("pre-drain submit: %+v %v", resp, err)
	}

	done := make(chan struct{})
	go func() { s.Shutdown(context.Background()); close(done) }()
	// The connection stays open during drain; submissions must bounce.
	// Shutdown may finish before or after the submit lands — both
	// orders must reject or fail cleanly, never hang or drop.
	resp, err := conn.Submit(context.Background(), reqs[1])
	if err == nil && !resp.Rejected() {
		t.Errorf("submit during drain: %+v", resp)
	}
	<-done
}

// rawConn dials the server and completes the preamble handshake by
// hand, for tests that write frames a well-behaved client never would.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	if _, err := io.WriteString(nc, client.BinPreamble); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	echo := make([]byte, len(client.BinPreamble))
	if _, err := io.ReadFull(br, echo); err != nil || string(echo) != client.BinPreamble {
		t.Fatalf("handshake: echo %q, err %v", echo, err)
	}
	return nc, br
}

// requestFrame encodes req as one request frame, length prefix included.
func requestFrame(t *testing.T, req client.Request) []byte {
	t.Helper()
	ops, err := txn.ParseOps(nil, req.Ops)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := client.AppendRequestFrame(nil, &req, ops)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// readResponse reads one response frame and returns its first body.
func readResponse(t *testing.T, nc net.Conn, br *bufio.Reader) client.Response {
	t.Helper()
	return readResponses(t, nc, br)[0]
}

// readResponses reads one response frame and returns every body in it.
func readResponses(t *testing.T, nc net.Conn, br *bufio.Reader) []client.Response {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer nc.SetReadDeadline(time.Time{})
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatalf("read response frame: %v", err)
	}
	if len(payload) < 5 || payload[0] != client.BinFrameResponses {
		t.Fatalf("not a response frame: %x", payload)
	}
	n := binary.LittleEndian.Uint32(payload[1:5])
	if n == 0 {
		t.Fatal("response frame with no bodies")
	}
	resps := make([]client.Response, n)
	rest := payload[5:]
	for i := range resps {
		var err error
		if rest, err = client.DecodeResponseBody(rest, &resps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after %d response bodies", len(rest), n)
	}
	return resps
}

// expectClosed reads until the server closes the connection, failing
// if it is still open after a few seconds.
func expectClosed(t *testing.T, nc net.Conn, br *bufio.Reader) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, br); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server left the connection open")
		}
	}
}

// TestMalformedRequests checks the error paths of the wire protocol on
// a handshaken socket: a request frame that decodes badly is answered
// with StatusError under its own seq and the connection stays usable;
// a corrupt frame header (bad length, wrong frame type) closes it.
func TestMalformedRequests(t *testing.T) {
	s, _ := startServer(t, nil)
	defer s.Shutdown(context.Background())

	nc, br := rawConn(t, s.Addr())
	bad := requestFrame(t, client.Request{Seq: 41, Ops: "R[x1]"})
	bad[len(bad)-txn.OpWireBytes] = 0x7f // the op record's kind byte
	if _, err := nc.Write(bad); err != nil {
		t.Fatal(err)
	}
	resp := readResponse(t, nc, br)
	if resp.Seq != 41 || resp.Status != client.StatusError || resp.Error == "" {
		t.Errorf("bad op kind: %+v, want StatusError for seq 41", resp)
	}
	if st := s.Stats(); st.Malformed != 1 {
		t.Errorf("malformed counter = %d, want 1", st.Malformed)
	}
	// The connection must still work afterwards.
	if _, err := nc.Write(requestFrame(t, client.Request{Seq: 42, Ops: "R[x1]W[x1]"})); err != nil {
		t.Fatal(err)
	}
	if resp := readResponse(t, nc, br); resp.Seq != 42 || !resp.Committed() {
		t.Errorf("post-error submit: %+v", resp)
	}

	badLen := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	typeTwo := requestFrame(t, client.Request{Seq: 43, Ops: "R[x1]"})
	typeTwo[4] = client.BinFrameResponses
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"zero length", badLen(0)},
		{"length over cap", badLen(client.MaxBinFrameBytes + 1)},
		{"frame type 2", typeTwo},
	} {
		nc, br := rawConn(t, s.Addr())
		if _, err := nc.Write(tc.frame); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		expectClosed(t, nc, br)
	}
	if st := s.Stats(); st.Malformed != 4 || st.Admitted != 1 {
		t.Errorf("malformed %d admitted %d, want 4/1", st.Malformed, st.Admitted)
	}
}

// TestClientDisconnectMidStream kills a client connection after its
// transactions are admitted but (mostly) before their outcomes stream
// back. The contract under test: admitted transactions still execute
// exactly once — outcomes are forfeited by the dead client, never lost
// by the server and never executed twice — and other connections are
// unaffected. Unique marker inserts per submission make the execution
// count observable through the recorder.
func TestClientDisconnectMidStream(t *testing.T) {
	rec := history.NewRecorder()
	s, _ := startServer(t, func(c *Config) {
		c.Core.Recorder = rec
		c.FlushInterval = 50 * time.Millisecond // admit first, execute later
	})

	const markerBase = 1 << 20
	marker := func(i int) uint64 { return markerBase + uint64(i) }
	makeReq := func(t *testing.T, seq uint64, m uint64) client.Request {
		tx := txn.New(0).
			R(txn.MakeKey(workload.YCSBTable, m%64)).
			U(txn.MakeKey(workload.YCSBTable, (m+7)%64), 1).
			I(txn.MakeKey(workload.YCSBTable, m))
		req, err := client.NewRequest(seq, tx)
		if err != nil {
			t.Fatal(err)
		}
		return req
	}

	// The doomed client: fire-and-forget submissions on a raw
	// connection, then slam it shut without reading a single response.
	const doomed = 60
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte(client.BinPreamble)
	for i := 0; i < doomed; i++ {
		msg = append(msg, requestFrame(t, makeReq(t, uint64(i+1), marker(i)))...)
	}
	if _, err := nc.Write(msg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Admitted < doomed {
		if time.Now().After(deadline) {
			t.Fatalf("admission stalled: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	nc.Close() // mid-stream: admitted, outcomes still pending

	// A healthy client on a separate connection must be unaffected.
	const live = 40
	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < live; i++ {
		resp, err := conn.Submit(context.Background(), makeReq(t, 0, marker(doomed+i)))
		if err != nil {
			t.Fatalf("live submit %d: %v", i, err)
		}
		if !resp.Committed() {
			t.Fatalf("live submit %d: %+v", i, resp)
		}
	}

	// Drain, then reconcile: every admitted transaction executed
	// exactly once, dead connection or not.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	installs := make(map[uint64]int)
	for _, e := range rec.Events() {
		for _, w := range e.Writes {
			if w.Key.Row() >= markerBase {
				installs[w.Key.Row()]++
			}
		}
	}
	for i := 0; i < doomed+live; i++ {
		if n := installs[marker(i)]; n != 1 {
			t.Errorf("submission %d executed %d times, want exactly 1", i, n)
		}
	}
	st := s.Stats()
	if st.Admitted != doomed+live || st.Committed != doomed+live {
		t.Errorf("admitted %d committed %d, want %d/%d", st.Admitted, st.Committed, doomed+live, doomed+live)
	}
	if st.ResultsStreamed != doomed+live {
		t.Errorf("results streamed %d, want %d (dead client forfeits, server still streams)", st.ResultsStreamed, doomed+live)
	}
	if err := rec.Check(); err != nil {
		t.Errorf("serializability: %v", err)
	}
}

// TestPprofEndpoint verifies that EnablePprof mounts live profile
// handlers on the metrics mux: the heap profile must be retrievable
// from a running server, and must be absent when the flag is off.
func TestPprofEndpoint(t *testing.T) {
	s, _ := startServer(t, func(c *Config) { c.EnablePprof = true })
	defer s.Shutdown(context.Background())

	resp, err := http.Get("http://" + s.HTTPAddr() + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/heap = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "heap profile") {
		t.Errorf("heap profile body looks wrong: %.80s", body)
	}

	off, _ := startServer(t, nil)
	defer off.Shutdown(context.Background())
	resp2, err := http.Get("http://" + off.HTTPAddr() + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled but /debug/pprof/heap = %d", resp2.StatusCode)
	}
}
