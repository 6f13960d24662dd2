package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"tskd/internal/txn"
)

// pipeline.go: the client connection. PipelinedConn keeps many
// transactions in flight per connection (monotonic request ids,
// out-of-order completion) and coalesces writes: Submit appends the
// encoded request frame to a pending buffer and wakes a flusher
// goroutine, which swaps the buffer out under the lock and issues one
// write for every request that accumulated while the previous write
// was on the wire. Under load this batches adaptively — the deeper the
// pipeline, the fewer syscalls per transaction — and pairs with the
// server's per-bundle coalesced response frames on the way back.
//
// In-flight requests are capped by a windowed credit semaphore so the
// server's bounded admission backpressures cleanly: when the window is
// full, Submit blocks before encoding rather than growing the pending
// buffer without bound.

// WireProto names a wire protocol. The binary frame protocol is the
// only one; the type, its single value and PipelineConfig.Proto remain
// because the benchmark harness (benchmark/serve.go) names them.
type WireProto string

// ProtoBinary is the length-prefixed binary frame protocol, the only
// protocol DialPipelined accepts.
const ProtoBinary = WireProto("binary")

// DefaultWindow is the pipelined credit window when none is given.
const DefaultWindow = 1024

// PipelineConfig shapes a pipelined connection.
type PipelineConfig struct {
	// Proto must be "" or ProtoBinary; DialPipelined rejects anything
	// else.
	Proto WireProto
	// Window caps in-flight submissions on this connection (default
	// DefaultWindow).
	Window int
}

// PipelinedConn is a client connection with deep pipelining: Submit
// calls from many goroutines are multiplexed over one TCP connection,
// complete out of order, and share coalesced writes. Safe for
// concurrent use.
type PipelinedConn struct {
	nc      net.Conn
	credits chan struct{} // windowed-credit cap on in-flight requests
	seq     atomic.Uint64

	mu   sync.Mutex // guards pend, err
	pend map[uint64]chan Response
	err  error
	done chan struct{}

	wmu        sync.Mutex // guards the write-side buffers
	wpend      []byte     // encoded requests awaiting the flusher
	wscratch   []byte     // the flusher's other half of the double buffer
	opsScratch []txn.Op   // request encode: notation parsed here, once
	flushCh    chan struct{}

	// chans recycles the one-shot response channels Submit waits on;
	// a channel is returned to the pool only after its single send has
	// been received, so a pooled channel is always empty.
	chans sync.Pool
}

// DialPipelined connects to a server's transaction listener. The
// preamble handshake (preamble out, echo back) completes before the
// first Submit, so a dial against a server that does not speak the
// binary protocol fails cleanly rather than corrupting the stream.
func DialPipelined(addr string, cfg PipelineConfig) (*PipelinedConn, error) {
	if cfg.Proto != "" && cfg.Proto != ProtoBinary {
		return nil, fmt.Errorf("client: unknown wire protocol %q (only %q)", cfg.Proto, ProtoBinary)
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := handshakeBinary(nc); err != nil {
		nc.Close()
		return nil, err
	}
	c := &PipelinedConn{
		nc:      nc,
		credits: make(chan struct{}, cfg.Window),
		pend:    make(map[uint64]chan Response),
		done:    make(chan struct{}),
		flushCh: make(chan struct{}, 1),
	}
	for i := 0; i < cfg.Window; i++ {
		c.credits <- struct{}{}
	}
	c.chans.New = func() any { return make(chan Response, 1) }
	go c.flusher()
	go c.readFrames()
	return c, nil
}

// handshakeBinary sends the preamble and waits for the server's echo.
func handshakeBinary(nc net.Conn) error {
	if _, err := io.WriteString(nc, BinPreamble); err != nil {
		return fmt.Errorf("client: binary handshake write: %w", err)
	}
	var echo [len(BinPreamble)]byte
	if _, err := io.ReadFull(nc, echo[:]); err != nil {
		return fmt.Errorf("client: binary handshake read: %w", err)
	}
	if string(echo[:]) != BinPreamble {
		return fmt.Errorf("client: server did not accept binary protocol (echo %q)", echo[:])
	}
	return nil
}

// Submit sends one transaction and blocks until its outcome arrives,
// the context is done, or the connection fails. The request's Seq is
// assigned by the connection. Submit blocks for a window credit first;
// credits are released as outcomes (or failures) come back, so at most
// Window transactions are in flight. A request that cannot be encoded
// (bad ops notation, an oversized template) is answered StatusError
// without being sent, as the server answers a malformed frame: an
// error return always means the connection failed.
func (c *PipelinedConn) Submit(ctx context.Context, req Request) (Response, error) {
	select {
	case <-c.credits:
	case <-ctx.Done():
		return Response{}, ctx.Err()
	case <-c.done:
		return Response{}, c.Err()
	}
	defer func() { c.credits <- struct{}{} }()

	req.Seq = c.seq.Add(1)
	ch := c.chans.Get().(chan Response)

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.chans.Put(ch)
		return Response{}, err
	}
	c.pend[req.Seq] = ch
	c.mu.Unlock()

	if err := c.enqueue(&req); err != nil {
		c.mu.Lock()
		delete(c.pend, req.Seq)
		c.mu.Unlock()
		c.chans.Put(ch)
		return Response{Seq: req.Seq, Status: StatusError, Error: err.Error()}, nil
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return Response{}, c.Err()
		}
		c.chans.Put(ch)
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pend, req.Seq)
		c.mu.Unlock()
		// Not recycled: the read loop may have grabbed the channel
		// before the delete and still send into it.
		return Response{}, ctx.Err()
	case <-c.done:
		return Response{}, c.Err()
	}
}

// enqueue encodes req onto the pending write buffer and wakes the
// flusher. Encoding happens under the write lock into connection-owned
// buffers, so the steady state allocates nothing.
func (c *PipelinedConn) enqueue(req *Request) error {
	c.wmu.Lock()
	ops, err := txn.ParseOps(c.opsScratch[:0], req.Ops)
	if err != nil {
		c.wmu.Unlock()
		return fmt.Errorf("client: bad ops notation: %w", err)
	}
	c.opsScratch = ops
	if c.wpend, err = AppendRequestFrame(c.wpend, req, ops); err != nil {
		c.wmu.Unlock()
		return err
	}
	c.wmu.Unlock()
	select {
	case c.flushCh <- struct{}{}:
	default: // a wakeup is already pending
	}
	return nil
}

// flusher turns the pending buffer into writes: one syscall per
// wakeup, covering every request that queued while the previous write
// was in progress.
func (c *PipelinedConn) flusher() {
	for {
		select {
		case <-c.flushCh:
		case <-c.done:
			return
		}
		c.wmu.Lock()
		buf := c.wpend
		c.wpend = c.wscratch[:0]
		c.wscratch = buf
		c.wmu.Unlock()
		if len(buf) == 0 {
			continue
		}
		if _, err := c.nc.Write(buf); err != nil {
			c.fail(fmt.Errorf("client: pipelined write: %w", err))
			return
		}
	}
}

// readFrames dispatches response batches until the connection dies;
// then it fails every waiter.
func (c *PipelinedConn) readFrames() {
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var hdr [4]byte
	var payload []byte
	var resp Response
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			c.failRead(err)
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 5 || n > MaxBinFrameBytes {
			c.fail(fmt.Errorf("client: bad response frame length %d", n))
			return
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			c.failRead(err)
			return
		}
		if payload[0] != BinFrameResponses {
			c.fail(fmt.Errorf("client: unexpected frame type %d", payload[0]))
			return
		}
		count := binary.LittleEndian.Uint32(payload[1:])
		b := payload[5:]
		for i := uint32(0); i < count; i++ {
			var err error
			if b, err = DecodeResponseBody(b, &resp); err != nil {
				c.fail(fmt.Errorf("client: bad response body: %w", err))
				return
			}
			c.dispatch(resp)
		}
	}
}

func (c *PipelinedConn) dispatch(resp Response) {
	c.mu.Lock()
	ch := c.pend[resp.Seq]
	delete(c.pend, resp.Seq)
	c.mu.Unlock()
	if ch != nil {
		ch <- resp
	}
}

func (c *PipelinedConn) failRead(err error) {
	if err == nil {
		err = fmt.Errorf("client: connection closed by server")
	}
	c.fail(err)
}

func (c *PipelinedConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	pend := c.pend
	c.pend = make(map[uint64]chan Response)
	c.mu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
}

// Err returns the connection's terminal error, if any.
func (c *PipelinedConn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears down the connection; in-flight Submits fail.
func (c *PipelinedConn) Close() error { return c.nc.Close() }
