// Package server is the TSKD serving layer: a TCP front-end that turns
// open-system arrivals into the paper's bundled workload model
// (Section 2.1). Transactions arrive over the wire protocol of
// internal/client, pass a bounded admission queue with explicit
// backpressure, accumulate into bundles closed by size or by a flush
// timer, and execute through core.Pipeline — TSgen scheduling plus
// TsDEFER, with cost estimates learned from the execution history of
// earlier bundles. Per-transaction outcomes (commit/abort, retries,
// queue wait, execution latency) stream back on the submitting
// connection.
//
// The admission queue is the only buffer between the network and the
// engine, and it is bounded: when it is full — or the server is
// draining — a submission is rejected immediately with a retry-after
// hint, never buffered without limit. Graceful shutdown stops
// admitting, flushes everything already admitted, and only then
// returns; a hard deadline cancels the in-flight bundle through the
// engine's context plumbing, reporting the abandoned transactions as
// canceled rather than dropping them silently.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"tskd/internal/arbiter"
	"tskd/internal/cc"
	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/durable"
	"tskd/internal/engine"
	"tskd/internal/metrics"
	"tskd/internal/overload"
	"tskd/internal/partition"
	"tskd/internal/replica"
	"tskd/internal/shard"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
)

// Config configures a Server.
type Config struct {
	// Addr is the transaction listener address (e.g. ":7070"; use
	// "127.0.0.1:0" in tests and read back Addr()).
	Addr string
	// HTTPAddr serves /healthz and /metrics; empty disables the HTTP
	// listener.
	HTTPAddr string
	// EnablePprof additionally mounts net/http/pprof under
	// /debug/pprof/ on the HTTP listener, so CPU, heap and allocation
	// profiles can be pulled from a live server. No effect when
	// HTTPAddr is empty.
	EnablePprof bool
	// Bundle closes a bundle once this many transactions have been
	// collected (default 512).
	Bundle int
	// FlushInterval closes a non-empty bundle at latest this long
	// after its first transaction was collected (default 10ms), so a
	// trickle of arrivals is never stranded waiting for a full bundle.
	FlushInterval time.Duration
	// QueueDepth is the admission queue capacity (default 4×Bundle).
	// Submissions beyond it are rejected with a retry-after hint.
	QueueDepth int
	// DB is the database the transactions run against; required.
	DB *storage.DB
	// Partitioner splits each bundle before TSgen; nil is TSKD[0]
	// (scheduling from scratch).
	Partitioner partition.Partitioner
	// Core configures workers, CC protocol, TsDEFER and friends.
	// Estimator, CostSink, TraceSpans, Ctx and WAL are managed by the
	// server and must be left zero. Recorder may be set (tests) to
	// capture commits for serializability checking.
	Core core.Options
	// Durability, when non-nil, makes the server durable: commits are
	// WAL-logged and fsynced before they acknowledge, the database is
	// checkpointed in the background, and New recovers the data
	// directory (checkpoint + WAL tail) before any listener binds.
	Durability *DurabilityOptions
	// Overload configures deadlines, adaptive shedding, and the
	// WAL-stall circuit breaker (see overload.go). The zero value
	// enables shedding and — on durable servers — the breaker, with
	// defaults.
	Overload OverloadOptions
	// Shards, when > 1, runs the server in sharded mode: the key space
	// is hash-partitioned over this many independent engine instances
	// (internal/shard), each with its own bundling loop — and, when
	// Durability is set, its own WAL directory and checkpoints under
	// Durability.Dir — while cross-shard transactions commit through
	// two-phase commit. DB and Partitioner are ignored in sharded mode;
	// ShardDB (and optionally ShardPartitioner) take their place.
	// Deadline stamping still applies, but the shedder and the WAL
	// breaker do not (each shard's bounded queue is the backpressure).
	Shards int
	// ShardDB builds shard i's initial store; required in sharded mode.
	ShardDB func(i int) *storage.DB
	// ShardPartitioner builds shard i's bundle partitioner (sharded
	// mode only; nil is TSKD[0] on every shard).
	ShardPartitioner func(i int) partition.Partitioner
	// Lease, when non-nil, gates the server on an arbiter lease
	// (internal/arbiter): a submission is dispatched only while the
	// lease is held — otherwise it is refused with StatusNotPrimary
	// carrying the current leader's address when known — and on a
	// durable server every WAL flush (one per bundle) re-checks the
	// lease before releasing client acks, so a deposed primary cannot
	// acknowledge a commit its successor will never have. /healthz
	// reports 503 until the lease is held. The server does not own the client: close it
	// after Shutdown.
	Lease *arbiter.LeaseClient
}

func (c *Config) withDefaults() error {
	if c.Shards > 1 {
		if c.ShardDB == nil {
			return errors.New("server: Config.ShardDB is required in sharded mode")
		}
		if c.Durability != nil && c.Durability.WrapSyncer != nil {
			// Better to refuse than to let a fault-injection run believe
			// it is stalling fsyncs that it never touches.
			return errors.New("server: DurabilityOptions.WrapSyncer is not supported in sharded mode (Shards > 1): the shards' logs would ignore it")
		}
	} else if c.DB == nil {
		return errors.New("server: Config.DB is required")
	}
	if c.Bundle <= 0 {
		c.Bundle = 512
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 10 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Bundle
	}
	name := c.Core.Protocol
	if name == "" {
		name = "OCC"
	}
	if _, err := cc.New(name); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if c.Durability != nil {
		if err := c.Durability.withDefaults(); err != nil {
			return err
		}
	}
	c.Overload.withDefaults(c.FlushInterval)
	return nil
}

// Stats is a point-in-time snapshot of the server's counters, the
// payload of the /metrics endpoint.
type Stats struct {
	// Admission.
	Admitted   uint64 `json:"admitted"`
	Rejected   uint64 `json:"rejected"`
	Malformed  uint64 `json:"malformed"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Draining   bool   `json:"draining"`

	// ConnsBinary counts connections that completed the preamble
	// handshake (a lifetime total, not a currently-open count).
	ConnsBinary uint64 `json:"conns_binary"`

	// Bundling.
	Bundles         int     `json:"bundles"`
	MeanOccupancy   float64 `json:"mean_bundle_occupancy"`
	MaxOccupancy    int     `json:"max_bundle_occupancy"`
	HistoryRecords  int     `json:"history_records"`
	ResultsStreamed uint64  `json:"results_streamed"`

	// Engine counters, accumulated across bundles.
	Committed  uint64 `json:"committed"`
	Retries    uint64 `json:"retries"`
	Defers     uint64 `json:"defers"`
	UserAborts uint64 `json:"user_aborts"`
	Canceled   uint64 `json:"canceled"`
	Contended  uint64 `json:"contended"`

	// Forfeited counts produced outcomes whose delivery failed because
	// the submitting connection died (they are included in
	// ResultsStreamed: produced, not delivered).
	Forfeited uint64 `json:"forfeited"`
	// RetryAfterMS is the backoff hint a rejection would carry right
	// now: the flush interval scaled by admission-queue occupancy,
	// raised to the breaker's and the shedder's own hints when either
	// is backing traffic off.
	RetryAfterMS int64 `json:"retry_after_ms"`

	// Overload resilience. Expired counts transactions dropped past
	// their deadline anywhere on the path (submission, bundle
	// formation, or inside the engine between attempts); Shed counts
	// admissions dropped by the adaptive controller; BreakerRejected
	// counts durable admissions failed fast while the WAL breaker was
	// not closed. The three are disjoint from each other and from
	// Rejected (static queue-full).
	Expired         uint64  `json:"expired"`
	Shed            uint64  `json:"shed"`
	BreakerRejected uint64  `json:"breaker_rejected,omitempty"`
	BreakerTrips    uint64  `json:"breaker_trips,omitempty"`
	BreakerState    string  `json:"breaker_state,omitempty"`
	ShedLevel       float64 `json:"shed_level"`
	Brownout        bool    `json:"brownout"`
	BrownoutEnters  uint64  `json:"brownout_enters,omitempty"`
	// OverloadEvents is the recent mode-transition history (breaker
	// state changes, brownout enter/exit), oldest first.
	OverloadEvents []overload.Event `json:"overload_events,omitempty"`

	// Durability (zero unless Config.Durability is set).
	WALRecords        uint64 `json:"wal_records,omitempty"`
	WALFlushes        uint64 `json:"wal_flushes,omitempty"`
	WALSyncs          uint64 `json:"wal_syncs,omitempty"`
	WALBytes          int64  `json:"wal_bytes,omitempty"`
	Checkpoints       uint64 `json:"checkpoints,omitempty"`
	CheckpointErrors  uint64 `json:"checkpoint_errors,omitempty"`
	LastCheckpointLSN uint64 `json:"last_checkpoint_lsn,omitempty"`
	TruncatedSegments uint64 `json:"truncated_segments,omitempty"`
	// DedupHits counts submissions answered from the idempotency
	// window (committed duplicates); DedupInflight counts duplicates
	// rejected because the original was still executing.
	DedupHits     uint64 `json:"dedup_hits,omitempty"`
	DedupInflight uint64 `json:"dedup_inflight,omitempty"`
	DedupSize     int    `json:"dedup_size,omitempty"`

	// NotPrimary counts submissions refused because the arbiter lease
	// was not held; Lease snapshots the lease itself (nil unless
	// Config.Lease is set).
	NotPrimary uint64              `json:"not_primary,omitempty"`
	Lease      *arbiter.LeaseStats `json:"lease,omitempty"`

	// Replication (nil unless this server ships to a backup): the
	// pair's role, fencing epoch, health state, and lag. The epoch is
	// also reported on /healthz so operators can spot a deposed
	// primary at a glance.
	Replication *ReplicationStats `json:"replication,omitempty"`

	// Sharded runtime (empty unless Config.Shards > 1): per-shard
	// counters plus the cross-shard 2PC counters
	// (prepared/committed/aborted/in-doubt and friends). The top-level
	// engine counters above are rolled up across shards, with 2PC
	// commits included in Committed.
	Shards []shard.ShardStats `json:"shards,omitempty"`
	TwoPC  *shard.TwoPCStats  `json:"twopc,omitempty"`

	// Throughput over the server's lifetime, commits per wall second.
	Throughput float64 `json:"throughput"`

	// Latency distributions.
	QueueWait metrics.HistogramSnapshot `json:"queue_wait"`
	ExecLat   metrics.HistogramSnapshot `json:"exec_latency"`
}

// ReplicationStats is the /metrics replication block: the pair role
// ("primary" while shipping; a receiver-mode process reports its own)
// plus the shipper's counters — epoch, sync flag, monitor state,
// lag_bytes, shipped/acked progress, and whether this primary has been
// fenced by a promoted backup.
type ReplicationStats struct {
	Role string `json:"role"`
	replica.ShipperStats
}

// pending is one admitted transaction awaiting execution. Pendings and
// their embedded transactions are pooled: the serve path allocates
// neither in steady state. Ownership moves with the struct — the
// reader goroutine owns it from getPending until tryAdmit succeeds,
// then the bundler owns it until the response has been buffered on the
// connection, at which point putPending recycles it.
type pending struct {
	t        *txn.Transaction
	seq      uint64
	conn     *connWriter
	enqueued time.Time
}

var pendingPool = sync.Pool{
	New: func() any { return &pending{t: &txn.Transaction{}} },
}

func getPending() *pending { return pendingPool.Get().(*pending) }

// putPending recycles p. The transaction keeps its Ops, Params and
// access-set capacity (params are pointer-free, so retaining the array
// pins no request memory) but drops the template reference.
func putPending(p *pending) {
	p.t.Template = ""
	p.t.Params = p.t.Params[:0]
	p.conn = nil
	pendingPool.Put(p)
}

// Server is a running tskd-serve instance.
type Server struct {
	cfg      Config
	pipeline *core.Pipeline
	rt       *shard.Runtime // non-nil in sharded mode; pipeline is nil

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	admit     chan *pending
	admitMu   sync.RWMutex // draining flips under the write lock
	draining  bool
	drainCh   chan struct{} // closed when draining starts
	bundlerWG sync.WaitGroup

	runCtx    context.Context
	runCancel context.CancelFunc

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	start time.Time

	// Durability (nil/zero unless cfg.Durability is set). log and
	// dedup are internally synchronized; ckpt is touched only by the
	// bundler goroutine.
	log      *wal.Log
	dedup    *durable.Window
	ckpt     *durable.Checkpointer
	recovery RecoveryInfo

	// replicaEpoch is the fencing epoch this incarnation runs under
	// (the shipper's when replicating, the directory's persisted epoch
	// after a promotion, 0 otherwise). Immutable after New.
	replicaEpoch uint64

	// Overload resilience. shed and breaker are internally
	// synchronized leaves (safe from connection goroutines and from
	// inside WAL flush completion); events likewise. brownoutOn is
	// owned by the bundler goroutine. breaker is nil unless the server
	// is durable and the breaker enabled; shed is nil when shedding is
	// disabled.
	shed       *overload.Shedder
	breaker    *overload.Breaker
	events     *overload.EventLog
	brownoutOn bool

	mu        sync.Mutex // guards everything below
	stats     Stats
	queueWait metrics.Histogram
	execLat   metrics.Histogram

	// Bundle scaffolding, owned by the bundler goroutine and reused
	// across bundles so steady-state bundling does not allocate.
	batch    []*pending
	work     txn.Workload
	spans    []engine.ExecSpan // dense by in-bundle txn ID
	haveSpan []bool
}

// New validates cfg and returns an unstarted server. With
// Config.Durability set, New also runs startup recovery — newest valid
// checkpoint plus WAL tail — so by the time it returns, the server's
// database holds every commit a previous incarnation ever
// acknowledged; Start then binds the listeners over that state.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		admit:     make(chan *pending, cfg.QueueDepth),
		drainCh:   make(chan struct{}),
		runCtx:    runCtx,
		runCancel: cancel,
		conns:     make(map[net.Conn]struct{}),
		events:    overload.NewEventLog(0),
	}
	if cfg.Shards > 1 {
		// Sharded mode: the multi-shard runtime replaces the pipeline,
		// the WAL, the dedup window, the shedder and the breaker — each
		// shard runs its own bundling loop over its own slice of the key
		// space, and recovery (when durable) resolves every in-doubt
		// prepared transaction before Open returns.
		if err := s.openSharded(); err != nil {
			cancel()
			return nil, err
		}
		return s, nil
	}
	if !cfg.Overload.DisableShed {
		s.shed = overload.NewShedder(overload.ShedConfig{
			Target: cfg.Overload.ShedTarget,
			Window: cfg.Overload.ShedWindow,
			Seed:   cfg.Core.Seed + 1,
		})
	}
	if cfg.Durability != nil {
		if err := s.openDurable(); err != nil {
			cancel()
			return nil, err
		}
	}
	opts := s.cfg.Core
	opts.TraceSpans = true // per-transaction outcomes come from spans
	opts.WAL = s.log       // nil unless durable
	s.pipeline = core.NewPipeline(s.cfg.DB, s.cfg.Partitioner, opts)
	return s, nil
}

// DB returns the database the server runs against — the recovered one
// when Config.Durability is set.
func (s *Server) DB() *storage.DB { return s.cfg.DB }

// Recovery reports what startup recovery found (zero when the server
// is not durable or the directory was fresh).
func (s *Server) Recovery() RecoveryInfo { return s.recovery }

// Start binds the listeners and launches the accept and bundler loops.
// A lease-gated server first waits briefly for its first lease so the
// common case — a healthy primary booting — never answers early
// connections with not_primary; a server that cannot acquire the lease
// (arbiter down, or already fenced) still binds and serves refusals,
// redirecting clients to the leader.
func (s *Server) Start() error {
	if s.cfg.Lease != nil {
		s.cfg.Lease.WaitHeld(2 * time.Second)
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		hln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			return err
		}
		s.httpLn = hln
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", s.handleHealthz)
		mux.HandleFunc("/metrics", s.handleMetrics)
		if s.cfg.EnablePprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		s.httpSrv = &http.Server{Handler: mux}
		go s.httpSrv.Serve(hln)
	}
	s.start = time.Now()
	if s.rt == nil {
		s.bundlerWG.Add(1)
		go s.bundler()
	}
	go s.acceptLoop()
	return nil
}

// Addr returns the transaction listener's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HTTPAddr returns the HTTP listener's bound address ("" if disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Shutdown drains gracefully: stop accepting connections and
// admitting transactions, flush every bundle already admitted, then
// close. If ctx expires first, the in-flight bundle is canceled
// through the engine (its unfinished transactions respond "canceled")
// and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	already := s.draining
	s.draining = true
	s.admitMu.Unlock()
	if already {
		return errors.New("server: already shut down")
	}
	s.ln.Close()
	close(s.drainCh)

	done := make(chan struct{})
	go func() {
		s.bundlerWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.runCancel() // hard stop: abandon the in-flight bundle
		<-done
		err = ctx.Err()
	}
	if s.rt != nil {
		// The runtime drains its own shards (in-flight 2PCs decide and
		// apply first) and closes its logs.
		if rerr := s.rt.Shutdown(ctx); err == nil {
			err = rerr
		}
	}

	if s.log != nil {
		// The bundler has exited: no commit can be in flight, and the
		// last bundle's barrier left nothing pending. Close syncs and
		// closes the active segment.
		if cerr := s.log.Close(); err == nil {
			err = cerr
		}
	}
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.connMu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.connMu.Unlock()
	return err
}

// acceptLoop owns the transaction listener.
func (s *Server) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed (shutdown)
		}
		s.connMu.Lock()
		s.conns[nc] = struct{}{}
		s.connMu.Unlock()
		go s.serveConn(nc)
	}
}

// connWriter serializes responses onto one connection. Sends come
// from both the reader (rejections, parse errors) and the bundler
// (outcomes). Responses are encoded into a per-connection batch (no
// per-send allocation) and written through a bufio.Writer: reader-path
// sends flush immediately, bundle outcomes stay buffered until the
// bundler's per-bundle flush, so a bundle costs one syscall and one
// BinFrameResponses frame per connection instead of one per
// transaction, and a pipelined client decodes a whole bundle's
// outcomes from one read. The first write error latches
// the writer dead: a TCP write to a gone peer can block for the whole
// kernel timeout, so retrying a dead connection once per outcome would
// stall the bundler — instead every later send is skipped immediately
// and the outcome counted as forfeited.
type connWriter struct {
	mu   sync.Mutex
	bw   *bufio.Writer
	hdr  []byte // frame-header scratch, owned by mu
	dead bool

	// batch accumulates encoded response bodies for the next
	// BinFrameResponses frame; batchN counts them.
	batch  []byte
	batchN uint32
}

// maxRespBatchBytes cuts a response frame early when the accumulated
// bodies grow large, keeping frames well under MaxBinFrameBytes.
const maxRespBatchBytes = 1 << 20

func newConnWriter(w io.Writer) *connWriter {
	return &connWriter{bw: bufio.NewWriterSize(w, 16<<10)}
}

// send encodes resp onto the connection and flushes, reporting whether
// it was (apparently) delivered. False means the connection is dead
// and the response was dropped.
func (cw *connWriter) send(resp client.Response) bool {
	return cw.write(&resp, true)
}

// sendBuffered encodes resp into the connection's write buffer without
// flushing. The caller must arrange a flush (the bundler flushes once
// per bundle per connection); until then the response is not on the
// wire.
func (cw *connWriter) sendBuffered(resp *client.Response) bool {
	return cw.write(resp, false)
}

func (cw *connWriter) write(resp *client.Response, flush bool) bool {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.dead {
		return false
	}
	cw.batch = client.AppendResponseBody(cw.batch, resp)
	cw.batchN++
	if flush || len(cw.batch) >= maxRespBatchBytes {
		return cw.flushLocked()
	}
	return true
}

// flush assembles any pending response bodies into one frame and
// pushes it to the socket.
func (cw *connWriter) flush() {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.dead {
		return
	}
	cw.flushLocked()
}

// flushLocked emits the pending frame, if any, and flushes the
// buffered writer. Caller holds cw.mu.
func (cw *connWriter) flushLocked() bool {
	if cw.batchN > 0 {
		cw.hdr = client.AppendResponsesHeader(cw.hdr[:0], cw.batchN, len(cw.batch))
		_, err := cw.bw.Write(cw.hdr)
		if err == nil {
			_, err = cw.bw.Write(cw.batch)
		}
		cw.batch, cw.batchN = cw.batch[:0], 0
		if err != nil {
			cw.dead = true
			return false
		}
	}
	if cw.bw.Buffered() == 0 {
		return true
	}
	if err := cw.bw.Flush(); err != nil {
		cw.dead = true
		return false
	}
	return true
}

// serveConn checks the preamble, acks it, and serves length-prefixed
// request frames. A connection that opens with anything but the
// preamble is counted malformed and closed before anything is
// admitted. Frame decode errors are answered per request (the length
// prefix delimits them safely); header corruption — a bad length or
// frame type — kills the connection, since the stream can no longer be
// trusted.
func (s *Server) serveConn(nc net.Conn) {
	defer func() {
		nc.Close()
		s.connMu.Lock()
		delete(s.conns, nc)
		s.connMu.Unlock()
	}()
	br := bufio.NewReaderSize(nc, 64<<10)
	var pre [len(client.BinPreamble)]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return // closed before a whole preamble
	}
	if string(pre[:]) != client.BinPreamble {
		s.count(func(st *Stats) { st.Malformed++ })
		return
	}
	// Ack before any response can race: nothing is admitted yet, so
	// writing to the socket directly is safe and keeps the handshake
	// out of the connWriter's framing.
	if _, err := nc.Write(pre[:]); err != nil {
		return
	}
	cw := newConnWriter(nc)
	s.count(func(st *Stats) { st.ConnsBinary++ })
	in := client.NewInterner(0)
	var hdr [4]byte
	var payload []byte
	var req client.Request
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // EOF here is a clean close
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 1 || n > client.MaxBinFrameBytes {
			s.count(func(st *Stats) { st.Malformed++ })
			cw.send(client.Response{Status: client.StatusError, Error: fmt.Sprintf("bad frame length %d", n)})
			return
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		if payload[0] != client.BinFrameRequest {
			s.count(func(st *Stats) { st.Malformed++ })
			cw.send(client.Response{Status: client.StatusError, Error: fmt.Sprintf("unexpected frame type %d", payload[0])})
			return
		}
		if s.rt != nil {
			// Sharded mode: the runtime owns each transaction until its
			// response callback has run, so no pooling here.
			t := &txn.Transaction{}
			if err := client.DecodeRequestFrame(payload, &req, t, in); err != nil {
				s.count(func(st *Stats) { st.Malformed++ })
				cw.send(client.Response{Seq: req.Seq, Status: client.StatusError, Error: err.Error()})
				continue
			}
			s.serveSharded(&req, t, cw)
			continue
		}
		p := getPending()
		if err := client.DecodeRequestFrame(payload, &req, p.t, in); err != nil {
			putPending(p)
			s.count(func(st *Stats) { st.Malformed++ })
			cw.send(client.Response{Seq: req.Seq, Status: client.StatusError, Error: err.Error()})
			continue
		}
		s.admitDecoded(&req, p, cw)
	}
}

// checkLease refuses a submission with StatusNotPrimary when the
// server is lease-gated and the lease is not currently held — the
// client-facing half of fencing: a deposed (or not-yet-promoted)
// server redirects clients to the leader instead of executing work it
// could never acknowledge. Returns true when dispatch may proceed.
func (s *Server) checkLease(seq uint64, cw *connWriter) bool {
	lc := s.cfg.Lease
	if lc == nil || lc.Check() == nil {
		return true
	}
	ls := lc.Stats()
	s.count(func(st *Stats) { st.NotPrimary++ })
	// The TTL is the natural retry horizon: by then the lease has
	// either been re-acquired or granted away to the leader named here.
	cw.send(client.Response{Seq: seq, Status: client.StatusNotPrimary,
		Leader: ls.Leader, RetryAfterMS: ls.TTLMS})
	return false
}

// admitDecoded runs the admission tail for a request whose
// transaction p.t is fully populated: lease gate, idempotency window,
// overload gate, bounded admission.
func (s *Server) admitDecoded(req *client.Request, p *pending, cw *connWriter) {
	if !s.checkLease(req.Seq, cw) {
		putPending(p)
		return
	}
	if req.IdemKey != 0 && s.dedup != nil {
		switch state, cached := s.dedup.Begin(req.IdemKey); state {
		case durable.Hit:
			// Already committed (possibly in a previous incarnation):
			// answer without executing.
			putPending(p)
			cached.Seq = req.Seq
			cached.Duplicate = true
			s.count(func(st *Stats) { st.DedupHits++ })
			cw.send(cached)
			return
		case durable.Inflight:
			// The original is still executing; its outcome will reach
			// whoever submitted it. Back off and retry: by then the key
			// is either committed (answered above) or released
			// (executes fresh).
			putPending(p)
			s.count(func(st *Stats) { st.DedupInflight++ })
			cw.send(client.Response{
				Seq: req.Seq, Status: client.StatusRejected,
				RetryAfterMS: s.retryAfterMS(),
			})
			return
		}
	}
	now := time.Now()
	p.seq, p.conn, p.enqueued = req.Seq, cw, now
	if !s.gate(req, p, cw, now) {
		return // answered: breaker-rejected, shed, or expired
	}
	if s.tryAdmit(p) {
		s.count(func(st *Stats) { st.Admitted++ })
	} else {
		s.refuse(req, p, cw, client.StatusRejected, s.retryAfterMS(),
			func(st *Stats) { st.Rejected++ })
	}
}

// retryAfterMS is the backoff hint for a rejection: the flush interval
// (plus one tick) scaled by how many full bundles are already waiting
// in the admission queue, so the hint grows with the backlog a
// retrying client is behind. When the breaker is open or the shedder
// engaged, their own hints take over if larger — there is no point
// retrying sooner than the WAL can recover or the backlog can drain.
func (s *Server) retryAfterMS() int64 {
	base := s.cfg.FlushInterval.Milliseconds() + 1
	waiting := len(s.admit) / s.cfg.Bundle
	ms := base * int64(1+waiting)
	if s.breaker != nil {
		if bra := s.breaker.RetryAfter().Milliseconds(); bra > ms {
			ms = bra
		}
	}
	if s.shed != nil {
		if sra := s.shed.Backoff().Milliseconds(); sra > ms {
			ms = sra
		}
	}
	return ms
}

// tryAdmit enqueues p unless the queue is full or the server is
// draining. The read lock pairs with Shutdown's write lock so that no
// admission can slip in after draining flips: every pending the
// bundler must flush is already in the channel when drainCh closes.
func (s *Server) tryAdmit(p *pending) bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return false
	}
	select {
	case s.admit <- p:
		return true
	default:
		return false
	}
}

// bundler is the single consumer of the admission queue: it collects
// bundles (size- or timer-closed) and executes them in admission
// order.
func (s *Server) bundler() {
	defer s.bundlerWG.Done()
	for {
		var first *pending
		select {
		case first = <-s.admit:
		case <-s.drainCh:
			s.finalDrain()
			return
		}
		batch := append(s.batch[:0], first)
		timer := time.NewTimer(s.cfg.FlushInterval)
	collect:
		for len(batch) < s.cfg.Bundle {
			select {
			case p := <-s.admit:
				batch = append(batch, p)
			case <-timer.C:
				break collect
			case <-s.drainCh:
				break collect
			}
		}
		timer.Stop()
		s.batch = batch
		s.runBundle(batch)
		s.maybeCheckpoint()
	}
}

// finalDrain flushes whatever was admitted before draining flipped.
func (s *Server) finalDrain() {
	batch := s.batch[:0]
	for {
		select {
		case p := <-s.admit:
			batch = append(batch, p)
			if len(batch) >= s.cfg.Bundle {
				s.runBundle(batch)
				batch = batch[:0]
			}
		default:
			if len(batch) > 0 {
				s.runBundle(batch)
			}
			s.batch = batch[:0]
			return
		}
	}
}

// runBundle renumbers the batch densely, executes it through the
// pipeline, and streams one response per transaction. Responses are
// buffered per connection and flushed once at the bundle boundary —
// one write syscall per connection per bundle — and the batch's
// pendings (with their transactions) return to the pool afterwards.
func (s *Server) runBundle(batch []*pending) {
	batch = s.dropExpired(batch)
	if len(batch) == 0 {
		return
	}
	w := s.work[:0]
	for i, p := range batch {
		p.t.ID = i
		w = append(w, p.t)
	}
	s.work = w
	bundleNo := s.pipeline.Bundles()
	execStart := time.Now()
	res, err := s.pipeline.ProcessContext(s.runCtx, w)
	if err != nil {
		// Unreachable with a validated Config; fail the batch loudly
		// rather than dropping it.
		for _, p := range batch {
			p.conn.send(client.Response{Seq: p.seq, Status: client.StatusError, Error: err.Error()})
		}
		s.releaseBatch(batch)
		return
	}

	// Transaction IDs are dense 0..len(batch)-1, so span lookup is a
	// slice index, not a map.
	if cap(s.spans) < len(batch) {
		s.spans = make([]engine.ExecSpan, len(batch))
		s.haveSpan = make([]bool, len(batch))
	}
	spans, have := s.spans[:len(batch)], s.haveSpan[:len(batch)]
	for i := range have {
		have[i] = false
	}
	for _, sp := range res.Spans {
		if sp.TxnID >= 0 && sp.TxnID < len(batch) {
			spans[sp.TxnID], have[sp.TxnID] = sp, true
		}
	}
	respNow := time.Now()
	s.mu.Lock()
	for _, p := range batch {
		resp := client.Response{Seq: p.seq, Bundle: bundleNo}
		wait := execStart.Sub(p.enqueued)
		resp.QueueUS = wait.Microseconds()
		s.queueWait.Record(wait)
		if have[p.t.ID] {
			sp := spans[p.t.ID]
			exec := sp.End - sp.Start
			resp.Status = client.StatusCommit
			resp.Retries = sp.Retries
			resp.ExecUS = exec.Microseconds()
			s.execLat.Record(exec)
		} else if p.t.UserAbort {
			resp.Status = client.StatusAbort
		} else if !p.t.Deadline.IsZero() && respNow.After(p.t.Deadline) {
			// No span, no user abort, deadline passed: the engine
			// dropped it (before its first attempt or between retries).
			resp.Status = client.StatusExpired
		} else {
			resp.Status = client.StatusCanceled
		}
		if p.t.IdemKey != 0 && s.dedup != nil {
			if resp.Status == client.StatusCommit {
				// The commit is already durable (Process returns only
				// after the WAL barrier covered the whole bundle), so
				// remembering the key here keeps the window consistent
				// with the log.
				s.dedup.Commit(p.t.IdemKey, resp)
			} else {
				s.dedup.Release(p.t.IdemKey) // abort/cancel: retryable
			}
		}
		s.stats.ResultsStreamed++
		if !p.conn.sendBuffered(&resp) {
			s.stats.Forfeited++
		}
	}
	s.stats.Bundles++
	if len(batch) > s.stats.MaxOccupancy {
		s.stats.MaxOccupancy = len(batch)
	}
	s.stats.HistoryRecords = s.pipeline.HistorySize()
	s.stats.Committed += res.Committed
	s.stats.Retries += res.Retries
	s.stats.Defers += res.Defers
	s.stats.UserAborts += res.UserAborts
	s.stats.Canceled += res.Canceled
	s.stats.Contended += res.Contended
	s.stats.Expired += res.Expired
	s.mu.Unlock()
	// Push the bundle's responses onto the wire, then recycle. Flushing
	// the same connection twice is a cheap no-op, so no dirty-set
	// bookkeeping is needed.
	for _, p := range batch {
		p.conn.flush()
	}
	s.releaseBatch(batch)
}

// releaseBatch returns a bundle's pendings to the pool and drops the
// workload's references so pooled transactions are not pinned by the
// retained scaffolding.
func (s *Server) releaseBatch(batch []*pending) {
	for i, p := range batch {
		if i < len(s.work) {
			s.work[i] = nil
		}
		putPending(p)
	}
}

// count applies a mutation to the stats under the lock.
func (s *Server) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Draining = draining
	st.QueueDepth = len(s.admit)
	st.QueueCap = cap(s.admit)
	st.RetryAfterMS = s.retryAfterMS()
	if s.rt != nil {
		s.mergeShardStats(&st)
	}
	if s.log != nil {
		st.WALRecords, st.WALFlushes, st.WALSyncs = s.log.Counters()
		st.WALBytes = s.log.AppendedBytes()
	}
	if s.dedup != nil {
		st.DedupSize = s.dedup.Size()
	}
	if d := s.cfg.Durability; d != nil && d.Replication != nil {
		st.Replication = &ReplicationStats{Role: "primary", ShipperStats: d.Replication.Stats()}
	}
	if lc := s.cfg.Lease; lc != nil {
		ls := lc.Stats()
		st.Lease = &ls
	}
	// shed, breaker, and events are leaf-locked: safe under s.mu.
	if s.shed != nil {
		st.ShedLevel = s.shed.Level()
	}
	if s.breaker != nil {
		st.BreakerState = s.breaker.State().String()
		st.BreakerTrips = s.breaker.Trips()
	}
	st.OverloadEvents = s.events.Snapshot()
	if st.Bundles > 0 {
		st.MeanOccupancy = float64(st.ResultsStreamed) / float64(st.Bundles)
	}
	if elapsed := time.Since(s.start); elapsed > 0 && st.Committed > 0 {
		st.Throughput = float64(st.Committed) / elapsed.Seconds()
	}
	st.QueueWait = s.queueWait.Snapshot()
	st.ExecLat = s.execLat.Snapshot()
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if lc := s.cfg.Lease; lc != nil {
		if err := lc.Check(); err != nil {
			// Lease-gated but not primary: not ready for traffic. The
			// body names the leader so an operator (or load balancer
			// health probe) can see where the group went.
			ls := lc.Stats()
			http.Error(w, fmt.Sprintf("not primary: %v (epoch=%d leader=%s)", err, ls.Epoch, ls.Leader),
				http.StatusServiceUnavailable)
			return
		}
		ls := lc.Stats()
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
		fmt.Fprintf(w, "role=primary lease=held epoch=%d ttl_ms=%d\n", ls.Epoch, ls.TTLMS)
		if d := s.cfg.Durability; d != nil && d.Replication != nil {
			rst := d.Replication.Stats()
			fmt.Fprintf(w, "replication=%s lag_bytes=%d\n", rst.State, rst.LagBytes)
		}
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
	if d := s.cfg.Durability; d != nil && d.Replication != nil {
		rst := d.Replication.Stats()
		fmt.Fprintf(w, "role=primary epoch=%d replication=%s lag_bytes=%d\n",
			rst.Epoch, rst.State, rst.LagBytes)
	} else if s.cfg.Durability != nil && s.replicaEpoch > 0 {
		fmt.Fprintf(w, "role=promoted epoch=%d\n", s.replicaEpoch)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}
