// Package server is the TSKD serving layer: a TCP front-end that turns
// open-system arrivals into the paper's bundled workload model
// (Section 2.1). Transactions arrive over the wire protocol of
// internal/client, pass the lease and overload gates, and are served by
// a shard.Runtime — one unit when Config.Shards ≤ 1, one per shard
// otherwise, with cross-shard transactions committing through 2PC. A
// unit's bounded admission queue feeds its bundles, closed by size or
// by a flush timer, which execute through core.Pipeline — TSgen
// scheduling plus TsDEFER, with cost estimates learned from the
// execution history of earlier bundles. Per-transaction outcomes
// (commit/abort, retries, queue wait, execution latency) stream back on
// the submitting connection, one frame per connection per bundle.
//
// The admission queues are the only buffers between the network and
// the engines, and they are bounded: when a queue is full — or the
// server is draining — a submission is rejected immediately with a
// retry-after hint, never buffered without limit. Graceful shutdown
// stops admitting, flushes everything already admitted, and only then
// returns; a hard deadline cancels the in-flight bundles through the
// engines' context plumbing, reporting the abandoned transactions as
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
	"sync/atomic"
	"time"

	"tskd/internal/arbiter"
	"tskd/internal/cc"
	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/metrics"
	"tskd/internal/overload"
	"tskd/internal/partition"
	"tskd/internal/replica"
	"tskd/internal/shard"
	"tskd/internal/storage"
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
	// QueueDepth is each shard's admission queue capacity (default
	// 4×Bundle). Submissions beyond it are rejected with a retry-after
	// hint.
	QueueDepth int
	// DB is the database the transactions run against; required.
	DB *storage.DB
	// Partitioner splits each bundle before TSgen; nil is TSKD[0]
	// (scheduling from scratch).
	Partitioner partition.Partitioner
	// Core configures workers (per shard), CC protocol, TsDEFER and
	// friends. Estimator, CostSink, TraceSpans, Ctx and WAL are managed
	// by the runtime and must be left zero. Recorder may be set (tests) to
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
	// (internal/shard units), each with its own bundling loop — and,
	// when Durability is set, its own WAL directory and checkpoints
	// under Durability.Dir — while cross-shard transactions commit
	// through two-phase commit. DB and Partitioner are ignored in
	// sharded mode; ShardDB (and optionally ShardPartitioner) take their
	// place. Otherwise the server runs one unit over DB with its data
	// files directly under Durability.Dir. Deadlines, the shedder and
	// the WAL breaker apply at every shard count.
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
	// Admission (QueueDepth and QueueCap summed over the shards).
	Admitted   uint64 `json:"admitted"`
	Rejected   uint64 `json:"rejected"`
	Malformed  uint64 `json:"malformed"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Draining   bool   `json:"draining"`

	// ConnsBinary counts connections that completed the preamble
	// handshake (a lifetime total, not a currently-open count).
	ConnsBinary uint64 `json:"conns_binary"`

	// Bundling. ResultsStreamed counts the answers of admitted
	// transactions: executed outcomes (2PC commits and user aborts
	// included) plus expiries after admission — never refusals.
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
	// now: the flush interval scaled by the deepest admission queue's
	// occupancy, raised to the breaker's and the shedder's own hints
	// when either is backing traffic off.
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
	// counters above are rolled up across shards, with 2PC commits
	// included in Committed.
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

// Server is a running tskd-serve instance.
type Server struct {
	cfg Config
	rt  *shard.Runtime

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	draining atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	start time.Time

	// replicaEpoch is the fencing epoch this incarnation runs under
	// (the shipper's when replicating, the directory's persisted epoch
	// after a promotion, 0 otherwise). Immutable after New.
	replicaEpoch uint64

	// Overload resilience: the server makes the breaker and shed
	// decisions at admission, the runtime feeds both. shed, breaker and
	// events are internally synchronized leaves. breaker is nil unless
	// the server is durable and the breaker enabled; shed is nil when
	// shedding is disabled.
	shed    *overload.Shedder
	breaker *overload.Breaker
	events  *overload.EventLog

	forfeited atomic.Uint64
	mu        sync.Mutex // guards stats
	stats     Stats
}

// New validates cfg and opens the runtime that will serve it, unstarted
// on the network side. With Config.Durability set, New also runs
// startup recovery — newest valid checkpoint plus WAL tail per shard,
// in-doubt 2PC prepares resolved — so by the time it returns, the
// server's databases hold every commit a previous incarnation ever
// acknowledged; Start then binds the listeners over that state.
func New(cfg Config) (*Server, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		conns:  make(map[net.Conn]struct{}),
		events: overload.NewEventLog(0),
	}
	if !cfg.Overload.DisableShed {
		s.shed = overload.NewShedder(overload.ShedConfig{
			Target: cfg.Overload.ShedTarget,
			Window: cfg.Overload.ShedWindow,
			Seed:   cfg.Core.Seed + 1,
		})
	}
	if cfg.Durability != nil && !cfg.Overload.DisableBreaker {
		s.breaker = overload.NewBreaker(overload.BreakerConfig{
			TripLatency: cfg.Overload.BreakerLatency,
			Cooldown:    cfg.Overload.BreakerCooldown,
			OnTransition: func(from, to overload.BreakerState) {
				// Runs with the breaker's mutex held, possibly inside
				// WAL flush completion: the event log is a leaf, so
				// this never deadlocks.
				s.events.Record(time.Now(), "breaker", from.String()+"->"+to.String())
			},
		})
	}
	rcfg := shard.Config{
		Shards:        cfg.Shards,
		DB:            cfg.ShardDB,
		Partitioner:   cfg.ShardPartitioner,
		Bundle:        cfg.Bundle,
		FlushInterval: cfg.FlushInterval,
		QueueDepth:    cfg.QueueDepth,
		Core:          cfg.Core,
		Durability:    cfg.Durability.shard(cfg.Lease),
		Shed:          s.shed,
		Breaker:       s.breaker,
		Events:        s.events,
	}
	if cfg.Shards <= 1 {
		rcfg.Shards = 1
		rcfg.DB = func(int) *storage.DB { return cfg.DB }
		rcfg.Partitioner = func(int) partition.Partitioner { return cfg.Partitioner }
	}
	rt, err := shard.Open(rcfg)
	if err != nil {
		return nil, err
	}
	s.rt = rt
	s.replicaEpoch = rt.ReplicaEpoch()
	return s, nil
}

// DB returns the database the server runs against — the recovered one
// when Config.Durability is set; shard 0's in sharded mode.
func (s *Server) DB() *storage.DB { return s.rt.DB(0) }

// Recovery reports what startup recovery found in an unsharded data
// directory (zero when the server is sharded, not durable, or the
// directory was fresh).
func (s *Server) Recovery() RecoveryInfo {
	if r := s.rt.Recovery(); len(r.Shards) == 1 {
		return r.Shards[0].Restored
	}
	return RecoveryInfo{}
}

// Runtime returns the runtime serving the transactions.
func (s *Server) Runtime() *shard.Runtime { return s.rt }

// ShardRecovery reports what startup recovery found per shard (zero
// value when not durable).
func (s *Server) ShardRecovery() shard.RecoveryInfo { return s.rt.Recovery() }

// Start binds the listeners and launches the accept loop.
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

// Shutdown drains gracefully: stop admitting transactions, flush every
// bundle already admitted (in-flight 2PCs decide and apply first), close
// the logs, then close the listeners and connections. If ctx
// expires first, the in-flight bundles are canceled through the engines
// (their unfinished transactions respond "canceled") and ctx.Err() is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return errors.New("server: already shut down")
	}
	// The runtime stops admitting first thing; a connection accepted
	// while it drains has its submissions refused like the open ones.
	err := s.rt.Shutdown(ctx)
	s.ln.Close()
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

// connWriter serializes responses onto one connection; it is the
// shard.Replier of every transaction the connection submits. Sends come
// from the reader (refusals, parse errors) and from the runtime
// (outcomes). Responses are encoded into a per-connection batch (no
// per-send allocation) and written through a bufio.Writer: reader-path
// sends flush immediately, bundle outcomes stay buffered until the
// unit's per-bundle flush, so a bundle costs one syscall and one
// BinFrameResponses frame per connection instead of one per
// transaction, and a pipelined client decodes a whole bundle's
// outcomes from one read. The first write error latches the writer
// dead: a TCP write to a gone peer can block for the whole kernel
// timeout, so retrying a dead connection once per outcome would stall
// a unit — instead every later send is skipped immediately and the
// outcome counted as forfeited.
type connWriter struct {
	mu        sync.Mutex
	bw        *bufio.Writer
	hdr       []byte // frame-header scratch, owned by mu
	dead      bool
	forfeited *atomic.Uint64 // counts outcomes lost to a dead connection

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

// Reply buffers a runtime outcome without flushing: the runtime calls
// Flush after it, once per bundle per connection.
func (cw *connWriter) Reply(resp client.Response) {
	if !cw.write(&resp, false) {
		cw.forfeited.Add(1)
	}
}

// Flush pushes buffered outcomes onto the wire.
func (cw *connWriter) Flush() { cw.flush() }

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
	cw.forfeited = &s.forfeited
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
		// The task and its transaction are pooled: the runtime recycles
		// them once the outcome is answered.
		tk := shard.NewTask()
		if err := client.DecodeRequestFrame(payload, &req, tk.Txn(), in); err != nil {
			tk.Release()
			s.count(func(st *Stats) { st.Malformed++ })
			cw.send(client.Response{Seq: req.Seq, Status: client.StatusError, Error: err.Error()})
			continue
		}
		s.admit(&req, tk, cw)
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

// admit runs a decoded request through the lease and overload gates
// and hands it to the runtime, or answers it here.
func (s *Server) admit(req *client.Request, tk *shard.Task, cw *connWriter) {
	if s.checkLease(req.Seq, cw) && s.gate(req, tk.Txn(), cw) {
		s.rt.Serve(tk, req.Seq, cw)
		return
	}
	tk.Release()
}

// count applies a mutation to the stats under the lock.
func (s *Server) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	rst := s.rt.Stats()
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.Draining = s.draining.Load()
	st.Forfeited = s.forfeited.Load()
	st.RetryAfterMS = s.rt.RetryAfterMS()
	for _, sh := range rst.Shards {
		st.Admitted += sh.Admitted
		st.Rejected += sh.Rejected
		st.QueueDepth += sh.QueueDepth
		st.QueueCap += s.cfg.QueueDepth
		st.Bundles += int(sh.Bundles)
		st.ResultsStreamed += sh.Results
		st.MaxOccupancy = max(st.MaxOccupancy, sh.MaxOccupancy)
		st.HistoryRecords += sh.HistoryRecords
		st.Committed += sh.Committed
		st.Retries += sh.Retries
		st.Defers += sh.Defers
		st.UserAborts += sh.UserAborts
		st.Canceled += sh.Canceled
		st.Contended += sh.Contended
		st.Expired += sh.Expired
		st.Brownout = st.Brownout || sh.Brownout
		st.BrownoutEnters += sh.BrownoutEnters
		st.WALRecords += sh.WALRecords
		st.WALFlushes += sh.WALFlushes
		st.WALSyncs += sh.WALSyncs
		st.WALBytes += sh.WALBytes
		st.Checkpoints += sh.Checkpoints
		st.CheckpointErrors += sh.CheckpointErrors
		st.LastCheckpointLSN = max(st.LastCheckpointLSN, sh.LastCheckpointLSN)
		st.TruncatedSegments += sh.TruncatedSegments
		st.DedupHits += sh.DedupHits
		st.DedupInflight += sh.DedupInflight
		st.DedupSize += sh.DedupSize
	}
	if st.Bundles > 0 {
		st.MeanOccupancy = float64(st.ResultsStreamed) / float64(st.Bundles)
	}
	// A 2PC commit is one committed transaction from the client's view;
	// its per-shard sub-commits are not in the shard Committed counters
	// (participant installs bypass the engines). Every decided 2PC
	// outcome but a refusal (vote-no, prepare timeout) is a result.
	tpc := rst.TwoPC
	st.Committed += tpc.Committed
	st.UserAborts += tpc.UserAborts
	st.Rejected += tpc.Rejected
	st.ResultsStreamed += tpc.Committed + tpc.Aborted - tpc.AbortedVote - tpc.AbortedTimeout
	st.DedupHits += tpc.DedupHits
	st.DedupInflight += tpc.DedupInflight
	if s.cfg.Shards > 1 {
		st.Shards = rst.Shards
		st.TwoPC = &tpc
	}
	if d := s.cfg.Durability; d != nil && d.Replication != nil {
		st.Replication = &ReplicationStats{Role: "primary", ShipperStats: d.Replication.Stats()}
	}
	if lc := s.cfg.Lease; lc != nil {
		ls := lc.Stats()
		st.Lease = &ls
	}
	if s.shed != nil {
		st.ShedLevel = s.shed.Level()
	}
	if s.breaker != nil {
		st.BreakerState = s.breaker.State().String()
		st.BreakerTrips = s.breaker.Trips()
	}
	st.OverloadEvents = s.events.Snapshot()
	if elapsed := time.Since(s.start); elapsed > 0 && st.Committed > 0 {
		st.Throughput = float64(st.Committed) / elapsed.Seconds()
	}
	st.QueueWait = rst.QueueWait
	st.ExecLat = rst.ExecLat
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
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
