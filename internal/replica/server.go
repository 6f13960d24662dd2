package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"tskd/internal/storage"
)

// server.go: the backup side. A Server listens for one primary's
// shipping connection and materializes the shipped streams under its
// own data directory, mirroring the primary's layout (stream name =
// relative directory). Catch-up file snapshots are written atomically;
// append frames go into segment files named by their first LSN — the
// same naming contract the wal package uses, so the shipped directory
// is a valid data directory at every instant and promotion is just
// Promote(dir) followed by the ordinary server startup over it.
//
// Every append is fsynced before its ack leaves, because the ack is
// what releases the primary's sync-mode client acks: an acked byte is
// durable on both nodes. The backup never truncates anything — it
// accumulates segments and snapshot generations until it is promoted
// (after which the normal checkpoint cycle resumes) or re-seeded.
//
// Fencing: the handshake and every append carry the shipper's epoch.
// Anything below the persisted epoch gets FrameFence and the
// connection closed; anything at or above it is adopted and persisted
// before the hello is acknowledged, so the fence survives a backup
// restart. Epochs alone cannot order two primaries at the SAME epoch
// (a restarted primary racing its deposed predecessor's still-draining
// connection), so the backup additionally admits only one shipping
// connection at a time: a completed handshake deposes any previous
// connection, and a deposed connection can no longer mutate the
// shipped directory — its appends would otherwise O_TRUNC and
// interleave with the newcomer's into the same segment files.

// ServerConfig configures a backup receiver.
type ServerConfig struct {
	// Dir is the backup data directory (created if missing).
	Dir string
	// NoSync skips fsyncs (tests only — an acked byte must normally be
	// durable here, that is the whole point of the ack).
	NoSync bool
}

// ServerStats snapshots a receiver for /metrics.
type ServerStats struct {
	Epoch         uint64 `json:"epoch"`
	Conns         int    `json:"conns"`
	AppendedBytes uint64 `json:"appended_bytes"`
	Appends       uint64 `json:"appends"`
	Snapshots     uint64 `json:"snapshots"`
	LastSeq       uint64 `json:"last_seq"`
	FencedConns   uint64 `json:"fenced_conns"`
}

// Server is the backup receiver.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	epoch  uint64
	conns  map[net.Conn]struct{}
	active net.Conn // the one connection allowed to mutate the directory
	closed bool
	stats  ServerStats

	// applyMu serializes directory mutations across connection
	// turnover: a deposed connection's in-flight apply completes before
	// its successor's first one, and nothing applies after deposition.
	applyMu sync.Mutex

	wg sync.WaitGroup
}

// NewServer loads the directory's persisted epoch and prepares a
// receiver (no listener yet; Start binds one).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("replica: ServerConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	epoch, err := ReadEpoch(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, epoch: epoch, conns: make(map[net.Conn]struct{})}, nil
}

// Start binds addr and serves shipping connections until Close.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.stats.Conns++
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(conn)
				s.mu.Lock()
				delete(s.conns, conn)
				if s.active == conn {
					s.active = nil
				}
				s.stats.Conns--
				s.mu.Unlock()
			}()
		}
	}()
	return nil
}

// Addr returns the bound listener address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Epoch returns the persisted epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Stats snapshots the receiver.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Epoch = s.epoch
	return st
}

// Close stops the listener and tears down every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

// appendState tracks one stream's active append chain on a
// connection.
type appendState struct {
	f    *os.File
	next uint64 // LSN the next contiguous append must start at
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 256<<10)
	streams := make(map[string]*appendState)
	defer func() {
		for _, st := range streams {
			if st.f != nil {
				st.f.Close()
			}
		}
	}()

	// checked flips on when the handshake negotiates FlagChecksums;
	// from then on both directions carry per-frame CRC32C.
	checked := false
	reply := func(f Frame) bool {
		var buf []byte
		if checked {
			buf = AppendCheckedFrame(nil, f)
		} else {
			buf = AppendFrame(nil, f)
		}
		_, err := conn.Write(buf)
		return err == nil
	}
	read := func() (Frame, error) {
		if checked {
			return ReadCheckedFrame(br)
		}
		return ReadFrame(br)
	}
	fence := func() {
		s.mu.Lock()
		s.stats.FencedConns++
		epoch := s.epoch
		s.mu.Unlock()
		reply(Frame{Type: FrameFence, Epoch: epoch})
	}

	// Handshake.
	hello, err := ReadFrame(br)
	if err != nil || hello.Type != FrameHello {
		return
	}
	s.mu.Lock()
	stale := hello.Epoch < s.epoch
	s.mu.Unlock()
	if stale {
		fence()
		return
	}
	// Adopt and persist a newer epoch before acking the hello, so the
	// fence against the old primary survives a backup restart.
	if err := s.adoptEpoch(hello.Epoch); err != nil {
		return
	}
	// Single writer: the newest handshake deposes any previous shipping
	// connection — epochs cannot order two primaries at the same epoch,
	// so connection turnover must (see the fencing comment above).
	s.mu.Lock()
	prev := s.active
	s.active = conn
	s.mu.Unlock()
	if prev != nil {
		prev.Close()
	}
	// Echo the checksum flag if the shipper requested it: the ack
	// itself is still plain (the shipper reads it before enabling
	// checked framing); everything after is checksummed both ways.
	var ackFlags uint32
	if hello.Flags&FlagChecksums != 0 {
		ackFlags |= FlagChecksums
	}
	if !reply(Frame{Type: FrameHelloAck, Epoch: hello.Epoch, Flags: ackFlags}) {
		return
	}
	checked = ackFlags&FlagChecksums != 0

	for {
		f, err := read()
		if err != nil {
			return
		}
		switch f.Type {
		case FrameFile:
			if !validStream(f.Stream) || !validName(f.Name) {
				return
			}
			if err := s.applyActive(conn, func() error {
				return s.writeSnapshot(f.Stream, f.Name, f.Data)
			}); err != nil {
				return
			}
			s.mu.Lock()
			s.stats.Snapshots++
			s.mu.Unlock()
		case FrameAppend:
			if !validStream(f.Stream) {
				return
			}
			if s.staleEpoch(f.Epoch) {
				fence()
				return
			}
			if err := s.applyActive(conn, func() error {
				return s.applyAppend(streams, f)
			}); err != nil {
				return
			}
			s.mu.Lock()
			s.stats.Appends++
			s.stats.AppendedBytes += uint64(len(f.Data))
			if f.Seq > s.stats.LastSeq {
				s.stats.LastSeq = f.Seq
			}
			s.mu.Unlock()
			if !reply(Frame{Type: FrameAck, Seq: f.Seq}) {
				return
			}
		case FrameHeartbeat:
			if s.staleEpoch(f.Epoch) {
				fence()
				return
			}
			s.mu.Lock()
			deposed := s.active != conn
			if !deposed && f.Seq > s.stats.LastSeq {
				s.stats.LastSeq = f.Seq
			}
			s.mu.Unlock()
			if deposed {
				// A deposed primary must not keep reading healthy
				// heartbeat acks off a dying connection.
				return
			}
			if !reply(Frame{Type: FrameAck, Seq: f.Seq}) {
				return
			}
		default:
			return
		}
	}
}

var errDeposed = errors.New("replica: connection deposed by a newer handshake")

// applyActive runs fn only while conn is still the active shipping
// connection, holding applyMu so mutations from a deposed connection
// and its successor never interleave (see the Server.applyMu comment).
func (s *Server) applyActive(conn net.Conn, fn func() error) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.mu.Lock()
	active := s.active == conn
	s.mu.Unlock()
	if !active {
		return errDeposed
	}
	return fn()
}

func (s *Server) staleEpoch(e uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return e < s.epoch
}

func (s *Server) adoptEpoch(e uint64) error {
	s.mu.Lock()
	cur := s.epoch
	s.mu.Unlock()
	if e <= cur {
		return nil
	}
	if err := WriteEpoch(s.cfg.Dir, e); err != nil {
		return err
	}
	s.mu.Lock()
	if e > s.epoch {
		s.epoch = e
	}
	s.mu.Unlock()
	return nil
}

// streamDir maps a stream name to its directory ("." is the root).
func (s *Server) streamDir(stream string) string {
	if stream == "." {
		return s.cfg.Dir
	}
	return filepath.Join(s.cfg.Dir, stream)
}

// writeSnapshot replaces <stream>/<name> atomically with data.
func (s *Server) writeSnapshot(stream, name string, data []byte) error {
	dir := s.streamDir(stream)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return storage.WriteFileAtomic(filepath.Join(dir, name), data, !s.cfg.NoSync)
}

// applyAppend writes one shipped group into the stream's active
// segment and fsyncs it. A non-contiguous first LSN (a fresh
// connection, or the primary reopened its log) starts a new chain: the
// segment named at that LSN is created or truncated, mirroring
// wal.OpenDir's contract that a file named at the reopen LSN holds
// zero replayable records.
func (s *Server) applyAppend(streams map[string]*appendState, f Frame) error {
	st := streams[f.Stream]
	if st == nil {
		st = &appendState{}
		streams[f.Stream] = st
	}
	if st.f == nil || f.FirstLSN != st.next {
		if st.f != nil {
			st.f.Close()
			st.f = nil
		}
		dir := s.streamDir(f.Stream)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		nf, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", f.FirstLSN)),
			os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if !s.cfg.NoSync {
			if err := syncPath(dir); err != nil {
				nf.Close()
				return err
			}
		}
		st.f = nf
		st.next = f.FirstLSN
	}
	if _, err := st.f.Write(f.Data); err != nil {
		return err
	}
	if !s.cfg.NoSync {
		if err := st.f.Sync(); err != nil {
			return err
		}
	}
	st.next += uint64(f.Records)
	return nil
}

// validStream accepts "." or a single path component.
func validStream(s string) bool { return s == "." || validName(s) }

// validName accepts a single, non-traversing path component.
func validName(s string) bool {
	return s != "" && s != "." && s != ".." &&
		!strings.ContainsAny(s, "/\\") && !strings.Contains(s, "\x00")
}
