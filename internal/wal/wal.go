// Package wal implements a redo-only write-ahead log with group
// commit, the durability substrate behind the paper's commit-time I/O
// latency knob: real systems stall at commit exactly because a log
// record must reach stable storage before the transaction
// acknowledges.
//
// Records carry the installed row versions (redo images tagged with
// their version numbers), so replay is idempotent and order-
// independent per key: a record applies only when its version is newer
// than what the database already holds. That makes the log correct
// even though concurrent workers append in nondeterministic order.
//
// Format (little endian), one record:
//
//	u32 payload length | u32 CRC32(payload) | payload
//
// payload: i64 txnID | u32 nWrites | nWrites × (u64 key | u64 ver |
// u16 nFields | nFields × u64) | [u64 idemKey [u8 kind]]. The trailing
// idempotency key is optional (older logs omit it; decode treats a
// missing tail as key 0), carrying the serving layer's exactly-once
// dedup window through crashes. The kind byte after it distinguishes
// the multi-shard runtime's record roles — 2PC prepares, coordinator
// commit decisions, coordinator boot marks — from plain redo; it is
// written only for non-commit kinds, so commit records stay
// byte-identical to the original format and the trailer remains
// unambiguous by length (8 bytes = idemKey only, 9 = idemKey + kind).
// Replay stops cleanly at a torn or corrupt tail, which is how crash
// recovery discards incomplete group flushes.
//
// Records are addressed by LSN — the zero-based index of the record in
// the log's lifetime append order. A Log opened over a directory
// (OpenDir) rotates size-bounded segment files named by the LSN of
// their first record, syncs every group flush through a Syncer (the
// fsync that makes "durable" mean durable), and truncates sealed
// segments once a checkpoint covers them (TruncateSealed).
//
// Appending and waiting for durability are separate steps. The engine
// executes a bundle at a time and acknowledges a bundle at a time, so
// its workers call AppendNoWait (encode into the pending group, return)
// and the run ends with one Barrier, which flushes the group — one
// write, one fsync, one gate check, one ship for the whole bundle — and
// reports the durable prefix. Append is the two combined, paced by the
// group window, for callers that log one record at a time (2PC
// prepares, coordinator decisions).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Update is the redo image of one row write.
type Update struct {
	// Key is the row's global key (txn.Key as raw bits).
	Key uint64
	// Ver is the installed version; replay applies the highest.
	Ver uint64
	// Fields is the committed image.
	Fields []uint64
}

// RecordKind distinguishes the roles a log record can play. Plain redo
// (RecordCommit) is the zero value and the only kind replay applies to
// the store; the other kinds carry the multi-shard runtime's two-phase
// commit protocol state through crashes.
type RecordKind uint8

const (
	// RecordCommit is a committed transaction's redo images — the only
	// kind ApplyRecord installs.
	RecordCommit RecordKind = iota
	// RecordPrepare is a 2PC participant's prepared redo: the write set
	// a shard voted yes on, not yet decided. Recovery parks it until the
	// coordinator log resolves the global transaction (TxnID carries the
	// global transaction id); absence of a decision means abort.
	RecordPrepare
	// RecordDecision is a coordinator's durable commit decision for the
	// global transaction in TxnID (presumed abort: only commits are
	// logged). It carries no writes; IdemKey rides along so cross-shard
	// exactly-once survives crashes.
	RecordDecision
	// RecordBoot marks a coordinator incarnation in its log. Counting
	// boot records yields a monotonic epoch that keeps global
	// transaction ids unique across restarts.
	RecordBoot
)

// Record is one transaction's commit record (or, for non-commit kinds,
// one 2PC protocol record).
type Record struct {
	TxnID  int64
	Writes []Update
	// IdemKey is the client-chosen idempotency key of the request that
	// produced this commit (0 = none). Recovery feeds it back into the
	// serving layer's dedup window so resubmission after a crash stays
	// exactly-once.
	IdemKey uint64
	// Kind is the record's role; the zero value is plain redo.
	Kind RecordKind
}

// Syncer is the stable-storage barrier a durable log flushes through:
// *os.File satisfies it with fsync. A nil Syncer means group flushes
// stop at the OS page cache (fine for tests and simulations, not for a
// server that acknowledges commits).
type Syncer interface {
	Sync() error
}

// FlushMonitor observes physical group flushes (write plus Syncer
// barrier). FlushStart is called as a flush enters the device and
// FlushEnd with its duration and outcome; the pair lets an overload
// breaker watch both finished-flush latency and the age of a flush
// that never returns. The monitor is called under the log's mutex and
// must not call back into the Log.
type FlushMonitor interface {
	FlushStart()
	FlushEnd(d time.Duration, err error)
}

// Shipper receives every flushed group after it reached stable storage
// locally — the replication hook. firstLSN is the LSN of the group's
// first record, records the count in the group, and data the exact
// bytes written (framed records, replayable as-is). A non-nil return
// fails the flush: every appender waiting on the group, and the next
// Barrier, gets the error instead of a durability ack, which is how
// synchronous replication withholds client acks until the backup
// confirmed the bytes. Ship is called under the log's mutex after the
// local fsync and after the FlushMonitor saw the flush (so a WAL-stall
// breaker never charges network latency to the disk); it must not call
// back into the Log, and data is only valid for the duration of the
// call.
type Shipper interface {
	Ship(firstLSN uint64, records int, data []byte) error
}

// FlushGate vetoes durability acknowledgements: it is consulted on
// every flush after the local fsync, alongside the Shipper, and a
// non-nil return fails the flush exactly as a ship failure does —
// every appender waiting on the group, and the next Barrier, gets the
// error instead of an ack. The automatic-failover path installs the
// primary's lease check here, so a node whose lease lapsed (or that was
// fenced by the arbiter) can never acknowledge another commit even if
// its replica link is still up. Called under the log's mutex; must not
// call back into the Log.
type FlushGate func() error

// Log is a group-committing redo log over an io.Writer. Records join
// the pending group when appended and become durable when that group
// is flushed: write, Syncer, FlushMonitor, FlushGate, Shipper, in that
// order. AppendNoWait returns once the record is in the group and
// leaves the flush to a later Barrier; Append returns after the flush
// of its group. A record may be acknowledged only once Append returned
// nil for it or a Barrier reported a durable prefix that covers it.
// All methods are safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	w       io.Writer
	sync    Syncer // nil: no stable-storage barrier
	monitor FlushMonitor
	shipper Shipper
	gate    FlushGate
	// shipStart is the LSN of the first record in the pending group
	// (meaningful only while pending is non-empty): nextLSN advances per
	// append, so the group's base must be pinned when the group opens.
	shipStart uint64
	// wrapSync decorates the stable-storage barrier (fault injection);
	// rotation re-applies it to each new segment file.
	wrapSync func(Syncer) Syncer
	pending  []byte
	waiters  []chan error // blocked Appends of the pending group
	// unwaited is set while the pending group holds records nobody
	// blocks on (AppendNoWait). A failed flush of such a group has no
	// waiter to tell, so it is held in lostFrom/lostErr — the first LSN
	// and the error of the earliest such failure — until a Barrier
	// reports it.
	unwaited bool
	lostFrom uint64
	lostErr  error

	// groupWindow batches blocking appends for up to this long before
	// flushing (group commit). Zero flushes on every Append.
	groupWindow time.Duration
	flushTimer  *time.Timer
	closed      bool

	nextLSN uint64 // LSN the next appended record receives

	// Segmented (directory-backed) mode; zero values for plain logs.
	dir        string
	segBytes   int64
	segStart   uint64 // first LSN of the active segment
	segWritten int64  // bytes flushed into the active segment
	active     *os.File
	sealed     []SegmentInfo

	// Lifetime counts, written under mu and read without it (Counters,
	// AppendedBytes): mu is held across the Syncer call, and a stalled
	// disk is when somebody wants to look at them.
	records atomic.Uint64 // appended records
	flushes atomic.Uint64 // physical flushes (for observing group commit)
	syncs   atomic.Uint64 // Syncer barriers issued (one per flush when armed)
	bytes   atomic.Int64  // bytes appended, headers included
}

// New returns a log writing to w with the given group-commit window
// for blocking appends (0 = synchronous flush per Append).
func New(w io.Writer, groupWindow time.Duration) *Log {
	return &Log{w: w, groupWindow: groupWindow}
}

// NewDurable is New with a stable-storage barrier: every group flush is
// followed by sync.Sync() before waiters are released, so Append
// returning nil, or a Barrier covering the record, means it survived a
// crash of the process or the OS. Pass the same *os.File as both w and
// sync for a plain file-backed log; OpenDir builds on this with segment
// rotation.
func NewDurable(w io.Writer, sync Syncer, groupWindow time.Duration) *Log {
	return &Log{w: w, sync: sync, groupWindow: groupWindow}
}

// NextLSN returns the LSN the next appended record will receive —
// equivalently, the number of records ever appended (plus the StartLSN
// the log was opened at). Between bundles — after the engine's Barrier,
// with no append in flight — it is the exclusive upper bound of the
// durable prefix and therefore the LSN a checkpoint is taken at.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// AppendedBytes returns the total bytes appended over the log's
// lifetime (headers included). The serving layer's checkpointer uses
// the delta since the last checkpoint as its trigger. Like Counters it
// does not wait for a flush in progress.
func (l *Log) AppendedBytes() int64 { return l.bytes.Load() }

// SetMonitor installs the flush monitor (nil removes it). Install
// before traffic: the monitor is read under the log's mutex.
func (l *Log) SetMonitor(m FlushMonitor) {
	l.mu.Lock()
	l.monitor = m
	l.mu.Unlock()
}

// SetShipper installs the replication shipper (nil removes it).
// Install before traffic: the shipper is read under the log's mutex.
func (l *Log) SetShipper(s Shipper) {
	l.mu.Lock()
	l.shipper = s
	l.mu.Unlock()
}

// SetFlushGate installs the flush gate (nil removes it). Install
// before traffic: the gate is read under the log's mutex.
func (l *Log) SetFlushGate(g FlushGate) {
	l.mu.Lock()
	l.gate = g
	l.mu.Unlock()
}

// Counters returns how many records were appended, how many physical
// flushes were made and how many Syncer barriers were issued over the
// log's lifetime. It does not take the log's mutex, so it answers while
// a flush is stuck in its fsync; on a live log the three numbers are
// each current but not one consistent cut.
func (l *Log) Counters() (records, flushes, syncs uint64) {
	return l.records.Load(), l.flushes.Load(), l.syncs.Load()
}

// ErrClosed reports appends to a closed log.
var ErrClosed = errors.New("wal: closed")

// waiterPool recycles the single-use durability-notification channels.
// Every registered waiter is sent exactly one error (by the flush of
// its group) and its appender receives exactly once before recycling,
// so a pooled channel is always empty when reused.
var waiterPool = sync.Pool{New: func() any { return make(chan error, 1) }}

// appendLocked encodes rec at the tail of the pending group and returns
// its LSN. The record is serialized straight into the group buffer
// (header backfilled in place), so the caller's rec — and any scratch
// its Writes alias — is free for reuse on return.
func (l *Log) appendLocked(rec Record) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if len(l.pending) == 0 {
		l.shipStart = l.nextLSN
	}
	before := len(l.pending)
	l.pending = appendRecord(l.pending, rec)
	lsn := l.nextLSN
	l.records.Add(1)
	l.nextLSN++
	l.bytes.Add(int64(len(l.pending) - before))
	return lsn, nil
}

// AppendNoWait serializes rec into the pending group and returns its
// LSN without waiting for the group to be flushed: no timer, no waiter.
// The record is durable once a Barrier reports a prefix above that
// LSN. The only error is ErrClosed.
func (l *Log) AppendNoWait(rec Record) (uint64, error) {
	l.mu.Lock()
	lsn, err := l.appendLocked(rec)
	if err == nil {
		l.unwaited = true
	}
	l.mu.Unlock()
	return lsn, err
}

// Append is AppendNoWait plus the wait: it serializes rec into the
// pending group and blocks until that group is flushed, at most one
// group window later, returning the flush's outcome.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	if _, err := l.appendLocked(rec); err != nil {
		l.mu.Unlock()
		return err
	}
	if l.groupWindow <= 0 {
		err := l.flushLocked()
		l.mu.Unlock()
		return err
	}
	ch := waiterPool.Get().(chan error)
	l.waiters = append(l.waiters, ch)
	if l.flushTimer == nil {
		l.flushTimer = time.AfterFunc(l.groupWindow, func() {
			l.mu.Lock()
			l.flushTimer = nil
			l.flushLocked()
			l.mu.Unlock()
		})
	}
	l.mu.Unlock()
	err := <-ch
	waiterPool.Put(ch)
	return err
}

// Barrier forces the pending group out and reports the durable prefix:
// every record appended before the call with an LSN below durable has
// been written, synced, passed the gate and been shipped. With a nil
// error that is every record appended so far. A non-nil error is the
// earliest flush failure since the previous Barrier that hit records
// appended with AppendNoWait, and durable is the first LSN it hit:
// nothing at or above it may be acknowledged (though it may well be on
// disk — recovery decides). Each failure is reported once; the log
// itself carries on, and later groups succeed or fail on their own.
func (l *Log) Barrier() (durable uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushLocked()
	if err := l.lostErr; err != nil {
		l.lostErr = nil
		return l.lostFrom, err
	}
	return l.nextLSN, nil
}

// Flush forces the current group out and returns its outcome. Unlike
// Barrier it reports only the group it flushed and leaves a failure
// that hit AppendNoWait records pending for the next Barrier.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked()
}

// Close flushes and marks the log closed. Directory-backed logs also
// sync and close their active segment file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	l.closed = true
	if l.flushTimer != nil {
		l.flushTimer.Stop()
		l.flushTimer = nil
	}
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	return err
}

// flushLocked writes the pending group out and releases its waiters
// with the outcome.
func (l *Log) flushLocked() error {
	if len(l.pending) == 0 {
		return nil
	}
	n := len(l.pending)
	// The group's bytes stay valid through the Ship call below: pending
	// is reset to length zero but the backing array is untouched, and no
	// append can reuse it while the mutex is held.
	group := l.pending
	first := l.shipStart
	records := int(l.nextLSN - l.shipStart)
	var start time.Time
	if l.monitor != nil {
		l.monitor.FlushStart()
		start = time.Now()
	}
	_, err := l.w.Write(group)
	l.pending = l.pending[:0]
	l.flushes.Add(1)
	if err == nil && l.sync != nil {
		err = l.sync.Sync()
		l.syncs.Add(1)
	}
	if l.monitor != nil {
		l.monitor.FlushEnd(time.Since(start), err)
	}
	// The gate runs before the ship: a fenced primary must not even
	// offer the group to its backup, let alone ack it locally.
	if err == nil && l.gate != nil {
		err = l.gate()
	}
	if err == nil && l.shipper != nil {
		err = l.shipper.Ship(first, records, group)
	}
	l.segWritten += int64(n)
	if err == nil && l.active != nil && l.segWritten >= l.segBytes {
		err = l.rotateLocked()
	}
	if err != nil && l.unwaited && l.lostErr == nil {
		l.lostFrom, l.lostErr = first, err
	}
	l.unwaited = false
	for _, ch := range l.waiters {
		ch <- err
	}
	l.waiters = l.waiters[:0]
	return err
}

// appendRecord appends rec's framed encoding (length/CRC header plus
// payload) to buf: the header bytes are reserved first and backfilled
// once the payload is serialized, so the whole record is built in one
// buffer with no intermediate payload allocation.
func appendRecord(buf []byte, rec Record) []byte {
	head := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.TxnID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Writes)))
	for _, u := range rec.Writes {
		buf = binary.LittleEndian.AppendUint64(buf, u.Key)
		buf = binary.LittleEndian.AppendUint64(buf, u.Ver)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(u.Fields)))
		for _, f := range u.Fields {
			buf = binary.LittleEndian.AppendUint64(buf, f)
		}
	}
	// Trailing idempotency key: written only when set, so logs from
	// clients that do not use idempotency stay byte-identical to the
	// original format. Non-commit kinds always write the key plus a
	// kind byte; the trailer stays unambiguous by length.
	if rec.Kind != RecordCommit {
		buf = binary.LittleEndian.AppendUint64(buf, rec.IdemKey)
		buf = append(buf, byte(rec.Kind))
	} else if rec.IdemKey != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, rec.IdemKey)
	}
	payload := buf[head+8:]
	binary.LittleEndian.PutUint32(buf[head:head+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[head+4:head+8], crc32.ChecksumIEEE(payload))
	return buf
}

// Replay scans records from r, calling apply for each intact record in
// order. It returns the number of applied records. A torn or corrupt
// tail terminates the scan without error (standard crash-recovery
// semantics); corruption mid-payload is detected by the checksum.
func Replay(r io.Reader, apply func(Record) error) (int, error) {
	applied := 0
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return applied, nil // clean or torn end
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > 1<<30 {
			return applied, nil // corrupt length: stop
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return applied, nil // torn record
		}
		if crc32.ChecksumIEEE(payload) != want {
			return applied, nil // corrupt record: stop
		}
		rec, err := decodePayload(payload)
		if err != nil {
			return applied, nil
		}
		if err := apply(rec); err != nil {
			return applied, fmt.Errorf("wal: apply: %w", err)
		}
		applied++
	}
}

func decodePayload(b []byte) (Record, error) {
	var rec Record
	if len(b) < 12 {
		return rec, errors.New("short payload")
	}
	rec.TxnID = int64(binary.LittleEndian.Uint64(b[0:8]))
	n := binary.LittleEndian.Uint32(b[8:12])
	off := 12
	rec.Writes = make([]Update, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < off+18 {
			return rec, errors.New("short write header")
		}
		var u Update
		u.Key = binary.LittleEndian.Uint64(b[off : off+8])
		u.Ver = binary.LittleEndian.Uint64(b[off+8 : off+16])
		nf := int(binary.LittleEndian.Uint16(b[off+16 : off+18]))
		off += 18
		if len(b) < off+8*nf {
			return rec, errors.New("short fields")
		}
		u.Fields = make([]uint64, nf)
		for j := 0; j < nf; j++ {
			u.Fields[j] = binary.LittleEndian.Uint64(b[off : off+8])
			off += 8
		}
		rec.Writes = append(rec.Writes, u)
	}
	switch rest := len(b) - off; {
	case rest >= 9:
		rec.IdemKey = binary.LittleEndian.Uint64(b[off : off+8])
		rec.Kind = RecordKind(b[off+8])
	case rest >= 8:
		rec.IdemKey = binary.LittleEndian.Uint64(b[off : off+8])
	}
	return rec, nil
}
