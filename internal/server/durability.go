package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tskd/internal/overload"
	"tskd/internal/replica"
	"tskd/internal/storage"
	"tskd/internal/wal"
)

// durability.go: the serving layer's crash-consistency machinery. A
// durable server owns a data directory holding
//
//	wal-<lsn>.seg     redo log segments (internal/wal)
//	ckpt-<lsn>.ckpt   full-database checkpoints (internal/storage)
//	dedup-<lsn>.dd    idempotency-window sidecars
//
// where <lsn> is 16 hex digits. The commit path appends every write
// set to the WAL inside the engine (core.Options.WAL) without waiting,
// and the engine run ends with one barrier — one write, one fsync —
// over the whole bundle; the bundler acknowledges the bundle's
// transactions only after that barrier returned, the write-ahead rule
// end to end at bundle granularity. Between bundles, once enough log
// bytes have accumulated, the bundler checkpoints: dedup sidecar first,
// then the database image, both atomic, both named by the quiescent
// LSN; sealed segments fully below that LSN are then deleted and older
// checkpoint generations removed. Startup recovery inverts this:
// newest valid checkpoint, its sidecar, then the WAL tail — all before
// the listener binds, so a connection is only ever accepted by a
// server whose state includes every commit it ever acknowledged.

// DurabilityOptions turn a Server durable.
type DurabilityOptions struct {
	// Dir is the data directory (created if missing); required.
	Dir string
	// GroupWindow is the WAL group-commit window for blocking appends
	// (default 2ms): in sharded mode it paces 2PC prepare and
	// coordinator decision records. Bundle commits do not wait on it:
	// they are flushed by one barrier at the end of their bundle.
	GroupWindow time.Duration
	// SegmentBytes rotates WAL segments (default wal.DefaultSegmentBytes).
	SegmentBytes int64
	// CheckpointBytes takes a checkpoint once this many WAL bytes have
	// accumulated since the last one (default 4 MiB). Checkpoints run
	// on the bundler between bundles, when the store is quiescent.
	CheckpointBytes int64
	// DedupWindow is how many committed idempotency keys the server
	// remembers (default 65536). A duplicate arriving after its key
	// was evicted re-executes; size the window to cover the client
	// retry horizon.
	DedupWindow int
	// NoSync skips every fsync (tests only: a crash of the OS can then
	// lose acknowledged commits; a crash of the process cannot).
	NoSync bool
	// WrapSyncer, when set, decorates the log's fsync syncer — on the
	// initial segment and again after every rotation. Fault injection
	// only (the chaos harness stalls fsyncs through it); ignored under
	// NoSync, and refused by New in sharded mode, where the shards open
	// their own logs and would not see it.
	WrapSyncer func(wal.Syncer) wal.Syncer
	// Replication, when set, makes this server a replicating primary:
	// every WAL flush is shipped through this live shipper to a backup
	// (internal/replica) after the local fsync, and in sync mode the
	// flush — and therefore the client ack — waits for the backup's
	// own fsync. The server does not own the shipper: close it after
	// Shutdown.
	Replication *replica.Shipper
}

func (d *DurabilityOptions) withDefaults() error {
	if d.Dir == "" {
		return errors.New("server: DurabilityOptions.Dir is required")
	}
	if d.GroupWindow <= 0 {
		d.GroupWindow = 2 * time.Millisecond
	}
	if d.SegmentBytes <= 0 {
		d.SegmentBytes = wal.DefaultSegmentBytes
	}
	if d.CheckpointBytes <= 0 {
		d.CheckpointBytes = 4 << 20
	}
	if d.DedupWindow <= 0 {
		d.DedupWindow = 65536
	}
	return nil
}

// RecoveryInfo reports what startup recovery found and did.
type RecoveryInfo struct {
	// CheckpointLSN is the LSN of the restored checkpoint (0 = none).
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// Replayed is the number of WAL records applied over it.
	Replayed int `json:"replayed"`
	// NextLSN is where the log resumes appending.
	NextLSN uint64 `json:"next_lsn"`
	// DedupRestored is the number of idempotency keys recovered
	// (sidecar + WAL tail).
	DedupRestored int `json:"dedup_restored"`
	// Segments is the number of WAL segment files found.
	Segments int `json:"segments"`
}

func lsnHex(lsn uint64) string { return fmt.Sprintf("%016x", lsn) }

func ckptName(lsn uint64) string { return "ckpt-" + lsnHex(lsn) + ".ckpt" }

var errCorruptDedup = errors.New("server: corrupt dedup sidecar")

// listByLSN returns the LSNs of files named <prefix><16 hex><suffix>
// under dir, ascending.
func listByLSN(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var lsns []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		lsn, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	return lsns, nil
}

// Recover loads the durable state under dir: the newest checkpoint
// whose image and dedup sidecar both verify (older generations are
// fallbacks against torn or corrupt files), then the WAL tail replayed
// over it. base seeds the database when no checkpoint exists — the
// same initial store the server was first started with (nil: empty).
// base is mutated by replay in that case.
//
// It returns the recovered database, what happened, and the committed
// idempotency keys, and never opens the log for appending — chaos
// tests and tools use it to inspect a data directory read-only; the
// server wires the same result into a live log via openDurable.
func Recover(dir string, base *storage.DB) (*storage.DB, RecoveryInfo, []uint64, error) {
	var info RecoveryInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, nil, err
	}

	db := base
	var keys []uint64
	ckpts, err := listByLSN(dir, "ckpt-", ".ckpt")
	if err != nil {
		return nil, info, nil, err
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		lsn := ckpts[i]
		cdb, cerr := storage.ReadCheckpointFile(filepath.Join(dir, ckptName(lsn)))
		if cerr != nil {
			continue // torn or corrupt generation: fall back
		}
		ckeys, derr := readDedupFile(filepath.Join(dir, dedupName(lsn)))
		if derr != nil {
			continue
		}
		db, keys, info.CheckpointLSN = cdb, ckeys, lsn
		break
	}
	if db == nil {
		db = storage.NewDB()
	}

	// The sidecar and the log overlap: the sidecar snapshots the whole
	// window, including keys whose records are still in untruncated
	// segments. Collect each key once, oldest first.
	seen := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		seen[k] = struct{}{}
	}
	next, applied, err := wal.RecoverDir(dir, db, func(_ uint64, rec wal.Record) {
		if rec.IdemKey == 0 {
			return
		}
		if _, dup := seen[rec.IdemKey]; dup {
			return
		}
		seen[rec.IdemKey] = struct{}{}
		keys = append(keys, rec.IdemKey)
	})
	if err != nil {
		return nil, info, nil, err
	}
	if next < info.CheckpointLSN {
		// Every segment the checkpoint covers was truncated: resume at
		// the checkpoint's LSN so the numbering never moves backwards.
		next = info.CheckpointLSN
	}
	info.Replayed = applied
	info.NextLSN = next
	info.DedupRestored = len(keys)
	segs, err := wal.ListSegments(dir)
	if err != nil {
		return nil, info, nil, err
	}
	info.Segments = len(segs)
	return db, info, keys, nil
}

// openDurable runs recovery and opens the log for appending, wiring
// the results into the server: s.cfg.DB becomes the recovered
// database, s.log the live WAL, s.dedup the restored window.
func (s *Server) openDurable() error {
	d := s.cfg.Durability
	db, info, keys, err := Recover(d.Dir, s.cfg.DB)
	if err != nil {
		return err
	}
	opts := wal.DirOptions{
		GroupWindow:  d.GroupWindow,
		SegmentBytes: d.SegmentBytes,
		StartLSN:     info.NextLSN,
		NoSync:       d.NoSync,
		WrapSyncer:   d.WrapSyncer,
	}
	if s.cfg.Lease != nil {
		// Fencing at the durability boundary: a flush (and every client
		// ack riding on it) fails unless the lease is still held at
		// flush time, so a deposed primary cannot acknowledge commits
		// even if a request slipped past the admission-time check.
		opts.FlushGate = s.cfg.Lease.Check
	}
	// Attach replication before the log opens for appending: Stream
	// snapshots every existing file (the catch-up copy), then live
	// flushes ship through the returned hook.
	if d.Replication != nil {
		s.replicaEpoch = d.Replication.Epoch()
		stream, serr := d.Replication.Stream(".", d.Dir)
		if serr != nil {
			return serr
		}
		opts.Shipper = stream
	} else if s.replicaEpoch, err = replica.ReadEpoch(d.Dir); err != nil {
		return err
	}
	log, err := wal.OpenDir(d.Dir, opts)
	if err != nil {
		return err
	}
	s.cfg.DB = db
	s.log = log
	if !s.cfg.Overload.DisableBreaker {
		s.breaker = overload.NewBreaker(overload.BreakerConfig{
			TripLatency: s.cfg.Overload.BreakerLatency,
			Cooldown:    s.cfg.Overload.BreakerCooldown,
			OnTransition: func(from, to overload.BreakerState) {
				// Runs with the breaker's mutex held, possibly inside
				// WAL flush completion: the event log is a leaf, so
				// this never deadlocks.
				s.events.Record(time.Now(), "breaker", from.String()+"->"+to.String())
			},
		})
		log.SetMonitor(s.breaker)
	}
	s.recovery = info
	s.dedup = newDedupWindow(d.DedupWindow)
	for _, k := range keys {
		s.dedup.restore(k)
	}
	s.lastCkptLSN = info.CheckpointLSN
	s.lastCkptBytes = log.AppendedBytes()
	return nil
}

// maybeCheckpoint runs on the bundler between bundles — the only
// moment the store is guaranteed quiescent and the durable LSN
// boundary well-defined — and checkpoints once enough log has
// accumulated since the last one.
func (s *Server) maybeCheckpoint() {
	if s.log == nil {
		return
	}
	if s.log.AppendedBytes()-s.lastCkptBytes < s.cfg.Durability.CheckpointBytes {
		return
	}
	if err := s.checkpoint(); err != nil {
		// A failed checkpoint loses nothing: the log still holds every
		// commit. Count it and retry after the next bundle.
		s.count(func(st *Stats) { st.CheckpointErrors++ })
	}
}

// checkpoint writes the sidecar + database image at the current LSN
// boundary, truncates covered WAL segments, and deletes superseded
// checkpoint generations.
func (s *Server) checkpoint() error {
	d := s.cfg.Durability
	lsn := s.log.NextLSN()
	sync := !d.NoSync
	// Sidecar first: a crash between the two files leaves a sidecar
	// without its checkpoint, which recovery ignores (it walks
	// checkpoints, not sidecars).
	if err := writeDedupFile(filepath.Join(d.Dir, dedupName(lsn)), s.dedup.committedKeys(), sync); err != nil {
		return err
	}
	if err := storage.WriteCheckpointFile(filepath.Join(d.Dir, ckptName(lsn)), s.cfg.DB, sync); err != nil {
		return err
	}
	removed, err := s.log.TruncateSealed(lsn)
	if err != nil {
		return err
	}
	// Older generations are now superseded; losing this cleanup to a
	// crash only wastes disk, so failures are ignored.
	for _, prefixSuffix := range [][2]string{{"ckpt-", ".ckpt"}, {"dedup-", ".dd"}} {
		lsns, err := listByLSN(d.Dir, prefixSuffix[0], prefixSuffix[1])
		if err != nil {
			continue
		}
		for _, old := range lsns {
			if old < lsn {
				os.Remove(filepath.Join(d.Dir, prefixSuffix[0]+lsnHex(old)+prefixSuffix[1]))
			}
		}
	}
	s.lastCkptLSN = lsn
	s.lastCkptBytes = s.log.AppendedBytes()
	s.count(func(st *Stats) {
		st.Checkpoints++
		st.LastCheckpointLSN = lsn
		st.TruncatedSegments += uint64(removed)
	})
	return nil
}
