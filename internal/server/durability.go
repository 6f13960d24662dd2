package server

import (
	"errors"
	"time"

	"tskd/internal/durable"
	"tskd/internal/overload"
	"tskd/internal/replica"
	"tskd/internal/storage"
	"tskd/internal/wal"
)

// durability.go: the serving layer's crash-consistency wiring. A
// durable server owns one data directory in the layout of
// internal/durable (WAL segments, checkpoint images, dedup sidecars).
// The commit path appends every write set to the WAL inside the engine
// (core.Options.WAL) without waiting, and the engine run ends with one
// barrier — one write, one fsync — over the whole bundle; the bundler
// acknowledges the bundle's transactions only after that barrier
// returned, the write-ahead rule end to end at bundle granularity.
// Between bundles the bundler checkpoints through durable.Checkpointer.
// Startup recovery (durable.Restore) runs before the listener binds, so
// a connection is only ever accepted by a server whose state includes
// every commit it ever acknowledged.

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
type RecoveryInfo = durable.Restored

// Recover loads the durable state under dir with durable.Restore:
// newest valid checkpoint, its sidecar, then the WAL tail. base seeds
// the database when no checkpoint exists — the same initial store the
// server was first started with (nil: empty) — and is mutated by replay
// in that case.
//
// It returns the recovered database, what happened, and the committed
// idempotency keys, and never opens the log for appending — chaos
// tests and tools use it to inspect a data directory read-only; the
// server wires the same result into a live log via openDurable.
func Recover(dir string, base *storage.DB) (*storage.DB, RecoveryInfo, []uint64, error) {
	return durable.Restore(dir, func() *storage.DB { return base }, nil)
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
	s.dedup = durable.NewWindow(d.DedupWindow)
	s.dedup.Restore(keys...)
	s.ckpt = durable.NewCheckpointer(d.Dir, log, d.CheckpointBytes, !d.NoSync)
	return nil
}

// maybeCheckpoint runs on the bundler between bundles — the only
// moment the store is guaranteed quiescent and the durable LSN
// boundary well-defined — and checkpoints once enough log has
// accumulated since the last one.
func (s *Server) maybeCheckpoint() {
	if s.ckpt == nil || !s.ckpt.Due() {
		return
	}
	lsn, removed, err := s.ckpt.Checkpoint(s.cfg.DB, s.dedup)
	s.count(func(st *Stats) {
		if err != nil {
			st.CheckpointErrors++ // retried after the next bundle
			return
		}
		st.Checkpoints++
		st.LastCheckpointLSN = lsn
		st.TruncatedSegments += uint64(removed)
	})
}
