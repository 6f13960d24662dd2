package server

import (
	"errors"
	"time"

	"tskd/internal/arbiter"
	"tskd/internal/durable"
	"tskd/internal/replica"
	"tskd/internal/shard"
	"tskd/internal/storage"
	"tskd/internal/wal"
)

// durability.go: the serving layer's durability options. A durable
// server owns one data directory, written by its shard.Runtime: an
// unsharded server's is flat, in the layout of internal/durable (WAL
// segments, checkpoint images, dedup sidecars); a sharded one holds a
// directory of that layout per shard plus the coordinator log. The
// commit path appends every write set to the unit's WAL inside the
// engine (core.Options.WAL) without waiting, and the engine run ends
// with one barrier — one write, one fsync — over the whole bundle; the
// unit acknowledges the bundle's transactions only after that barrier
// returned, the write-ahead rule end to end at bundle granularity.
// Between bundles the unit checkpoints through durable.Checkpointer.
// Startup recovery runs in New, before the listener binds, so a
// connection is only ever accepted by a server whose state includes
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
	// CheckpointBytes takes a shard's checkpoint once this many WAL
	// bytes have accumulated since its last one (default 4 MiB).
	// Checkpoints run on the shard's loop between bundles, when the
	// store is quiescent.
	CheckpointBytes int64
	// DedupWindow is how many committed idempotency keys each shard
	// (and the 2PC coordinator) remembers (default 65536). A duplicate arriving after its key
	// was evicted re-executes; size the window to cover the client
	// retry horizon.
	DedupWindow int
	// NoSync skips every fsync (tests only: a crash of the OS can then
	// lose acknowledged commits; a crash of the process cannot).
	NoSync bool
	// WrapSyncer, when set, decorates every shard log's fsync syncer —
	// on the initial segment and again after every rotation. Fault
	// injection only (the chaos harness stalls fsyncs through it);
	// ignored under NoSync. A sharded server's coordinator log keeps its
	// own syncer.
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
// tests and tools use it to inspect an unsharded data directory
// read-only; New recovers through shard.Recover, which reads a
// one-shard directory the same way.
func Recover(dir string, base *storage.DB) (*storage.DB, RecoveryInfo, []uint64, error) {
	return durable.Restore(dir, func() *storage.DB { return base }, nil)
}

// shard translates d into the runtime's durability options; lease, when
// set, gates every log flush.
func (d *DurabilityOptions) shard(lease *arbiter.LeaseClient) *shard.Durability {
	if d == nil {
		return nil
	}
	sd := &shard.Durability{
		Dir:             d.Dir,
		GroupWindow:     d.GroupWindow,
		SegmentBytes:    d.SegmentBytes,
		CheckpointBytes: d.CheckpointBytes,
		DedupWindow:     d.DedupWindow,
		NoSync:          d.NoSync,
		WrapSyncer:      d.WrapSyncer,
		Replication:     d.Replication,
	}
	if lease != nil {
		// Fencing at the durability boundary: a flush (and every client
		// ack riding on it) fails unless the lease is still held at
		// flush time, so a deposed primary cannot acknowledge commits
		// even if a request slipped past the admission-time check.
		sd.FlushGate = lease.Check
	}
	return sd
}
