package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"tskd/internal/replica"
	"tskd/internal/wal"
)

// durability.go: the data directory layout. A one-shard runtime keeps
// its unit's wal-, ckpt- and dedup-<lsn>.dd files directly under the
// root: one shard has no 2PC, so there is no coordinator log and no boot
// record. With more shards, under the root:
//
//	<root>/coord/            the coordinator decision log (wal segments)
//	<root>/shard-00/         shard 0: wal-, ckpt- and dedup-<lsn>.dd files
//	<root>/shard-01/         shard 1 ...
//
// Each shard directory is laid out exactly as a one-shard root —
// written, checkpointed and restored by the same internal/durable code
// — plus prepare records in the log. Directories written before the
// layouts shared that code name their sidecars dedup-<lsn>.dedup;
// recovery still reads them. The coordinator directory holds only
// decision and boot records (no redo), so it stays tiny and is never
// checkpointed or truncated.

// Durability configures the sharded data directory.
type Durability struct {
	// Dir is the root data directory; required.
	Dir string
	// GroupWindow is each log's group-commit window for the records
	// logged one at a time: 2PC prepares and coordinator decisions
	// (default 2ms). A bundle's commits are flushed together by the
	// engine's barrier and do not wait on it.
	GroupWindow time.Duration
	// SegmentBytes rotates log segments at this size (default 64 MiB).
	SegmentBytes int64
	// CheckpointBytes checkpoints a shard once this much WAL accumulated
	// since its last checkpoint (default 4 MiB).
	CheckpointBytes int64
	// DedupWindow bounds each idempotency window (default 65536).
	DedupWindow int
	// NoSync skips fsync everywhere (tests only; crash safety is gone).
	NoSync bool
	// WrapSyncer, when set, decorates every shard log's fsync syncer —
	// on the initial segment and again after every rotation. Fault
	// injection only (the chaos harness stalls fsyncs through it);
	// ignored under NoSync. The coordinator log keeps its own syncer.
	WrapSyncer func(wal.Syncer) wal.Syncer
	// Replication, when set, ships every log in the directory — each
	// shard's WAL and the coordinator log — through this live shipper
	// to a backup (internal/replica). Open registers one stream per
	// directory (named by its relative path, "." for a one-shard root,
	// so the backup mirrors the layout) before opening the log for
	// appending, and stamps the shipper's fencing epoch on this
	// incarnation's boot record. The runtime does not own the shipper:
	// close it after Shutdown.
	Replication *replica.Shipper
	// FlushGate, when set, runs inside every log's flush path (each
	// shard's WAL and the coordinator log) before the flush can
	// succeed — the serving layer installs its arbiter lease check
	// here, so a deposed primary's flushes (and every client ack and
	// 2PC decision riding on them) fail instead of acknowledging work
	// its successor will never have.
	FlushGate wal.FlushGate
}

func (d *Durability) withDefaults() error {
	if d.Dir == "" {
		return errors.New("shard: Durability.Dir is required")
	}
	if d.GroupWindow <= 0 {
		d.GroupWindow = 2 * time.Millisecond
	}
	if d.SegmentBytes <= 0 {
		d.SegmentBytes = 64 << 20
	}
	if d.CheckpointBytes <= 0 {
		d.CheckpointBytes = 4 << 20
	}
	if d.DedupWindow <= 0 {
		d.DedupWindow = 65536
	}
	return nil
}

// shardName is shard i's directory relative to the root: the root
// itself when it is the only shard.
func shardName(shards, i int) string {
	if shards == 1 {
		return "."
	}
	return fmt.Sprintf("shard-%02d", i)
}

func shardDir(root string, shards, i int) string {
	return filepath.Join(root, shardName(shards, i))
}

func coordDir(root string) string { return filepath.Join(root, "coord") }
