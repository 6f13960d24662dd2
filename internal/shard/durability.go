package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"tskd/internal/replica"
	"tskd/internal/wal"
)

// durability.go: the sharded data directory layout. Under the root:
//
//	<root>/coord/            the coordinator decision log (wal segments)
//	<root>/shard-00/         shard 0: wal-, ckpt- and dedup-<lsn>.dd files
//	<root>/shard-01/         shard 1 ...
//
// Each shard directory is exactly a single-shard server's data
// directory — written, checkpointed and restored by the same
// internal/durable code — plus prepare records in the log. Directories
// written before the two stacks shared that code name their sidecars
// dedup-<lsn>.dedup; recovery still reads them. The coordinator
// directory holds only decision and boot records (no redo), so it stays
// tiny and is never checkpointed or truncated.

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
	// Replication, when set, ships every log in the directory — each
	// shard's WAL and the coordinator log — through this live shipper
	// to a backup (internal/replica). Open registers one stream per
	// directory (named by its relative path, so the backup mirrors the
	// layout) before opening the log for appending, and stamps the
	// shipper's fencing epoch on this incarnation's boot record. The
	// runtime does not own the shipper: close it after Shutdown.
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

func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%02d", i))
}

func coordDir(root string) string { return filepath.Join(root, "coord") }
