package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"tskd/internal/replica"
	"tskd/internal/wal"
)

// durability.go: the sharded data directory layout and its naming
// helpers. Under the root:
//
//	<root>/coord/            the coordinator decision log (wal segments)
//	<root>/shard-00/         shard 0: wal segments + ckpt-/dedup- sidecars
//	<root>/shard-01/         shard 1 ...
//
// Each shard directory is exactly a single-shard server's data
// directory — same segment format, same checkpoint image, same dedup
// sidecar — plus prepare records in the log. The coordinator directory
// holds only decision and boot records (no redo), so it stays tiny and
// is never checkpointed or truncated.

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

func lsnHex(lsn uint64) string { return fmt.Sprintf("%016x", lsn) }

func ckptName(lsn uint64) string { return "ckpt-" + lsnHex(lsn) + ".ckpt" }

func dedupName(lsn uint64) string { return "dedup-" + lsnHex(lsn) + ".dedup" }

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
