// Package durable is the crash-consistency kit shared by the unsharded
// server and every shard of the sharded runtime: the idempotency window,
// its checkpoint sidecar, the checkpointer, and the restore walk. A
// durable directory holds
//
//	wal-<lsn>.seg     redo log segments (internal/wal)
//	ckpt-<lsn>.ckpt   full-database checkpoints (internal/storage)
//	dedup-<lsn>.dd    idempotency-window sidecars
//
// where <lsn> is 16 hex digits. Between bundles, once enough log bytes
// have accumulated, the owning loop checkpoints: sidecar first, then the
// database image, both atomic, both named by the quiescent LSN; sealed
// segments fully below that LSN are then deleted and older generations
// removed. Restore inverts this: newest valid checkpoint, its sidecar,
// then the WAL tail.
package durable

import (
	"os"
	"path/filepath"

	"tskd/internal/storage"
	"tskd/internal/wal"
)

// Restored reports what Restore found and did. The unsharded server's
// recovery report is this struct; each shard's embeds it.
type Restored struct {
	// CheckpointLSN is the LSN of the restored checkpoint (0 = none).
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	// Replayed counts commit records applied from the WAL tail.
	Replayed int `json:"replayed"`
	// NextLSN is where the log resumes appending; never below
	// CheckpointLSN.
	NextLSN uint64 `json:"next_lsn"`
	// DedupRestored is the number of committed idempotency keys
	// recovered (sidecar + WAL tail).
	DedupRestored int `json:"dedup_restored"`
	// Segments is the number of WAL segment files found.
	Segments int `json:"segments"`
}

// Restore loads the durable state under dir (created if missing): the
// newest checkpoint whose image and sidecar both verify (older
// generations are fallbacks against torn or corrupt files), then the
// WAL tail replayed over it. Commit records are applied; every record,
// commit or not, is also reported to onRecord (nil to skip), which is
// how the sharded runtime parks 2PC prepares. base supplies the
// database when no checkpoint exists — the same initial store every
// incarnation starts from (nil, or a nil result: empty) — and is then
// mutated by replay. Restore never opens the log for appending.
//
// It returns the database, the report, and the committed idempotency
// keys (sidecar, then WAL tail), each once, oldest first.
func Restore(dir string, base func() *storage.DB, onRecord func(lsn uint64, rec wal.Record)) (*storage.DB, Restored, []uint64, error) {
	var r Restored
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, r, nil, err
	}
	ckpts, err := listByLSN(dir, "ckpt-", ".ckpt")
	if err != nil {
		return nil, r, nil, err
	}
	var db *storage.DB
	var keys []uint64
	for i := len(ckpts) - 1; i >= 0; i-- {
		lsn := ckpts[i]
		cdb, err := storage.ReadCheckpointFile(filepath.Join(dir, ckptName(lsn)))
		if err != nil {
			continue // torn or corrupt generation: fall back
		}
		ks, err := readSidecar(dir, lsn)
		if err != nil {
			continue
		}
		db, keys, r.CheckpointLSN = cdb, ks, lsn
		break
	}
	if db == nil && base != nil {
		db = base()
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
	next, _, err := wal.RecoverDir(dir, db, func(lsn uint64, rec wal.Record) {
		if rec.Kind == wal.RecordCommit {
			r.Replayed++
			if _, dup := seen[rec.IdemKey]; rec.IdemKey != 0 && !dup {
				seen[rec.IdemKey] = struct{}{}
				keys = append(keys, rec.IdemKey)
			}
		}
		if onRecord != nil {
			onRecord(lsn, rec)
		}
	})
	if err != nil {
		return nil, r, nil, err
	}
	// Every segment the checkpoint covers may have been truncated: resume
	// at the checkpoint's LSN so the numbering never moves backwards.
	r.NextLSN = max(next, r.CheckpointLSN)
	segs, err := wal.ListSegments(dir)
	if err != nil {
		return nil, r, nil, err
	}
	r.Segments, r.DedupRestored = len(segs), len(keys)
	return db, r, keys, nil
}

// Checkpointer checkpoints one durable directory once enough log has
// accumulated. It is owned by the loop that runs the directory's
// bundles, the only goroutine that can guarantee a quiescent store.
type Checkpointer struct {
	dir   string
	log   *wal.Log
	every int64 // log bytes between checkpoints
	sync  bool
	last  int64 // log.AppendedBytes() at the last checkpoint (or open)
}

// NewCheckpointer returns a checkpointer for dir, whose live log is log,
// that checkpoints every `every` appended bytes, fsyncing each file
// unless sync is false.
func NewCheckpointer(dir string, log *wal.Log, every int64, sync bool) *Checkpointer {
	return &Checkpointer{dir: dir, log: log, every: every, sync: sync, last: log.AppendedBytes()}
}

// Due reports whether enough log accumulated since the last successful
// checkpoint.
func (c *Checkpointer) Due() bool { return c.log.AppendedBytes()-c.last >= c.every }

// Checkpoint writes w's sidecar and db's image at the log's current
// LSN, truncates the sealed segments both cover, and deletes older
// generations. db must be quiescent. A failure loses nothing — the log
// still holds every commit — and leaves Due true, so the caller retries
// after its next bundle.
func (c *Checkpointer) Checkpoint(db *storage.DB, w *Window) (lsn uint64, truncated int, err error) {
	lsn = c.log.NextLSN()
	// Sidecar first: a crash between the two files leaves a sidecar
	// without its checkpoint, which Restore ignores (it walks
	// checkpoints, not sidecars).
	if err := writeSidecar(filepath.Join(c.dir, sidecarName(lsn, sidecarSuffix)), w.CommittedKeys(), c.sync); err != nil {
		return lsn, 0, err
	}
	if err := storage.WriteCheckpointFile(filepath.Join(c.dir, ckptName(lsn)), db, c.sync); err != nil {
		return lsn, 0, err
	}
	if truncated, err = c.log.TruncateSealed(lsn); err != nil {
		return lsn, truncated, err
	}
	// Older generations are now superseded; losing this cleanup to a
	// crash only wastes disk, so failures are ignored.
	for _, ps := range [][2]string{{"ckpt-", ".ckpt"}, {"dedup-", sidecarSuffix}, {"dedup-", legacySuffix}} {
		lsns, _ := listByLSN(c.dir, ps[0], ps[1])
		for _, old := range lsns {
			if old < lsn {
				os.Remove(filepath.Join(c.dir, ps[0]+lsnHex(old)+ps[1]))
			}
		}
	}
	c.last = c.log.AppendedBytes()
	return lsn, truncated, nil
}
