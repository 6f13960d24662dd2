package wal

import (
	"io"

	"tskd/internal/storage"
	"tskd/internal/txn"
)

// ApplyRecord installs one record's redo images into db: each update
// applies only when its version is newer than the row's current
// version (rows are created as needed), which makes application
// idempotent and order-independent per key. Only RecordCommit records
// apply; prepares and coordinator records are protocol state, not
// redo — the sharded recovery path resolves prepares against the
// coordinator log and re-applies the committed ones itself.
func ApplyRecord(db *storage.DB, rec Record) {
	if rec.Kind != RecordCommit {
		return
	}
	for _, u := range rec.Writes {
		row := db.ResolveOrInsert(txn.Key(u.Key))
		if row == nil {
			continue // table unknown to this catalog
		}
		if storage.VerNumber(row.Ver.Load()) >= u.Ver {
			continue // already at or past this version
		}
		row.Install(&storage.Tuple{Fields: append([]uint64(nil), u.Fields...)})
		row.Ver.Store(u.Ver << 1) // version word: counter above the lock bit
	}
}

// Recover replays a log stream into db via ApplyRecord. Idempotent —
// recovering twice, or over a partially current database, converges to
// the same state.
func Recover(r io.Reader, db *storage.DB) (int, error) {
	return Replay(r, func(rec Record) error {
		ApplyRecord(db, rec)
		return nil
	})
}

// RecoverDir replays every segment under dir into db in LSN order,
// reporting each record to onRecord (nil to skip). It returns the next
// LSN — the StartLSN to reopen the directory at — and the number of
// records replayed. Startup recovery (durable.Restore) runs this over
// the checkpoint-restored database, then OpenDirs at the returned LSN.
func RecoverDir(dir string, db *storage.DB, onRecord func(lsn uint64, rec Record)) (next uint64, applied int, err error) {
	return ReplayDir(dir, func(lsn uint64, rec Record) error {
		ApplyRecord(db, rec)
		if onRecord != nil {
			onRecord(lsn, rec)
		}
		return nil
	})
}
