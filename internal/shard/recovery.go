package shard

import (
	"os"

	"tskd/internal/durable"
	"tskd/internal/storage"
	"tskd/internal/wal"
)

// recovery.go: replaying a data directory to a consistent cut. A
// one-shard root is its unit's directory and nothing else. With more
// shards, the coordinator log is scanned first — it yields the committed
// global-transaction set (presumed abort: absence means abort), the
// boot count (the next incarnation's gid epoch), and the cross-shard
// idempotency keys. Then each shard restores its newest valid
// checkpoint, replays its WAL tail applying commits and parking
// prepares, and finally resolves every parked prepare against the
// committed set. Nothing accepts traffic until every shard is
// resolved: there are no in-doubt transactions after Recover returns.

// ShardRecovery reports what recovery found in one shard's directory.
type ShardRecovery struct {
	Shard int `json:"shard"`
	durable.Restored
	// Prepares counts prepare records found in the tail; each resolved
	// to committed (decision found) or aborted (presumed).
	Prepares          int `json:"prepares"`
	ResolvedCommitted int `json:"resolved_committed"`
	ResolvedAborted   int `json:"resolved_aborted"`
}

// RecoveryInfo reports a full sharded recovery.
type RecoveryInfo struct {
	Shards []ShardRecovery `json:"shards"`
	// CoordDecisions counts commit decisions in the coordinator log.
	CoordDecisions int    `json:"coord_decisions"`
	CoordNextLSN   uint64 `json:"coord_next_lsn"`
	// Boots counts boot records: prior incarnations of this directory.
	Boots int `json:"boots"`
}

// RecoverState is the result of recovering a sharded data directory.
type RecoverState struct {
	// DBs are the recovered per-shard stores.
	DBs  []*storage.DB
	Info RecoveryInfo
	// ShardKeys are each shard's committed idempotency keys, oldest
	// first; CrossKeys the coordinator window's, from decision records.
	ShardKeys [][]uint64
	CrossKeys []uint64
	// Committed is the decided-commit gid set (exposed for audits).
	Committed map[uint64]struct{}
}

// Recover replays the sharded data directory under root to a
// consistent cut and returns the recovered state. base seeds shard i's
// database when it has no checkpoint — it must be the same initial
// store every incarnation (nil function entries are not allowed; an
// empty DB is fine). Read-only with respect to the directory: it never
// opens a log for appending, so tools and audits can inspect a
// directory without disturbing it, and running it twice returns
// identical results.
func Recover(root string, shards int, base func(i int) *storage.DB) (*RecoverState, error) {
	st := &RecoverState{
		DBs:       make([]*storage.DB, shards),
		ShardKeys: make([][]uint64, shards),
		Committed: make(map[uint64]struct{}),
	}
	st.Info.Shards = make([]ShardRecovery, shards)
	if shards > 1 {
		if err := st.replayCoord(root); err != nil {
			return nil, err
		}
	}

	// Pass 2: each shard, independently: checkpoint + WAL tail through
	// durable.Restore, with prepares parked for resolution.
	for i := 0; i < shards; i++ {
		pending := make(map[uint64][]wal.Update)
		var pendingOrder []uint64
		db, r, keys, err := durable.Restore(shardDir(root, shards, i), func() *storage.DB { return base(i) }, func(_ uint64, rec wal.Record) {
			if rec.Kind != wal.RecordPrepare {
				return
			}
			gid := uint64(rec.TxnID)
			if _, dup := pending[gid]; !dup {
				pendingOrder = append(pendingOrder, gid)
			}
			pending[gid] = rec.Writes
		})
		if err != nil {
			return nil, err
		}
		info := &st.Info.Shards[i]
		*info = ShardRecovery{Shard: i, Restored: r}

		// Resolve: prepare + decision = commit; prepare alone = presumed
		// abort. Order-independent thanks to per-key version gating in
		// ApplyRecord, but resolve in log order anyway for determinism.
		info.Prepares = len(pendingOrder)
		for _, gid := range pendingOrder {
			if _, ok := st.Committed[gid]; ok {
				wal.ApplyRecord(db, wal.Record{TxnID: int64(gid), Writes: pending[gid]})
				info.ResolvedCommitted++
			} else {
				info.ResolvedAborted++
			}
		}
		st.DBs[i] = db
		st.ShardKeys[i] = keys
	}
	return st, nil
}

// replayCoord is pass 1: the coordinator log, where only decisions and
// boots live.
func (st *RecoverState) replayCoord(root string) error {
	if err := os.MkdirAll(coordDir(root), 0o755); err != nil {
		return err
	}
	crossSeen := make(map[uint64]struct{})
	next, _, err := wal.ReplayDir(coordDir(root), func(_ uint64, rec wal.Record) error {
		switch rec.Kind {
		case wal.RecordDecision:
			st.Committed[uint64(rec.TxnID)] = struct{}{}
			st.Info.CoordDecisions++
			if rec.IdemKey != 0 {
				if _, dup := crossSeen[rec.IdemKey]; !dup {
					crossSeen[rec.IdemKey] = struct{}{}
					st.CrossKeys = append(st.CrossKeys, rec.IdemKey)
				}
			}
		case wal.RecordBoot:
			st.Info.Boots++
		}
		return nil
	})
	st.Info.CoordNextLSN = next
	return err
}
