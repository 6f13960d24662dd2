package chaos

import (
	"bytes"

	"tskd/internal/cc"
	"tskd/internal/chaos/faultio"
	"tskd/internal/engine"
	"tskd/internal/history"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// rowState is one row's committed version and image.
type rowState struct {
	ver    uint64
	fields []uint64
}

// snapshotTable captures every row's version counter and image.
func snapshotTable(db *storage.DB, table uint16) map[uint64]rowState {
	out := make(map[uint64]rowState)
	db.Table(table).Range(func(r *storage.Row) bool {
		t := r.Load()
		out[r.Key.Row()] = rowState{
			ver:    storage.VerNumber(r.Ver.Load()),
			fields: append([]uint64(nil), t.Fields...),
		}
		return true
	})
	return out
}

func fieldsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// walFaultBundle is how many transactions runWALFaults hands the engine
// per run: each run ends in one durability barrier, so the workload
// crosses several and the injected fault splits it into acknowledged
// bundles before the fault and unacknowledged ones from it on.
const walFaultBundle = 50

// runWALFaults runs a contended workload, a bundle per engine run, with
// redo logging over a writer that dies at a seed-chosen byte offset
// (torn or clean), then "crashes" and recovers the log prefix into a
// fresh database. The invariants are the durability contract:
//
//   - no lost writes: every commit a barrier acknowledged is
//     at-or-below the recovered version of each row it wrote;
//   - no phantom writes: recovery never advances a row past the
//     in-memory final state, and where it reaches it, the images match
//     bit-for-bit;
//   - recovery is idempotent: replaying twice converges to the same
//     state.
func runWALFaults(seed int64) Report {
	plan := NewPlan(seed)
	var v violations
	cfg, w := engineWorkload(seed)
	db := cfg.BuildDB()
	rec := history.NewRecorder()
	proto, err := cc.New(plan.Protocol)
	if err != nil {
		v.addf("protocol: %v", err)
		return report("wal-faults", seed, plan.walSummary(), v)
	}

	var logBuf bytes.Buffer
	fw := &faultio.Writer{W: &logBuf, FailAfter: plan.WALFailAfter, Torn: plan.WALTorn}
	l := wal.New(fw, 0)

	// Track which commits lost durability to the injected log fault
	// (the hook runs on Run's goroutine: no lock).
	failed := make(map[int]bool)
	hooks := plan.EngineHooks()
	hooks.OnWALError = func(t *txn.Transaction, err error) { failed[t.ID] = true }

	var committed uint64
	for lo := 0; lo < len(w); lo += walFaultBundle {
		bundle := w[lo:min(lo+walFaultBundle, len(w))]
		m := engine.Run(w, []engine.Phase{engine.SpreadRoundRobin(bundle, plan.Workers)}, engine.Config{
			Workers: plan.Workers, Protocol: proto, DB: db, WAL: l,
			Recorder: rec, Hooks: hooks, Seed: seed,
		})
		committed += m.Committed
	}
	l.Close()
	if committed != uint64(len(w)) {
		v.addf("committed %d of %d", committed, len(w))
	}
	if plan.WALFailAfter >= 0 && !fw.Failed() && fw.Written() > plan.WALFailAfter {
		v.addf("fault writer passed %d bytes without firing at %d", fw.Written(), plan.WALFailAfter)
	}
	if plan.WALFailAfter < 0 && len(failed) > 0 {
		v.addf("healthy log reported %d append failures", len(failed))
	}

	// Crash: recover the log prefix into a freshly loaded database.
	recovered := cfg.BuildDB()
	if _, err := wal.Recover(bytes.NewReader(logBuf.Bytes()), recovered); err != nil {
		v.addf("recover: %v", err)
		return report("wal-faults", seed, plan.walSummary(), v)
	}
	final := snapshotTable(db, workload.YCSBTable)
	recov := snapshotTable(recovered, workload.YCSBTable)

	// No phantom writes: recovery never invents state.
	phantoms, diverged := 0, 0
	for key, rs := range recov {
		fs, ok := final[key]
		if !ok {
			phantoms++
			continue
		}
		if rs.ver > fs.ver {
			phantoms++
			continue
		}
		if rs.ver == fs.ver && !fieldsEqual(rs.fields, fs.fields) {
			diverged++
		}
	}
	if phantoms > 0 {
		v.addf("phantom writes: %d rows recovered past the committed state", phantoms)
	}
	if diverged > 0 {
		v.addf("lost updates: %d rows at the final version with differing images", diverged)
	}

	// No lost acked writes: every durably acknowledged commit is
	// covered by the recovered state.
	lost := 0
	for _, e := range rec.Events() {
		if len(e.Writes) == 0 || failed[e.TxnID] {
			continue
		}
		for _, wr := range e.Writes {
			if recov[wr.Key.Row()].ver < wr.Ver {
				lost++
				break
			}
		}
	}
	if lost > 0 {
		v.addf("lost writes: %d acked commits missing after recovery", lost)
	}

	// Idempotence: replaying the same log again changes nothing.
	if _, err := wal.Recover(bytes.NewReader(logBuf.Bytes()), recovered); err != nil {
		v.addf("re-recover: %v", err)
	}
	again := snapshotTable(recovered, workload.YCSBTable)
	changed := 0
	for key, rs := range again {
		prev := recov[key]
		if rs.ver != prev.ver || !fieldsEqual(rs.fields, prev.fields) {
			changed++
		}
	}
	if changed > 0 {
		v.addf("recovery not idempotent: %d rows changed on replay", changed)
	}

	if err := rec.Check(); err != nil {
		v.addf("serializability: %v", err)
	}
	return report("wal-faults", seed, plan.walSummary(), v)
}
