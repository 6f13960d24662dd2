package engine

import (
	"testing"

	"tskd/internal/cc"
	"tskd/internal/wal"
)

// BenchmarkPhaseLoop measures a full two-phase engine run over a YCSB
// bundle — the per-bundle cost the serving layer pays — reporting
// allocations per transaction (the engine's headline efficiency
// metric; the bundle runs 256 transactions per op). The "wal" case
// attaches a directory log without fsync: what redo logging adds to a
// bundle with the device factored out — one non-blocking append per
// writing commit and one barrier per run.
func BenchmarkPhaseLoop(b *testing.B) {
	for _, mode := range []string{"plain", "tsdefer", "wal"} {
		b.Run(mode, func(b *testing.B) {
			db, w := ycsbBundle(1, 256)
			phases := []Phase{SpreadRoundRobin(w[:128], 4), SpreadRoundRobin(w[128:], 4)}
			cfg := Config{Workers: 4, Protocol: cc.NewSilo(), DB: db, Seed: 1}
			switch mode {
			case "tsdefer":
				cfg.Defer = DefaultDefer()
			case "wal":
				l, err := wal.OpenDir(b.TempDir(), wal.DirOptions{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				cfg.WAL = l
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := Run(w, phases, cfg)
				if m.Committed != uint64(len(w)) {
					b.Fatalf("committed %d of %d", m.Committed, len(w))
				}
			}
		})
	}
}

// TestPhaseLoopAllocBudget gates the engine's steady-state allocation
// rate: a two-phase 256-transaction bundle must stay under 20 allocs
// per transaction (pre-overhaul it was ~59/txn, currently ~15). What
// remains is load-bearing: each committed write installs a freshly
// cloned tuple (published to lock-free readers, so never pooled) and
// each staged write composes an update closure; the per-phase worker
// scaffolding, byID/defer-count maps and redo-buffer churn are gone.
func TestPhaseLoopAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement loop")
	}
	db, w := ycsbBundle(1, 256)
	phases := []Phase{SpreadRoundRobin(w[:128], 4), SpreadRoundRobin(w[128:], 4)}
	cfg := Config{Workers: 4, Protocol: cc.NewSilo(), DB: db, Seed: 1}
	run := func() {
		if m := Run(w, phases, cfg); m.Committed != uint64(len(w)) {
			t.Fatalf("committed %d of %d", m.Committed, len(w))
		}
	}
	run() // warm protocol state
	perRun := testing.AllocsPerRun(20, run)
	perTxn := perRun / float64(len(w))
	t.Logf("phase loop: %.0f allocs/run, %.2f allocs/txn", perRun, perTxn)
	if perTxn > 20 {
		t.Errorf("phase loop allocs/txn = %.2f, budget 20", perTxn)
	}
}
