package chaos

import (
	"reflect"
	"runtime"
	"testing"

	"tskd/internal/history"
	"tskd/internal/txn"
)

// TestScenariosPassAndReplay runs every registered scenario twice on a
// couple of seeds: the verdicts must pass (no real bugs under fault
// injection) and must be deeply equal across the two runs (the
// determinism contract the CLI's -check-repro enforces over 20 seeds in
// CI).
func TestScenariosPassAndReplay(t *testing.T) {
	concurrentProcs(t, maxPlanWorkers)
	for _, sc := range Scenarios() {
		for _, seed := range []int64{3, 11} {
			r1 := sc.Run(seed)
			r2 := sc.Run(seed)
			if !r1.Pass {
				t.Errorf("%s seed %d: %v", sc.Name, seed, r1.Violations)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("%s seed %d: verdict not reproducible:\n  %+v\n  %+v", sc.Name, seed, r1, r2)
			}
		}
	}
}

// maxPlanWorkers is the largest engine worker count a plan draws.
const maxPlanWorkers = 8

// concurrentProcs raises GOMAXPROCS to at least n until the test ends.
// The engine runs the scenarios' operations without yielding, so on a
// host with fewer CPUs than workers only OS threads, one per P,
// interleave the workers mid-transaction.
func concurrentProcs(t *testing.T, n int) {
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// TestPlanIsPureFunctionOfSeed pins the schedule-derivation contract.
func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		if a, b := NewPlan(seed), NewPlan(seed); a != b {
			t.Fatalf("seed %d: NewPlan not deterministic: %+v vs %+v", seed, a, b)
		}
	}
	if NewPlan(1) == NewPlan(2) {
		t.Error("distinct seeds produced identical plans")
	}
}

// TestSiteHashStability pins site-hash behaviour: stable across calls,
// sensitive to every input, and independent of evaluation order (there
// is no hidden stream state).
func TestSiteHashStability(t *testing.T) {
	a := site(1, PointWorkerStall, 7, 3)
	for i := 0; i < 3; i++ {
		if site(1, PointWorkerStall, 7, 3) != a {
			t.Fatal("site hash is not a pure function")
		}
	}
	if site(2, PointWorkerStall, 7, 3) == a {
		t.Error("seed does not perturb the hash")
	}
	if site(1, PointAccessLatency, 7, 3) == a {
		t.Error("fault point does not perturb the hash")
	}
	if site(1, PointWorkerStall, 7, 4) == a {
		t.Error("site key does not perturb the hash")
	}
	// Interleaving independence: evaluating other sites in between must
	// not change this site's decision.
	_ = site(1, PointWorkerStall, 99, 1)
	if site(1, PointWorkerStall, 7, 3) != a {
		t.Fatal("site hash depends on evaluation history")
	}
}

// TestCheckExactlyOnce exercises the lost/duplicate-commit detector on
// hand-built histories.
func TestCheckExactlyOnce(t *testing.T) {
	ev := func(id int) history.Event { return history.Event{TxnID: id} }
	var ok violations
	checkExactlyOnce(&ok, []history.Event{ev(0), ev(2), ev(1)}, 3)
	if len(ok) != 0 {
		t.Errorf("clean history flagged: %v", ok)
	}
	var lost violations
	checkExactlyOnce(&lost, []history.Event{ev(0), ev(2)}, 3)
	if len(lost) == 0 {
		t.Error("lost commit not flagged")
	}
	var dup violations
	checkExactlyOnce(&dup, []history.Event{ev(0), ev(1), ev(1), ev(2)}, 3)
	if len(dup) == 0 {
		t.Error("double commit not flagged")
	}
	var unknown violations
	checkExactlyOnce(&unknown, []history.Event{ev(0), ev(1), ev(7)}, 2)
	if len(unknown) == 0 {
		t.Error("out-of-range commit not flagged")
	}
}

// TestCheckerCatchesLostUpdate feeds the serializability checker the
// canonical lost-update history (both transactions read version 1,
// both install over it) and requires a violation — the same anomaly
// class the chaosbug planted protocol produces at scale.
func TestCheckerCatchesLostUpdate(t *testing.T) {
	k := txn.MakeKey(1, 42)
	events := []history.Event{
		{TxnID: 0, Reads: []history.Obs{{Key: k, Ver: 1}}, Writes: []history.Obs{{Key: k, Ver: 2}}},
		{TxnID: 1, Reads: []history.Obs{{Key: k, Ver: 1}}, Writes: []history.Obs{{Key: k, Ver: 3}}},
	}
	if err := history.CheckEvents(events); err == nil {
		t.Fatal("lost-update history passed the checker")
	}
}

// TestFindUnknown pins Find's miss behaviour for the CLI.
func TestFindUnknown(t *testing.T) {
	if Find("no-such-scenario") != nil {
		t.Error("Find invented a scenario")
	}
	if s := Find("wal-faults"); s == nil || s.Name != "wal-faults" {
		t.Error("Find missed a registered scenario")
	}
}
