package core

import (
	"testing"
	"time"

	"tskd/internal/clock"
	"tskd/internal/conflict"
	"tskd/internal/engine"
	"tskd/internal/history"
	"tskd/internal/partition"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

func smallYCSB(seed int64) (*storage.DB, txn.Workload) {
	c := workload.YCSB{Records: 400, Theta: 0.9, Txns: 400, OpsPerTxn: 8, ReadRatio: 0.5, RMW: true, Seed: seed}
	return c.BuildDB(), c.Generate()
}

func opts() Options {
	return Options{Workers: 4, Protocol: "OCC", Seed: 1}
}

func TestRunBaselineStrife(t *testing.T) {
	db, w := smallYCSB(1)
	rec := history.NewRecorder()
	o := opts()
	o.Recorder = rec
	r, err := RunBaseline(db, w, partition.NewStrife(1), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 400 {
		t.Fatalf("committed %d", r.Committed)
	}
	if r.System != "STRIFE" {
		t.Errorf("System = %q", r.System)
	}
	if r.PartitionTime <= 0 {
		t.Error("partition time not measured")
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("baseline not serializable: %v", err)
	}
}

func TestRunTSKDOverEachPartitioner(t *testing.T) {
	cases := []struct {
		p    partition.Partitioner
		name string
	}{
		{partition.NewStrife(1), "TSKD[S]"},
		{partition.NewSchism(1), "TSKD[C]"},
		{partition.NewHorticulture(), "TSKD[H]"},
		{nil, "TSKD[0]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, w := smallYCSB(2)
			rec := history.NewRecorder()
			o := opts()
			o.Recorder = rec
			r, err := RunTSKD(db, w, c.p, o)
			if err != nil {
				t.Fatal(err)
			}
			if r.Committed != 400 {
				t.Fatalf("committed %d", r.Committed)
			}
			if r.System != c.name {
				t.Errorf("System = %q, want %q", r.System, c.name)
			}
			if r.SchedStats == nil {
				t.Fatal("no scheduling stats")
			}
			if r.SchedTime <= 0 {
				t.Error("sched time not measured")
			}
			if err := rec.Check(); err != nil {
				t.Fatalf("TSKD run not serializable: %v", err)
			}
		})
	}
}

func TestTSKDSchedulesResidual(t *testing.T) {
	db, w := smallYCSB(3)
	r, err := RunTSKD(db, w, partition.NewStrife(3), opts())
	if err != nil {
		t.Fatal(err)
	}
	if r.SchedStats.InputResidual > 0 && r.SchedStats.Merged == 0 {
		t.Error("TSgen merged nothing from a non-empty residual")
	}
	if r.SchedStats.ScheduledPct() < 0 || r.SchedStats.ScheduledPct() > 100 {
		t.Errorf("s%% = %v", r.SchedStats.ScheduledPct())
	}
}

func TestAblations(t *testing.T) {
	db, w := smallYCSB(4)
	p := partition.NewStrife(4)
	rp, err := RunTsParOnly(db, w, p, opts())
	if err != nil {
		t.Fatal(err)
	}
	if rp.Committed != 400 || rp.Defers != 0 {
		t.Errorf("TsPAR-only: committed=%d defers=%d", rp.Committed, rp.Defers)
	}
	db2, w2 := smallYCSB(4)
	rd, err := RunTsDeferOnly(db2, w2, p, opts())
	if err != nil {
		t.Fatal(err)
	}
	if rd.Committed != 400 {
		t.Errorf("TsDEFER-only committed %d", rd.Committed)
	}
	if rd.SchedStats != nil {
		t.Error("TsDEFER-only must not schedule")
	}
}

func TestRunCCAndTSKDCC(t *testing.T) {
	db, w := smallYCSB(5)
	rec := history.NewRecorder()
	o := opts()
	o.Recorder = rec
	r, err := RunCC(db, w, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 400 || r.System != "DBCC" {
		t.Errorf("DBCC: %+v", r)
	}
	if err := rec.Check(); err != nil {
		t.Fatal(err)
	}

	db2, w2 := smallYCSB(5)
	rec2 := history.NewRecorder()
	o2 := opts()
	o2.Recorder = rec2
	r2, err := RunTSKDCC(db2, w2, o2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Committed != 400 || r2.System != "TSKD[CC]" {
		t.Errorf("TSKD[CC]: %+v", r2)
	}
	if err := rec2.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestBadProtocolName(t *testing.T) {
	db, w := smallYCSB(6)
	o := opts()
	o.Protocol = "BOGUS"
	if _, err := RunCC(db, w, o); err == nil {
		t.Error("bogus protocol accepted")
	}
	if _, err := RunTSKD(db, w, nil, o); err == nil {
		t.Error("bogus protocol accepted by RunTSKD")
	}
	if _, err := RunBaseline(db, w, partition.NewStrife(1), o); err == nil {
		t.Error("bogus protocol accepted by RunBaseline")
	}
}

func TestOverheadR(t *testing.T) {
	r := Result{PartitionTime: 100 * time.Millisecond, SchedTime: 4 * time.Millisecond}
	if got := r.OverheadR(); got != 0.04 {
		t.Errorf("OverheadR = %v", got)
	}
	if (Result{}).OverheadR() != 0 {
		t.Error("zero partition time should report 0")
	}
}

// Failure injection: deliberately wrong estimates must not break
// serializability — CC plus TsDEFER backstop estimate error (Section 3).
func TestWrongEstimatesStaySerializable(t *testing.T) {
	db, w := smallYCSB(7)
	rec := history.NewRecorder()
	o := opts()
	o.Recorder = rec
	o.Estimator = constantEstimator(1) // every txn "costs the same": wrong
	r, err := RunTSKD(db, w, partition.NewStrife(7), o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 400 {
		t.Fatalf("committed %d", r.Committed)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("wrong estimates broke serializability: %v", err)
	}
}

type constantEstimator float64

func (c constantEstimator) Estimate(*txn.Transaction) clock.Units {
	return clock.Units(c)
}

func TestCustomDeferKnobs(t *testing.T) {
	db, w := smallYCSB(8)
	o := opts()
	o.Defer = &engine.DeferConfig{Lookups: 5, DeferP: 1.0, Horizon: 2, Alpha: 0.7, MaxDefers: 3}
	r, err := RunTSKDCC(db, w, o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 400 {
		t.Fatalf("committed %d", r.Committed)
	}
}

// Remark (3) of Section 3: TSKD is not fixed to serializability — it
// observes conflicts at the isolation level the system upholds. Under
// snapshot isolation only write-write pairs conflict, so the conflict
// graph is sparser and TSgen schedules at least as much of the
// residual as under serializability.
func TestSnapshotIsolationSchedulesMore(t *testing.T) {
	c := workload.YCSB{Records: 400, Theta: 0.9, Txns: 400, OpsPerTxn: 8,
		ReadRatio: 0.8, RMW: false, Seed: 12} // read-heavy: SI prunes most edges
	run := func(iso conflict.Isolation) *Result {
		db := c.BuildDB()
		w := c.Generate()
		o := opts()
		o.Isolation = iso
		r, err := RunTSKD(db, w, partition.NewStrife(12), o)
		if err != nil {
			t.Fatal(err)
		}
		return &r
	}
	ser := run(conflict.Serializability)
	si := run(conflict.SnapshotIsolation)
	if si.SchedStats.ScheduledPct() < ser.SchedStats.ScheduledPct() {
		t.Errorf("SI scheduled %.1f%% < serializability %.1f%% — sparser graph should schedule more",
			si.SchedStats.ScheduledPct(), ser.SchedStats.ScheduledPct())
	}
	if si.Committed != 400 || ser.Committed != 400 {
		t.Error("not all committed")
	}
	t.Logf("s%%: serializability %.1f, snapshot isolation %.1f",
		ser.SchedStats.ScheduledPct(), si.SchedStats.ScheduledPct())
}

func TestRunTSKDNoCC(t *testing.T) {
	db, w := smallYCSB(14)
	r, err := RunTSKDNoCC(db, w, partition.NewStrife(14), opts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed != 400 {
		t.Fatalf("committed %d", r.Committed)
	}
	if r.System != "TSKD-noCC" || r.SchedStats == nil {
		t.Errorf("result: %+v", r.System)
	}
	// From scratch variant.
	db2, w2 := smallYCSB(14)
	r2, err := RunTSKDNoCC(db2, w2, nil, opts())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Committed != 400 {
		t.Fatalf("committed %d", r2.Committed)
	}
	// Bad protocol name still surfaces (residual phase needs it).
	o := opts()
	o.Protocol = "BOGUS"
	if _, err := RunTSKDNoCC(db, w, nil, o); err == nil {
		t.Error("bogus protocol accepted")
	}
}
