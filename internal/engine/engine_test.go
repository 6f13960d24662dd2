package engine

import (
	"runtime"
	"testing"
	"time"

	"tskd/internal/cc"
	"tskd/internal/estimator"
	"tskd/internal/history"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

func ycsbBundle(seed int64, txns int) (*storage.DB, txn.Workload) {
	c := workload.YCSB{Records: 500, Theta: 0.9, Txns: txns, OpsPerTxn: 8, ReadRatio: 0.5, RMW: true, Seed: seed}
	return c.BuildDB(), c.Generate()
}

// concurrentProcs raises GOMAXPROCS to at least n until the test ends.
// At OpTime == 0 a worker runs its operations without yielding, so on a
// host with fewer CPUs than workers only OS threads, one per P,
// interleave the workers mid-transaction.
func concurrentProcs(t *testing.T, n int) {
	if old := runtime.GOMAXPROCS(0); old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

func TestRunCommitsAllUnderEveryProtocol(t *testing.T) {
	concurrentProcs(t, 4)
	for _, name := range cc.Names() {
		t.Run(name, func(t *testing.T) {
			db, w := ycsbBundle(1, 400)
			proto, err := cc.New(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := history.NewRecorder()
			m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, Config{
				Workers: 4, Protocol: proto, DB: db, Recorder: rec, Seed: 1,
			})
			if m.Committed != 400 {
				t.Fatalf("committed %d of 400", m.Committed)
			}
			if rec.Len() != 400 {
				t.Fatalf("recorded %d commits", rec.Len())
			}
			if err := rec.Check(); err != nil {
				t.Fatalf("execution not serializable: %v", err)
			}
		})
	}
}

func TestRetriesCountedUnderContention(t *testing.T) {
	// Single hot row hammered by 8 workers under OCC: retries must
	// occur and all updates must land.
	db := storage.NewDB()
	tbl := db.CreateTable(0, "hot", 1)
	tbl.Insert(0)
	const n = 400
	w := make(txn.Workload, n)
	for i := range w {
		// Read the hot row, do some work, then update it: a real
		// vulnerability window for optimistic validation.
		w[i] = txn.New(i).R(txn.MakeKey(0, 0)).U(txn.MakeKey(0, 0), 1)
	}
	m := Run(w, []Phase{SpreadRoundRobin(w, 8)}, Config{
		Workers: 8, Protocol: cc.NewOCC(), DB: db, Seed: 2,
		OpTime: 20 * time.Microsecond,
	})
	if m.Committed != n {
		t.Fatalf("committed %d", m.Committed)
	}
	if got := tbl.Get(0).Field(0); got != n {
		t.Fatalf("hot counter = %d, want %d (lost updates)", got, n)
	}
	if m.Retries == 0 {
		t.Error("no retries under extreme contention is implausible")
	}
	if m.RetryPer100k() <= 0 {
		t.Error("RetryPer100k not positive")
	}
}

// TestRawSpeedHotKey runs 8 workers at OpTime == 0 on one hot row
// under the optimistic protocols: every read-modify-write must commit
// once, none may be lost, and the history must be serializable.
func TestRawSpeedHotKey(t *testing.T) {
	const workers, n = 8, 8000
	concurrentProcs(t, workers)
	for _, name := range []string{"OCC", "SILO", "TICTOC"} {
		t.Run(name, func(t *testing.T) {
			db := storage.NewDB()
			tbl := db.CreateTable(0, "hot", 1)
			tbl.Insert(0)
			w := make(txn.Workload, n)
			for i := range w {
				w[i] = txn.New(i).R(txn.MakeKey(0, 0)).U(txn.MakeKey(0, 0), 1)
			}
			proto, err := cc.New(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := history.NewRecorder()
			m := Run(w, []Phase{SpreadRoundRobin(w, workers)}, Config{
				Workers: workers, Protocol: proto, DB: db, Recorder: rec, Seed: 5,
			})
			if m.Committed != n || rec.Len() != n {
				t.Fatalf("committed %d, recorded %d, want %d", m.Committed, rec.Len(), n)
			}
			if got := tbl.Get(0).Field(0); got != n {
				t.Fatalf("hot counter = %d, want %d (lost updates)", got, n)
			}
			if err := rec.Check(); err != nil {
				t.Fatalf("execution not serializable: %v", err)
			}
			t.Logf("%d retries", m.Retries)
		})
	}
}

func TestTPCCConsistencyAfterRun(t *testing.T) {
	cfg := workload.TPCC{
		Warehouses: 4, CrossPct: 0.25, Txns: 600,
		Items: 100, CustomersPerDistrict: 30, InitOrders: 15, Seed: 3,
	}
	db, w := cfg.Build()
	rec := history.NewRecorder()
	m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, Config{
		Workers: 4, Protocol: cc.NewSilo(), DB: db, Recorder: rec, Seed: 3,
	})
	if m.Committed+m.UserAborts != 600 {
		t.Fatalf("committed %d + user aborts %d != 600", m.Committed, m.UserAborts)
	}
	// ~1% of NewOrders (~45% of the mix) roll back per the spec.
	if m.UserAborts > 30 {
		t.Errorf("implausible user abort count %d", m.UserAborts)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("not serializable: %v", err)
	}
	if err := workload.CheckTPCC(db, cfg); err != nil {
		t.Error(err)
	}
}

func TestPhasesRunInOrder(t *testing.T) {
	// Phase 2 must observe phase 1's effects: phase 1 sets a flag row,
	// phase 2 reads and increments conditioned on it — since our ops
	// are unconditional, instead check ordering via version counts.
	db := storage.NewDB()
	tbl := db.CreateTable(0, "t", 1)
	tbl.Insert(0)
	w := txn.Workload{
		txn.New(0).U(txn.MakeKey(0, 0), 10),
		txn.New(1).U(txn.MakeKey(0, 0), 100),
	}
	m := Run(w, []Phase{
		{PerThread: [][]*txn.Transaction{{w[0]}}},
		{PerThread: [][]*txn.Transaction{{w[1]}}},
	}, Config{Workers: 2, Protocol: cc.NewNoWait(), DB: db, Seed: 1})
	if m.Committed != 2 {
		t.Fatalf("committed %d", m.Committed)
	}
	if tbl.Get(0).Field(0) != 110 {
		t.Errorf("value = %d", tbl.Get(0).Field(0))
	}
}

func TestMinRuntimeEnforced(t *testing.T) {
	db := storage.NewDB()
	db.CreateTable(0, "t", 1).Insert(0)
	tx := txn.New(0).R(txn.MakeKey(0, 0))
	tx.MinRuntime = 20 * time.Millisecond
	m := Run(txn.Workload{tx}, []Phase{SpreadRoundRobin(txn.Workload{tx}, 1)},
		Config{Workers: 1, Protocol: cc.NewSilo(), DB: db})
	if m.Elapsed < 20*time.Millisecond {
		t.Errorf("elapsed %v below the 20ms runtime lower bound", m.Elapsed)
	}
}

func TestIODelayEnforced(t *testing.T) {
	db := storage.NewDB()
	db.CreateTable(0, "t", 1).Insert(0)
	tx := txn.New(0).R(txn.MakeKey(0, 0))
	tx.IODelay = 15 * time.Millisecond
	m := Run(txn.Workload{tx}, []Phase{SpreadRoundRobin(txn.Workload{tx}, 1)},
		Config{Workers: 1, Protocol: cc.NewSilo(), DB: db})
	if m.Elapsed < 15*time.Millisecond {
		t.Errorf("elapsed %v below the 15ms IO delay", m.Elapsed)
	}
}

func TestDeferReducesOrKeepsCorrectness(t *testing.T) {
	db, w := ycsbBundle(5, 600)
	rec := history.NewRecorder()
	m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, Config{
		Workers: 4, Protocol: cc.NewOCC(), DB: db,
		Defer: DefaultDefer(), Recorder: rec, Seed: 5,
	})
	if m.Committed != 600 {
		t.Fatalf("committed %d", m.Committed)
	}
	if err := rec.Check(); err != nil {
		t.Fatalf("not serializable with TsDEFER: %v", err)
	}
	t.Logf("defers=%d retries=%d contended=%d", m.Defers, m.Retries, m.Contended)
}

func TestDeferAlphaMasking(t *testing.T) {
	db, w := ycsbBundle(6, 300)
	d := DefaultDefer()
	d.Alpha = 0.5
	m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, Config{
		Workers: 4, Protocol: cc.NewOCC(), DB: db, Defer: d, Seed: 6,
	})
	if m.Committed != 300 {
		t.Fatalf("committed %d", m.Committed)
	}
}

func TestCostSinkLearns(t *testing.T) {
	db, w := ycsbBundle(7, 100)
	h := estimator.NewHistory()
	Run(w, []Phase{SpreadRoundRobin(w, 2)}, Config{
		Workers: 2, Protocol: cc.NewSilo(), DB: db, CostSink: h, Seed: 7,
	})
	if h.Len() == 0 {
		t.Error("history estimator learned nothing")
	}
	est := h.Estimate(&txn.Transaction{Template: "YCSB-A"})
	if est <= 0 {
		t.Errorf("estimate = %v", est)
	}
}

func TestMoreListsThanWorkersFolded(t *testing.T) {
	db := storage.NewDB()
	tbl := db.CreateTable(0, "t", 1)
	tbl.Insert(0)
	w := make(txn.Workload, 8)
	per := make([][]*txn.Transaction, 8)
	for i := range w {
		w[i] = txn.New(i).U(txn.MakeKey(0, 0), 1)
		per[i] = []*txn.Transaction{w[i]}
	}
	m := Run(w, []Phase{{PerThread: per}}, Config{
		Workers: 2, Protocol: cc.NewNoWait(), DB: db, Seed: 1,
	})
	if m.Committed != 8 {
		t.Fatalf("committed %d of 8", m.Committed)
	}
	if tbl.Get(0).Field(0) != 8 {
		t.Error("folded lists lost transactions")
	}
}

func TestSpreadRoundRobin(t *testing.T) {
	w := make([]*txn.Transaction, 7)
	for i := range w {
		w[i] = txn.New(i)
	}
	p := SpreadRoundRobin(w, 3)
	if len(p.PerThread) != 3 {
		t.Fatal("wrong thread count")
	}
	if len(p.PerThread[0]) != 3 || len(p.PerThread[1]) != 2 || len(p.PerThread[2]) != 2 {
		t.Errorf("deal = %d/%d/%d", len(p.PerThread[0]), len(p.PerThread[1]), len(p.PerThread[2]))
	}
	if p.PerThread[0][1].ID != 3 {
		t.Error("order not round-robin")
	}
}

func TestMetricsMath(t *testing.T) {
	m := Metrics{Committed: 50_000, Retries: 5_000, Elapsed: 2 * time.Second}
	if m.Throughput() != 25_000 {
		t.Errorf("Throughput = %v", m.Throughput())
	}
	if m.RetryPer100k() != 10_000 {
		t.Errorf("RetryPer100k = %v", m.RetryPer100k())
	}
	var z Metrics
	if z.Throughput() != 0 || z.RetryPer100k() != 0 {
		t.Error("zero metrics not zero")
	}
	a := Metrics{Committed: 1, Retries: 2, Defers: 3, Contended: 4, Elapsed: time.Second}
	a.Add(Metrics{Committed: 10, Retries: 20, Defers: 30, Contended: 40, Elapsed: time.Second})
	if a.Committed != 11 || a.Retries != 22 || a.Defers != 33 || a.Contended != 44 || a.Elapsed != 2*time.Second {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestInsertsCreateRows(t *testing.T) {
	db := storage.NewDB()
	tbl := db.CreateTable(0, "t", 2)
	w := txn.Workload{txn.New(0).IF(txn.MakeKey(0, 99), 1, 42)}
	m := Run(w, []Phase{SpreadRoundRobin(w, 1)}, Config{
		Workers: 1, Protocol: cc.NewSilo(), DB: db,
	})
	if m.Committed != 1 {
		t.Fatal("insert txn did not commit")
	}
	r := tbl.Get(99)
	if r == nil || r.Field(1) != 42 {
		t.Error("insert did not create/initialize the row")
	}
}

func TestUnknownTableIgnored(t *testing.T) {
	db := storage.NewDB()
	w := txn.Workload{txn.New(0).R(txn.MakeKey(42, 1))}
	m := Run(w, []Phase{SpreadRoundRobin(w, 1)}, Config{
		Workers: 1, Protocol: cc.NewSilo(), DB: db,
	})
	if m.Committed != 1 {
		t.Error("transaction over unknown table did not commit as no-op")
	}
}

func TestPerTemplateMetrics(t *testing.T) {
	cfg := workload.TPCC{
		Warehouses: 4, CrossPct: 0.25, Txns: 500,
		Items: 100, CustomersPerDistrict: 30, InitOrders: 15, Seed: 8,
	}
	db, w := cfg.Build()
	m := Run(w, []Phase{SpreadRoundRobin(w, 4)}, Config{
		Workers: 4, Protocol: cc.NewSilo(), DB: db, Seed: 8,
	})
	if len(m.PerTemplate) < 4 {
		t.Fatalf("templates tracked: %v", m.PerTemplate)
	}
	var total uint64
	for name, tm := range m.PerTemplate {
		if tm.Committed == 0 {
			t.Errorf("template %s committed 0", name)
		}
		total += tm.Committed
	}
	if total != m.Committed {
		t.Errorf("per-template sum %d != committed %d", total, m.Committed)
	}
	// The mix: NewOrder should dominate.
	if m.PerTemplate["NewOrder"].Committed < m.PerTemplate["Delivery"].Committed {
		t.Error("NewOrder should outnumber Delivery")
	}
}
