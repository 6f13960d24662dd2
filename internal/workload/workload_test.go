package workload

import (
	"reflect"
	"testing"
	"time"

	"tskd/internal/conflict"
	"tskd/internal/txn"
)

func smallYCSB(seed int64) YCSB {
	return YCSB{Records: 1000, Theta: 0.8, Txns: 200, OpsPerTxn: 16, ReadRatio: 0.5, Seed: seed}
}

func smallTPCC(seed int64) TPCC {
	return TPCC{
		Warehouses: 4, CrossPct: 0.25, Txns: 300,
		Items: 100, CustomersPerDistrict: 30, InitOrders: 15, Seed: seed,
	}
}

func TestYCSBGenerate(t *testing.T) {
	c := smallYCSB(1)
	w := c.Generate()
	if len(w) != 200 {
		t.Fatalf("generated %d txns", len(w))
	}
	reads, writes := 0, 0
	for i, tx := range w {
		if tx.ID != i {
			t.Fatalf("IDs not dense: %d at %d", tx.ID, i)
		}
		if tx.Template != "YCSB-A" {
			t.Errorf("template %q", tx.Template)
		}
		if len(tx.Ops) != 16 {
			t.Errorf("txn %d has %d ops", i, len(tx.Ops))
		}
		seen := map[txn.Key]bool{}
		for _, op := range tx.Ops {
			if op.Key.Table() != YCSBTable {
				t.Fatalf("op outside usertable: %v", op.Key)
			}
			if op.Key.Row() >= 1000 {
				t.Fatalf("key out of range: %v", op.Key)
			}
			seen[op.Key] = true
			if op.Kind == txn.OpRead {
				reads++
			} else {
				writes++
			}
		}
		if len(seen) < 14 { // near-distinct keys
			t.Errorf("txn %d reuses keys heavily: %d distinct", i, len(seen))
		}
	}
	frac := float64(reads) / float64(reads+writes)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("read fraction = %.3f, want ≈ 0.5", frac)
	}
}

func TestYCSBDeterministic(t *testing.T) {
	a, b := smallYCSB(7).Generate(), smallYCSB(7).Generate()
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("same seed diverged")
		}
	}
	c := smallYCSB(8).Generate()
	same := true
	for i := range a {
		if a[i].String() != c[i].String() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestYCSBBuildDB(t *testing.T) {
	c := smallYCSB(1)
	db := c.BuildDB()
	tbl := db.Table(YCSBTable)
	if tbl == nil || tbl.Len() != 1000 {
		t.Fatalf("usertable rows = %v", tbl)
	}
	if tbl.Get(42).Field(0) != 42 {
		t.Error("row not initialized")
	}
}

func TestYCSBSkewIncreasesConflicts(t *testing.T) {
	lo := YCSB{Records: 5000, Theta: 0.7, Txns: 300, OpsPerTxn: 16, ReadRatio: 0.5, Seed: 3}.Generate()
	hi := YCSB{Records: 5000, Theta: 0.9, Txns: 300, OpsPerTxn: 16, ReadRatio: 0.5, Seed: 3}.Generate()
	gl := conflict.Build(lo, conflict.Serializability)
	gh := conflict.Build(hi, conflict.Serializability)
	if gh.Edges() <= gl.Edges() {
		t.Errorf("theta 0.9 edges %d not above theta 0.7 edges %d", gh.Edges(), gl.Edges())
	}
}

// θ = 0 draws keys uniformly — operation keys and scan start keys
// alike — so no row takes much more than its 1/Records share. θ > 0
// generation keeps its key stream: the first keys of a θ = 0.8 and a
// θ = 0.99 seed are pinned.
func TestYCSBThetaZeroIsUniform(t *testing.T) {
	const records = 1000
	hottestShare := func(c YCSB, kind txn.OpKind) float64 {
		counts := make(map[uint64]int)
		total, most := 0, 0
		for _, tx := range c.Generate() {
			for _, op := range tx.Ops {
				if op.Kind != kind {
					continue
				}
				counts[op.Key.Row()]++
				total++
				most = max(most, counts[op.Key.Row()])
			}
		}
		return float64(most) / float64(total)
	}
	const bound = 3.0 / records // uniform: hottest ≈ 2× 1/Records; θ = 0.8: ≈ 60×
	ops := YCSB{Records: records, Txns: 5000, OpsPerTxn: 4, ReadRatio: 1, Seed: 1}
	if got := hottestShare(ops, txn.OpRead); got > bound {
		t.Errorf("θ = 0: hottest key takes %.4f of reads, want <= %.4f", got, bound)
	}
	scans := YCSB{Records: records, Txns: 10000, ScanRatio: 1, Seed: 2}
	if got := hottestShare(scans, txn.OpScan); got > bound {
		t.Errorf("θ = 0: hottest scan start takes %.4f of scans, want <= %.4f", got, bound)
	}

	for _, pin := range []struct {
		theta float64
		rows  []uint64
	}{
		{0.8, []uint64{32, 152, 0, 448, 34, 308, 29, 212, 274, 789, 2, 15, 200, 741, 57, 30}},
		{0.99, []uint64{8, 49, 0, 244, 68, 2, 78, 113, 645, 0, 4, 71, 577, 15, 7, 446}},
	} {
		c := YCSB{Records: records, Theta: pin.theta, Txns: 2, OpsPerTxn: 8, ReadRatio: 0.5, RMW: true, Seed: 42}
		var rows []uint64
		for _, tx := range c.Generate() {
			for _, op := range tx.Ops {
				rows = append(rows, op.Key.Row())
			}
		}
		if !reflect.DeepEqual(rows, pin.rows) {
			t.Errorf("θ = %v: first keys %v, want %v", pin.theta, rows, pin.rows)
		}
	}
}

func TestYCSBRMWMode(t *testing.T) {
	c := smallYCSB(1)
	c.RMW = true
	w := c.Generate()
	for _, tx := range w {
		for _, op := range tx.Ops {
			if op.Kind == txn.OpWrite {
				t.Fatal("RMW mode emitted a blind write")
			}
		}
	}
}

func TestTPCCBuildDB(t *testing.T) {
	c := smallTPCC(1)
	db := c.BuildDB()
	if db.Table(TWarehouse).Len() != 4 {
		t.Errorf("warehouses = %d", db.Table(TWarehouse).Len())
	}
	if db.Table(TDistrict).Len() != 40 {
		t.Errorf("districts = %d", db.Table(TDistrict).Len())
	}
	if db.Table(TCustomer).Len() != 4*10*30 {
		t.Errorf("customers = %d", db.Table(TCustomer).Len())
	}
	if db.Table(TStock).Len() != 4*100 {
		t.Errorf("stock = %d", db.Table(TStock).Len())
	}
	if db.Table(TOrder).Len() != 40*15 {
		t.Errorf("orders = %d", db.Table(TOrder).Len())
	}
	// Initial pending orders have NEW-ORDER rows.
	if db.Table(TNewOrder).Len() != 40*initUndelivered {
		t.Errorf("new_order = %d", db.Table(TNewOrder).Len())
	}
	// Customer balances initialized.
	if db.Resolve(CustomerKey(0, 0, 0, 30)).Field(CBalance) != InitialBalance {
		t.Error("customer balance not initialized")
	}
	// District next_o_id initialized to InitOrders.
	if db.Resolve(DistrictKey(1, 2)).Field(DNextOID) != 15 {
		t.Error("district next_o_id wrong")
	}
}

func TestTPCCGenerateMix(t *testing.T) {
	c := smallTPCC(2)
	c.Txns = 3000
	w := c.Generate()
	counts := map[string]int{}
	for i, tx := range w {
		if tx.ID != i {
			t.Fatalf("IDs not dense")
		}
		counts[tx.Template]++
		if len(tx.Ops) == 0 {
			t.Fatalf("empty transaction %d (%s)", i, tx.Template)
		}
	}
	frac := func(s string) float64 { return float64(counts[s]) / float64(len(w)) }
	if f := frac("NewOrder"); f < 0.40 || f > 0.50 {
		t.Errorf("NewOrder fraction %.3f", f)
	}
	if f := frac("Payment"); f < 0.38 || f > 0.48 {
		t.Errorf("Payment fraction %.3f", f)
	}
	for _, s := range []string{"OrderStatus", "Delivery", "StockLevel"} {
		if f := frac(s); f < 0.02 || f > 0.07 {
			t.Errorf("%s fraction %.3f", s, f)
		}
	}
}

func TestTPCCNewOrderShape(t *testing.T) {
	c := smallTPCC(3)
	w := c.Generate()
	for _, tx := range w {
		if tx.Template != "NewOrder" {
			continue
		}
		hasDistrict, hasOrderInsert, hasNOInsert, stocks := false, false, false, 0
		for _, op := range tx.Ops {
			switch op.Key.Table() {
			case TDistrict:
				if op.Kind == txn.OpUpdate && op.Field == DNextOID {
					hasDistrict = true
				}
			case TOrder:
				if op.Kind == txn.OpInsert {
					hasOrderInsert = true
				}
			case TNewOrder:
				if op.Kind == txn.OpInsert {
					hasNOInsert = true
				}
			case TStock:
				if op.Kind == txn.OpUpdate {
					stocks++
				}
			}
		}
		if !hasDistrict || !hasOrderInsert || !hasNOInsert {
			t.Fatalf("NewOrder %d malformed: district=%v order=%v neworder=%v",
				tx.ID, hasDistrict, hasOrderInsert, hasNOInsert)
		}
		if stocks < 5 || stocks > 15 {
			t.Fatalf("NewOrder %d has %d stock updates", tx.ID, stocks)
		}
	}
}

func TestTPCCPaymentShape(t *testing.T) {
	c := smallTPCC(4)
	w := c.Generate()
	histKeys := map[txn.Key]bool{}
	for _, tx := range w {
		if tx.Template != "Payment" {
			continue
		}
		var wAmt, dAmt, hAmt uint64
		for _, op := range tx.Ops {
			switch {
			case op.Key.Table() == TWarehouse && op.Field == WYTD:
				wAmt = op.Arg
			case op.Key.Table() == TDistrict && op.Field == DYTD:
				dAmt = op.Arg
			case op.Key.Table() == THistory:
				hAmt = op.Arg
				if histKeys[op.Key] {
					t.Fatalf("history key %v reused", op.Key)
				}
				histKeys[op.Key] = true
			}
		}
		if wAmt == 0 || wAmt != dAmt || wAmt != hAmt {
			t.Fatalf("Payment %d amounts inconsistent: w=%d d=%d h=%d", tx.ID, wAmt, dAmt, hAmt)
		}
	}
}

func TestTPCCDeliveryTargetsPending(t *testing.T) {
	c := smallTPCC(5)
	c.Txns = 2000
	w := c.Generate()
	// Every Delivery must touch NEW-ORDER rows and credit customers.
	found := false
	for _, tx := range w {
		if tx.Template != "Delivery" {
			continue
		}
		noOps, custOps := 0, 0
		for _, op := range tx.Ops {
			switch op.Key.Table() {
			case TNewOrder:
				noOps++
			case TCustomer:
				custOps++
			}
		}
		if noOps > 0 {
			found = true
			if custOps == 0 {
				t.Fatalf("Delivery %d clears orders without crediting customers", tx.ID)
			}
		}
	}
	if !found {
		t.Error("no Delivery transaction delivered anything")
	}
}

func TestTPCCCrossPctDrivesCrossWarehouseAccess(t *testing.T) {
	count := func(cross float64) int {
		c := smallTPCC(6)
		c.CrossPct = cross
		c.Txns = 2000
		n := 0
		for _, tx := range c.Generate() {
			if tx.Template != "Payment" && tx.Template != "NewOrder" {
				continue
			}
			home := tx.Params[0]
			for _, op := range tx.Ops {
				var w uint64
				switch op.Key.Table() {
				case TStock:
					w = op.Key.Row() / uint64(c.Items)
				case TCustomer:
					w = op.Key.Row() / uint64(DistrictsPerWarehouse*c.CustomersPerDistrict)
				default:
					continue
				}
				if w != home {
					n++
					break
				}
			}
		}
		return n
	}
	lo, hi := count(0.0), count(0.5)
	if lo != 0 {
		t.Errorf("c%%=0 produced %d cross-warehouse transactions", lo)
	}
	if hi < 200 {
		t.Errorf("c%%=0.5 produced only %d cross-warehouse transactions", hi)
	}
}

func TestTPCCAccessSetsDeriveFromParams(t *testing.T) {
	// Same seed → same transactions, including access sets: the
	// stored-procedure property TsPAR depends on.
	a := smallTPCC(7).Generate()
	b := smallTPCC(7).Generate()
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("generation not deterministic")
		}
	}
}

func TestApplySkew(t *testing.T) {
	w := smallYCSB(1).Generate()
	s := RuntimeSkew{MinT: 0.5, P: 48, ThetaT: 0.8}
	avg := 100 * time.Microsecond
	ApplySkew(w, s, avg, 1)
	lo := time.Duration(0.5 * float64(avg))
	hi := time.Duration(48 * 0.5 * float64(avg))
	short, long := 0, 0
	for _, tx := range w {
		if tx.MinRuntime < lo || tx.MinRuntime > hi {
			t.Fatalf("MinRuntime %v outside [%v,%v]", tx.MinRuntime, lo, hi)
		}
		if tx.MinRuntime < 2*lo {
			short++
		}
		if tx.MinRuntime > hi/2 {
			long++
		}
	}
	if short < len(w)/4 {
		t.Errorf("only %d/%d short transactions; zipf should concentrate at the bottom", short, len(w))
	}
	if long == 0 {
		t.Error("no long-tail transactions at all")
	}
}

func TestApplySkewDisabled(t *testing.T) {
	w := smallYCSB(1).Generate()
	ApplySkew(w, RuntimeSkew{}, time.Millisecond, 1)
	for _, tx := range w {
		if tx.MinRuntime != 0 {
			t.Fatal("disabled skew set MinRuntime")
		}
	}
}

func TestApplyIO(t *testing.T) {
	w := smallYCSB(2).Generate()
	io := IOLatency{LIO: 50, ThetaIO: 1.2, MinIO: time.Microsecond}
	ApplyIO(w, io, 1)
	hi := 50 * time.Microsecond
	zero, tail := 0, 0
	for _, tx := range w {
		if tx.IODelay < 0 || tx.IODelay > hi {
			t.Fatalf("IODelay %v outside [0,%v]", tx.IODelay, hi)
		}
		if tx.IODelay == 0 {
			zero++
		}
		if tx.IODelay > hi/2 {
			tail++
		}
	}
	if zero < len(w)/8 {
		t.Errorf("only %d zero-delay transactions; rank 0 should be the mode", zero)
	}
	_ = tail
}

func TestApplyIODisabled(t *testing.T) {
	w := smallYCSB(2).Generate()
	ApplyIO(w, IOLatency{LIO: 0, MinIO: time.Microsecond}, 1)
	for _, tx := range w {
		if tx.IODelay != 0 {
			t.Fatal("disabled IO set IODelay")
		}
	}
}

func TestLargerThetaIOShortensTail(t *testing.T) {
	mean := func(theta float64) time.Duration {
		w := smallYCSB(3).Generate()
		ApplyIO(w, IOLatency{LIO: 50, ThetaIO: theta, MinIO: time.Microsecond}, 9)
		var sum time.Duration
		for _, tx := range w {
			sum += tx.IODelay
		}
		return sum / time.Duration(len(w))
	}
	if mean(1.6) >= mean(0.8) {
		t.Errorf("theta_IO=1.6 mean delay %v not below theta_IO=0.8 %v", mean(1.6), mean(0.8))
	}
}

func TestSafeTheta(t *testing.T) {
	if safeTheta(1) == 1 || safeTheta(0) <= 0 || safeTheta(0.9) != 0.9 {
		t.Error("safeTheta wrong")
	}
}

func TestKeyEncodersDisjoint(t *testing.T) {
	// Sanity: key spaces of different tables never collide, and
	// order/orderline/neworder encodings are injective for plausible
	// ranges.
	seen := map[txn.Key]string{}
	add := func(k txn.Key, what string) {
		if prev, ok := seen[k]; ok {
			t.Fatalf("key collision: %s and %s -> %v", prev, what, k)
		}
		seen[k] = what
	}
	for w := 0; w < 3; w++ {
		add(WarehouseKey(w), "wh")
		for d := 0; d < DistrictsPerWarehouse; d++ {
			add(DistrictKey(w, d), "d")
			for o := 0; o < 5; o++ {
				add(OrderKey(w, d, o), "o")
				add(NewOrderKey(w, d, o), "no")
				for l := 0; l < maxOrderLines; l++ {
					add(OrderLineKey(w, d, o, l), "ol")
				}
			}
		}
	}
}
