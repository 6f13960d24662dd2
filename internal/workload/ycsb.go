package workload

import (
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/zipf"
)

// YCSBTable is the table id of the single YCSB user table.
const YCSBTable uint16 = 1

// ycsbFields is the number of columns per YCSB record (the paper's
// 128-byte records hold a handful of fields; field 0 is the one
// transactions update).
const ycsbFields = 2

// YCSB generates the YCSB core workload A used in Section 6: a single
// table of Records keys; each transaction performs OpsPerTxn accesses
// to distinct keys drawn from a Zipfian distribution with skew Theta,
// half reads and half updates.
type YCSB struct {
	// Records is the table size. The paper uses 20M; the default here
	// is 100k — a pure scale knob that leaves the contention profile
	// (set by Theta) unchanged.
	Records int
	// Theta is the Zipfian data-skew parameter (paper range
	// [0.7, 0.9], default 0.8). Theta <= 0 draws keys uniformly.
	Theta float64
	// Txns is the bundle size (paper default 10,000).
	Txns int
	// OpsPerTxn is the number of records accessed per transaction
	// (paper: 16).
	OpsPerTxn int
	// ReadRatio is the fraction of reads (workload A: 0.5).
	ReadRatio float64
	// RMW makes updates read-modify-write instead of blind writes.
	RMW bool
	// ScanRatio turns that fraction of transactions into YCSB
	// workload-E style short range scans (plus inserts): each scan
	// transaction performs one range scan of up to MaxScanLen rows
	// starting at a Zipfian key, and one insert of a fresh key. Scans
	// have unknown access sets and always execute under CC (the
	// paper's treatment of range queries).
	ScanRatio float64
	// MaxScanLen bounds scan lengths (default 50, as in YCSB-E).
	MaxScanLen int
	// Seed drives generation.
	Seed int64
}

// DefaultYCSB returns the Table 1 defaults at test-friendly scale
// (core workload A, the paper's configuration).
func DefaultYCSB() YCSB {
	return YCSB{Records: 100_000, Theta: 0.8, Txns: 10_000, OpsPerTxn: 16, ReadRatio: 0.5}
}

// WorkloadB returns the YCSB core B preset: 95% reads, 5% updates.
func WorkloadB() YCSB {
	c := DefaultYCSB()
	c.ReadRatio = 0.95
	return c
}

// WorkloadC returns the YCSB core C preset: read-only.
func WorkloadC() YCSB {
	c := DefaultYCSB()
	c.ReadRatio = 1.0
	return c
}

// WorkloadE returns the YCSB core E preset: 95% short range scans, 5%
// inserts (approximated as scan+insert transactions at ScanRatio 0.95).
func WorkloadE() YCSB {
	c := DefaultYCSB()
	c.ScanRatio = 0.95
	c.MaxScanLen = 50
	return c
}

// WorkloadF returns the YCSB core F preset: read-modify-write.
func WorkloadF() YCSB {
	c := DefaultYCSB()
	c.RMW = true
	return c
}

// BuildDB creates and populates the YCSB table.
func (c YCSB) BuildDB() *storage.DB {
	db := storage.NewDB()
	tbl := db.CreateTable(YCSBTable, "usertable", ycsbFields)
	for i := 0; i < c.Records; i++ {
		r, _ := tbl.Insert(uint64(i))
		t := r.Load().Clone()
		t.Fields[0] = uint64(i)
		r.Install(t)
	}
	return db
}

// Generate produces the transaction bundle. IDs are dense in
// [0, Txns).
func (c YCSB) Generate() txn.Workload {
	g := zipf.New(uint64(c.Records), safeTheta(c.Theta), c.Seed)
	nextRow := g.Next
	if c.Theta <= 0 {
		// θ = 0 is the uniform limit of the Zipfian, which the
		// generator's construction cannot evaluate; draw from its
		// stream uniformly instead.
		nextRow = func() uint64 { return g.Uniform(uint64(c.Records)) }
	}
	maxScan := c.MaxScanLen
	if maxScan <= 0 {
		maxScan = 50
	}
	nextInsert := uint64(c.Records) // fresh keys for workload-E inserts
	w := make(txn.Workload, c.Txns)
	for i := range w {
		if c.ScanRatio > 0 && g.Float64() < c.ScanRatio {
			t := txn.New(i)
			t.Template = "YCSB-E"
			lo := nextRow()
			span := g.Uniform(uint64(maxScan)) + 1
			t.S(txn.MakeKey(YCSBTable, lo), span)
			t.IF(txn.MakeKey(YCSBTable, nextInsert), 0, nextInsert)
			nextInsert++
			w[i] = t
			continue
		}
		t := txn.New(i)
		t.Template = "YCSB-A"
		seen := make(map[uint64]bool, c.OpsPerTxn)
		for j := 0; j < c.OpsPerTxn; j++ {
			row := nextRow()
			// YCSB transactions access distinct records; re-draw on
			// collision (bounded).
			for tries := 0; seen[row] && tries < 8; tries++ {
				row = nextRow()
			}
			seen[row] = true
			key := txn.MakeKey(YCSBTable, row)
			switch {
			case g.Float64() < c.ReadRatio:
				t.R(key)
			case c.RMW:
				t.U(key, 1)
			default:
				t.WF(key, 0, uint64(i)<<16|uint64(j))
			}
		}
		w[i] = t
	}
	return w
}
