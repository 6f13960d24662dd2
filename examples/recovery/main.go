// Recovery: the durability substrate behind the paper's commit-time
// I/O knob — write-ahead logging with group commit, checkpoints, and
// crash recovery.
//
// The example runs two contended YCSB bundles with redo logging,
// checkpoints between them, "crashes", and then rebuilds the database
// from the checkpoint plus the log tail, verifying every row matches
// the pre-crash state. It also prints the group-commit batching factor:
// the engine appends each commit without waiting and flushes once per
// bundle, so the factor is the bundle's writing commits — amortizing
// the commit-time I/O latency (the paper's l_IO knob) over the bundle.
//
// Run with: go run ./examples/recovery
package main

import (
	"bytes"
	"fmt"
	"log"

	"tskd/internal/cc"
	"tskd/internal/engine"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

func main() {
	cfg := workload.YCSB{
		Records: 5_000, Theta: 0.9, Txns: 2_000, OpsPerTxn: 8,
		ReadRatio: 0.4, RMW: true, Seed: 77,
	}
	db := cfg.BuildDB()
	var logBuf bytes.Buffer
	l := wal.New(&logBuf, 0) // the engine flushes once per bundle; no window needed

	runBundle := func(seed int64) {
		c := cfg
		c.Seed = seed
		w := c.Generate()
		m := engine.Run(w, []engine.Phase{engine.SpreadRoundRobin(w, 8)}, engine.Config{
			Workers: 8, Protocol: cc.NewSilo(), DB: db, WAL: l, Seed: seed,
		})
		fmt.Printf("bundle %d: %d committed, %d retries\n", seed, m.Committed, m.Retries)
	}

	runBundle(1)

	var ckpt bytes.Buffer
	if err := storage.WriteCheckpoint(&ckpt, db); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %d KiB\n", ckpt.Len()/1024)

	runBundle(2)
	if err := l.Close(); err != nil {
		log.Fatal(err)
	}
	records, flushes, _ := l.Counters()
	fmt.Printf("log: %d records in %d flushes (group factor %.1fx), %d KiB\n",
		records, flushes, float64(records)/float64(flushes), logBuf.Len()/1024)

	// --- crash ---

	restored, err := storage.ReadCheckpoint(bytes.NewReader(ckpt.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	applied, err := wal.Recover(bytes.NewReader(logBuf.Bytes()), restored)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery: checkpoint restored, %d log records replayed\n", applied)

	mismatch := 0
	db.Table(workload.YCSBTable).Range(func(r *storage.Row) bool {
		rec := restored.Resolve(txn.Key(r.Key))
		if rec == nil {
			mismatch++
			return true
		}
		a, b := r.Load().Fields, rec.Load().Fields
		for i := range a {
			if a[i] != b[i] {
				mismatch++
				break
			}
		}
		return true
	})
	if mismatch != 0 {
		log.Fatalf("%d rows differ after recovery", mismatch)
	}
	fmt.Println("recovered database matches the pre-crash state: OK")
}
