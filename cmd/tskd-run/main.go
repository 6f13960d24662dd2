// Command tskd-run executes a single system on a single benchmark and
// prints its metrics — the quickest way to poke at one configuration.
//
// Usage:
//
//	tskd-run -system "TSKD[S]" -bench ycsb -theta 0.9
//	tskd-run -system DBCC -bench tpcc -c 0.35 -cc TICTOC
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tskd/internal/cc"
	"tskd/internal/harness"
)

func main() {
	var (
		system  = flag.String("system", "TSKD[S]", "system under test")
		bench   = flag.String("bench", "ycsb", "benchmark: ycsb or tpcc")
		theta   = flag.Float64("theta", 0.8, "YCSB zipf skew")
		cpct    = flag.Float64("c", 0.25, "TPC-C cross-warehouse fraction")
		whn     = flag.Int("whn", 0, "TPC-C warehouses (0 = scale default)")
		cores   = flag.Int("cores", 0, "#core (0 = scale default)")
		ccName  = flag.String("cc", "OCC", fmt.Sprintf("CC protocol, one of %v", append(cc.Names(), "NONE")))
		bundle  = flag.Int("bundle", 0, "bundle size (0 = scale default)")
		scale   = flag.String("scale", "quick", "parameter scale: full or quick")
		seed    = flag.Int64("seed", 1, "random seed")
		lookups = flag.Int("lookups", 2, "TsDEFER #lookups")
		deferP  = flag.Float64("deferp", 0.6, "TsDEFER defer probability")
		minT    = flag.Float64("mint", 0.5, "runtime-skew minT (0 disables)")
		lio     = flag.Int("lio", 0, "I/O latency ratio lIO (0 disables)")
	)
	flag.Parse()

	p := harness.Quick()
	if *scale == "full" {
		p = harness.Default()
	}
	p.Theta = *theta
	p.CPct = *cpct
	p.CC = *ccName
	p.Seed = *seed
	p.Lookups = *lookups
	p.DeferP = *deferP
	p.MinT = *minT
	p.LIO = *lio
	if *whn > 0 {
		p.Whn = *whn
	}
	if *cores > 0 {
		p.Cores = *cores
	}
	if *bundle > 0 {
		p.Bundle = *bundle
	}

	start := time.Now()
	t, err := harness.RunSystem(*system, *bench, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tskd-run: %v\n", err)
		fmt.Fprintln(os.Stderr, "systems:", harness.SystemNames())
		os.Exit(1)
	}
	t.Print(os.Stdout)
	fmt.Printf("(run took %v)\n", time.Since(start).Round(time.Millisecond))
}
