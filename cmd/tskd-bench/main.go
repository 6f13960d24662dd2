// Command tskd-bench regenerates the paper's experiments: every figure
// and table of Section 6, plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	tskd-bench -exp fig4a              # one experiment, full scale
//	tskd-bench -exp all -scale quick   # everything, reduced scale
//	tskd-bench -list                   # list experiment ids
//
// Results print as aligned text tables with the paper's expected
// qualitative shape noted above each.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"tskd/internal/cc"
	"tskd/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (or 'all')")
		scale   = flag.String("scale", "full", "parameter scale: full, mid, or quick")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		seed    = flag.Int64("seed", 1, "random seed")
		bundle  = flag.Int("bundle", 0, "override bundle size")
		cores   = flag.Int("cores", 0, "override #core")
		ccName  = flag.String("cc", "", fmt.Sprintf("override CC protocol, one of %v", append(cc.Names(), "NONE")))
		opUS    = flag.Int("optime-us", -1, "override per-op work in microseconds")
		csvDir  = flag.String("csv", "", "also write each experiment's rows to <dir>/<id>.csv")
		jsonDir = flag.String("json", "", "also write each experiment's rows to <dir>/<id>.json")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tskd-bench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tskd-bench:", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tskd-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tskd-bench:", err)
			}
		}()
	}

	if *list {
		for _, id := range harness.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: tskd-bench -exp <id|all> [-scale quick|full]")
		fmt.Fprintln(os.Stderr, "known experiments:", harness.ExperimentIDs())
		os.Exit(2)
	}

	p := harness.Default()
	switch *scale {
	case "quick":
		p = harness.Quick()
	case "mid":
		p = harness.Mid()
	}
	p.Seed = *seed
	if *bundle > 0 {
		p.Bundle = *bundle
	}
	if *cores > 0 {
		p.Cores = *cores
	}
	if *ccName != "" {
		p.CC = *ccName
	}
	if *opUS >= 0 {
		p.OpTime = time.Duration(*opUS) * time.Microsecond
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = harness.ExperimentIDs()
	}
	var tables []*harness.Table
	for _, id := range ids {
		start := time.Now()
		t, err := harness.Experiment(id, p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tskd-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		t.Print(os.Stdout)
		if *csvDir != "" {
			if err := writeTableFile(*csvDir, id+".csv", t.WriteCSV); err != nil {
				fmt.Fprintf(os.Stderr, "tskd-bench: csv: %v\n", err)
				os.Exit(1)
			}
		}
		if *jsonDir != "" {
			if err := writeTableFile(*jsonDir, id+".json", t.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "tskd-bench: json: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		tables = append(tables, t)
	}
	if len(tables) > 1 {
		harness.Summarize(tables).Print(os.Stdout)
	}
}

func writeTableFile(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}
