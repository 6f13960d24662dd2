package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// compareMain is `benchmark compare A.json B.json`: one row per
// end-to-end metric and workload with both medians, the relative
// change from A to B, the bound BENCHMARK.json fixes, and a verdict.
// It exits non-zero when any row is worse or unresolved.
func compareMain(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allowEnv := fs.Bool("allow-env-mismatch", false, "compare even when nproc or the go version differ")
	specPath := fs.String("benchmark-json", "BENCHMARK.json", "where the bounds come from")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-allow-env-mismatch] [-benchmark-json path] A.json B.json")
		return exitUsage
	}
	bf, err := readBenchmarkFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return exitFailed
	}
	var sides [2]*resultsFile
	for i := range sides {
		f, err := readResults(fs.Arg(i))
		if err == nil && len(f.Runs) == 0 {
			err = fmt.Errorf("%s holds no runs", fs.Arg(i))
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark compare:", err)
			return exitFailed
		}
		sides[i] = f
	}
	a, b := sides[0], sides[1]
	if msg := envMismatch(a.Runs[0].Env, b.Runs[0].Env); msg != "" && !*allowEnv {
		fmt.Fprintf(stderr, "benchmark compare: environments differ (%s); pass -allow-env-mismatch to compare anyway\n", msg)
		return exitFailed
	}

	rows := compareRuns(bf, a.Runs, b.Runs)
	fmt.Fprintf(stdout, "%-16s %-18s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "delta", "spreadA", "spreadB", "bound", "verdict")
	bad := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-16s %-18s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Delta, 100*r.SpreadA, 100*r.SpreadB, 100*r.Bound, r.Verdict)
		if r.Verdict != verdictOK {
			bad++
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark compare: %d of %d rows not ok\n", bad, len(rows))
		return exitFailed
	}
	return exitOK
}

func envMismatch(a, b envBlock) string {
	switch {
	case a.NProc != b.NProc:
		return fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc)
	case a.GoVersion != b.GoVersion:
		return fmt.Sprintf("go version %s vs %s", a.GoVersion, b.GoVersion)
	}
	return ""
}

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one end-to-end metric on one workload.
type compareRow struct {
	Workload, Metric string
	A, B             float64 // medians
	Delta            float64 // (B-A)/A
	SpreadA, SpreadB float64 // interquartile range over the median
	Bound            float64
	Verdict          string
}

// compareRuns builds the rows: every end-to-end metric of
// BENCHMARK.json on every workload both sides ran untraced.
func compareRuns(bf *benchmarkFile, a, b []*runRecord) []compareRow {
	var rows []compareRow
	for _, w := range bf.Workloads {
		for _, md := range bf.EndToEnd {
			va, vb := values(a, w.Name, md.Name), values(b, w.Name, md.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			r := compareRow{
				Workload: w.Name, Metric: md.Name, Bound: md.Bound,
				A: median(va), B: median(vb), SpreadA: spread(va), SpreadB: spread(vb),
			}
			r.Delta = per(r.B-r.A, r.A)
			r.Verdict = verdict(r, md.Better == "higher", md.Name == "setup_s")
			rows = append(rows, r)
		}
	}
	return rows
}

// verdict: unresolved when either side's own runs spread wider than
// the bound (the medians then cannot carry a claim either way), worse
// when B's median is worse than A's by more than the bound, else ok.
// Set-up time is exempt from the spread rule: it is compared by its
// medians alone.
func verdict(r compareRow, higherBetter, spreadExempt bool) string {
	if !spreadExempt && math.Max(r.SpreadA, r.SpreadB) > r.Bound {
		return verdictUnresolved
	}
	worse := r.Delta
	if higherBetter {
		worse = -r.Delta
	}
	if worse > r.Bound {
		return verdictWorse
	}
	return verdictOK
}

func values(runs []*runRecord, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace || r.Smoke {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a
// share of the median, the quartiles taken as Python's
// statistics.quantiles(v, n=4) takes them (exclusive method). Fewer
// than two values have no spread.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 { // i-th quartile, exclusive method
		const n = 4
		j := max(1, min(i*(len(s)+1)/n, len(s)-1))
		delta := float64(i*(len(s)+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return per(q(3)-q(1), median(v))
}
