// Command tskd-load benchmarks a tskd-serve instance end to end, in
// the style of object-storage load generators like minio/warp: a
// closed-loop mode (N concurrent clients, each submit-wait-repeat)
// measures peak sustainable throughput, and an open-loop mode (target
// arrival rate with Poisson or uniform interarrivals) measures latency
// under a fixed offered load — the honest way to observe queueing
// delay, since closed loops self-throttle.
//
// Usage:
//
//	tskd-load -addr localhost:7070 -mode closed -clients 16 -n 50000
//	tskd-load -mode open -rate 20000 -arrival poisson -n 100000
//
// Transactions are YCSB-style: -theta, -opstxn, -readratio, -records
// shape the generated access patterns (they must target the schema
// tskd-serve loaded). Latency percentiles come from the repo's
// log-bucketed histograms (internal/metrics), merged across workers
// rather than averaged.
//
// Against a sharded server (tskd-serve -shards N), pass the matching
// -shards here and -multi-key F to make fraction F of the generated
// transactions span two shards (exercising the server's two-phase
// commit path); the remainder are confined to a single shard.
//
// Submissions use the length-prefixed binary frame protocol over
// pipelined connections (many in-flight transactions multiplexed per
// socket, -window bounding the credit window).
//
// -reliable switches closed-loop clients to the reconnecting client
// (idempotency keys, resubmit on connection loss, jittered backoff):
// the benchmark then survives a server crash-restart mid-run, and
// against a -data-dir server every counted commit is exactly-once.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tskd/internal/bench"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:7070", "tskd-serve transaction address")
		mode      = flag.String("mode", "closed", "load mode: closed or open")
		clients   = flag.Int("clients", 8, "closed-loop concurrent clients (multiplexed over up to 16 connections)")
		conns     = flag.Int("conns", 4, "open-loop connections to spread submissions over")
		rate      = flag.Float64("rate", 5000, "open-loop target arrival rate, txn/s")
		arrival   = flag.String("arrival", "poisson", "open-loop interarrivals: poisson or uniform")
		n         = flag.Int("n", 10_000, "total transactions to submit")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-submission timeout")
		records   = flag.Int("records", 100_000, "YCSB key space (match the server's -records)")
		theta     = flag.Float64("theta", 0.8, "YCSB zipf skew (0 = uniform keys)")
		opsTxn    = flag.Int("opstxn", 16, "operations per transaction")
		readRatio = flag.Float64("readratio", 0.5, "fraction of reads")
		rmw       = flag.Bool("rmw", true, "read-modify-write updates (vs blind writes)")
		seed      = flag.Int64("seed", 1, "generation seed")
		reliable  = flag.Bool("reliable", false, "closed loop: reconnect + resubmit under idempotency keys")
		window    = flag.Int("window", 0, "pipelined in-flight window per connection (0 = default)")
		shards    = flag.Int("shards", 1, "server shard count (match tskd-serve -shards); enables -multi-key")
		multiKey  = flag.Float64("multi-key", 0, "fraction of transactions whose keys span 2+ shards (needs -shards > 1)")
		deadline  = flag.Duration("deadline", 0, "end-to-end deadline stamped on every submission (0 = none)")
		lowpri    = flag.Float64("lowpri", 0, "fraction of submissions marked low priority (shed first)")
		jsonOut   = flag.Bool("json", false, "print the summary as JSON")
	)
	flag.Parse()

	nshards := *shards
	if nshards <= 1 {
		nshards = 0
	}
	spec := bench.Spec{
		Addr: *addr, Mode: *mode,
		Clients: *clients, Rate: *rate, Arrival: *arrival, N: *n,
		TimeoutMS: (*timeout).Milliseconds(),
		Records:   *records, Theta: *theta, OpsPerTxn: *opsTxn,
		ReadRatio: *readRatio, RMW: *rmw, Seed: *seed,
		Reliable: *reliable, Window: *window,
		Shards: nshards, MultiKey: *multiKey,
		DeadlineMS: deadlineMS(*deadline), LowPri: *lowpri,
	}
	if *mode == "open" {
		spec.Conns = *conns
	}

	res, err := bench.RunLocal(context.Background(), spec)
	var summary bench.Summary
	if err == nil {
		summary, err = bench.Merge([]bench.Result{res})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tskd-load:", err)
		os.Exit(1)
	}
	report(*mode, summary, *jsonOut)
	if summary.Counts.Errors > 0 {
		os.Exit(1)
	}
}

func deadlineMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	if ms := d.Milliseconds(); ms >= 1 {
		return ms
	}
	return 1
}

// report prints the summary, human or JSON. Throughput counts
// terminal decisions per second (committed, aborted, canceled,
// expired); goodput counts only commits — under overload the gap
// between the two is the work the server concluded without doing.
func report(mode string, s bench.Summary, asJSON bool) {
	if asJSON {
		out := struct {
			Mode string `json:"mode"`
			bench.Summary
		}{mode, s}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
		return
	}
	c := s.Counts
	fmt.Printf("tskd-load: mode=%s elapsed=%.3fs\n", mode, s.ElapsedS)
	fmt.Printf(" sent=%d committed=%d rejected=%d shed=%d expired=%d aborted=%d canceled=%d errors=%d server-retries=%d\n",
		c.Sent, c.Committed, c.Rejected, c.Shed, c.Expired, c.Aborted, c.Canceled, c.Errors, c.Retries)
	fmt.Printf(" throughput=%.1f txn/s goodput=%.1f txn/s\n", s.ThroughputTxnS, s.GoodputTxnS)
	fmt.Printf(" latency   p50=%dus p90=%dus p99=%dus p999=%dus max=%dus mean=%dus\n",
		s.P50US, s.P90US, s.P99US, s.P999US, s.MaxUS, s.MeanUS)
	fmt.Printf(" queuewait p99=%dus  exec p99=%dus\n", s.QueueP99US, s.ExecP99US)
}
