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
// Distributed generation (warp-style agent/coordinator): run one agent
// per load machine, then point a coordinator at the fleet. The
// coordinator splits the workload, starts every agent on a synchronized
// wall-clock barrier, and merges the shipped histograms — percentiles
// come from the combined population, never from averaging per-agent
// percentiles.
//
//	tskd-load -agent :7071                 # on each load machine
//	tskd-load -agents lg1:7071,lg2:7071 -mode open -rate 80000 -n 400000
//	tskd-load -local-agents 4 -mode open -rate 80000 -n 400000
//
// -local-agents N forks N agent subprocesses of this binary on
// ephemeral ports and coordinates them — multi-process load generation
// on one box with no external orchestration.
//
// Transactions are YCSB-style: -theta, -opstxn, -readratio, -records
// shape the generated access patterns (they must target the schema
// tskd-serve loaded). Latency percentiles come from the repo's
// log-bucketed histograms (internal/metrics).
//
// Against a sharded server (tskd-serve -shards N), pass the matching
// -shards here and -multi-key F to make fraction F of the generated
// transactions span two shards (exercising the server's two-phase
// commit path); the remainder are confined to a single shard.
//
// Submissions default to the length-prefixed binary frame protocol
// over pipelined connections (many in-flight transactions multiplexed
// per socket, -window bounding the credit window); -wire ndjson is
// the escape hatch back to the legacy text protocol — lockstep plain
// connections, exactly the pre-upgrade client, for debugging or
// driving an older server — and -pipeline multiplexes even NDJSON
// over pipelined connections for an apples-to-apples protocol
// comparison.
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
	"log"
	"net"
	"os"
	"strings"
	"time"

	"tskd/internal/bench"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:7070", "tskd-serve transaction address")
		mode      = flag.String("mode", "closed", "load mode: closed or open")
		clients   = flag.Int("clients", 8, "closed-loop concurrent clients (each its own connection)")
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
		wire      = flag.String("wire", "binary", "wire protocol: binary (length-prefixed frames, default) or ndjson (legacy text escape hatch)")
		pipeline  = flag.Bool("pipeline", false, "closed loop: multiplex clients over pipelined connections (implied by -wire binary)")
		window    = flag.Int("window", 0, "pipelined in-flight window per connection (0 = default)")
		shards    = flag.Int("shards", 1, "server shard count (match tskd-serve -shards); enables -multi-key")
		multiKey  = flag.Float64("multi-key", 0, "fraction of transactions whose keys span 2+ shards (needs -shards > 1)")
		deadline  = flag.Duration("deadline", 0, "end-to-end deadline stamped on every submission (0 = none)")
		lowpri    = flag.Float64("lowpri", 0, "fraction of submissions marked low priority (shed first)")
		jsonOut   = flag.Bool("json", false, "print the summary as JSON")

		agentAddr  = flag.String("agent", "", "run as a load agent listening on this control address (e.g. :7071)")
		agents     = flag.String("agents", "", "coordinate these comma-separated agent control addresses")
		localN     = flag.Int("local-agents", 0, "spawn N local agent subprocesses and coordinate them")
		startDelay = flag.Duration("start-delay", 500*time.Millisecond, "coordinator: lead time before the synchronized start barrier")
	)
	flag.Parse()

	if *agentAddr != "" {
		runAgent(*agentAddr)
		return
	}

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
		Reliable: *reliable,
		Wire:     *wire, Pipeline: *pipeline, Window: *window,
		Shards: nshards, MultiKey: *multiKey,
		DeadlineMS: deadlineMS(*deadline), LowPri: *lowpri,
	}
	if *mode == "open" {
		spec.Conns = *conns
	}

	var (
		summary bench.Summary
		err     error
	)
	switch {
	case *agents != "" && *localN > 0:
		err = fmt.Errorf("-agents and -local-agents are mutually exclusive")
	case *agents != "":
		summary, err = coordinate(strings.Split(*agents, ","), spec, *startDelay, *timeout)
	case *localN > 0:
		summary, err = coordinateLocal(*localN, spec, *startDelay, *timeout)
	default:
		var res bench.Result
		res, err = bench.RunLocal(context.Background(), spec)
		if err == nil {
			summary, err = bench.Merge([]bench.Result{res})
		}
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

// runAgent turns the process into a load agent: bind the control
// listener, announce the bound address on stdout (spawners scan for the
// banner to learn an ephemeral port), serve coordinators until killed.
func runAgent(listen string) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tskd-load:", err)
		os.Exit(1)
	}
	fmt.Printf("%s%s\n", bench.ListenBanner, ln.Addr())
	os.Stdout.Sync()
	logger := log.New(os.Stderr, "tskd-load agent: ", log.LstdFlags)
	if err := bench.ServeAgent(ln, ln.Addr().String(), logger.Printf); err != nil {
		logger.Printf("listener: %v", err)
		os.Exit(1)
	}
}

// coordinate fans spec out across already-running agents and merges
// their results.
func coordinate(addrs []string, spec bench.Spec, startDelay, timeout time.Duration) (bench.Summary, error) {
	var fleet []*bench.AgentClient
	defer func() {
		for _, a := range fleet {
			a.Close()
		}
	}()
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		a, err := bench.DialAgent(addr)
		if err != nil {
			return bench.Summary{}, err
		}
		fleet = append(fleet, a)
	}
	if len(fleet) == 0 {
		return bench.Summary{}, fmt.Errorf("no agent addresses in -agents")
	}
	return coordinateFleet(fleet, spec, startDelay, timeout)
}

// coordinateLocal spawns n agent subprocesses of this binary and
// coordinates them — a multi-process fleet on one machine.
func coordinateLocal(n int, spec bench.Spec, startDelay, timeout time.Duration) (bench.Summary, error) {
	self, err := os.Executable()
	if err != nil {
		return bench.Summary{}, err
	}
	fleet, stop, err := bench.SpawnLocalAgents(n, self, "-agent", "127.0.0.1:0")
	if err != nil {
		return bench.Summary{}, err
	}
	defer stop()
	return coordinateFleet(fleet, spec, startDelay, timeout)
}

func coordinateFleet(fleet []*bench.AgentClient, spec bench.Spec, startDelay, timeout time.Duration) (bench.Summary, error) {
	collect := 2*timeout + 10*time.Minute // run length is workload-bound, not timeout-bound
	results, err := bench.Coordinate(fleet, spec.Split(len(fleet)), startDelay, collect)
	if err != nil {
		return bench.Summary{}, err
	}
	return bench.Merge(results)
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

// report prints the merged summary, human or JSON. Throughput counts
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
	fmt.Printf("tskd-load: mode=%s agents=%d elapsed=%.3fs\n", mode, s.Agents, s.ElapsedS)
	fmt.Printf(" sent=%d committed=%d rejected=%d shed=%d expired=%d aborted=%d canceled=%d errors=%d server-retries=%d\n",
		c.Sent, c.Committed, c.Rejected, c.Shed, c.Expired, c.Aborted, c.Canceled, c.Errors, c.Retries)
	fmt.Printf(" throughput=%.1f txn/s goodput=%.1f txn/s\n", s.ThroughputTxnS, s.GoodputTxnS)
	fmt.Printf(" latency   p50=%dus p90=%dus p99=%dus p999=%dus max=%dus mean=%dus (merged across %d agent population(s))\n",
		s.P50US, s.P90US, s.P99US, s.P999US, s.MaxUS, s.MeanUS, s.Agents)
	fmt.Printf(" queuewait p99=%dus  exec p99=%dus\n", s.QueueP99US, s.ExecP99US)
}
