package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// decl declares one metric. BENCHMARK.json carries the same names,
// units, directions and bounds (a test keeps the two in step); Moves is
// the interaction table: which end-to-end metric, on which workload,
// the layer metric should move.
type decl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only
	Moves  string  // per-layer only
}

var endToEnd = []decl{
	{Name: "throughput_txn_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_txn", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

const (
	wire    = "wire-readmostly"
	hot     = "sched-hot"
	durable = "durable-mixed"
	sharded = "sharded-cross"
)

var perLayer = []decl{
	{Name: "client.encode_request_ns_per_txn", Unit: "ns", Better: "lower", Moves: "throughput_txn_s, allocs_per_txn on " + wire + "; no change elsewhere"},
	{Name: "client.decode_request_ns_per_txn", Unit: "ns", Better: "lower", Moves: "throughput_txn_s, allocs_per_txn on " + wire + "; no change elsewhere"},
	{Name: "client.encode_response_ns_per_txn", Unit: "ns", Better: "lower", Moves: "throughput_txn_s, allocs_per_txn on " + wire + "; no change elsewhere"},
	{Name: "client.decode_response_ns_per_txn", Unit: "ns", Better: "lower", Moves: "throughput_txn_s, allocs_per_txn on " + wire + "; no change elsewhere"},
	{Name: "client.codec_allocs_per_txn", Unit: "count", Better: "lower", Moves: "allocs_per_txn on " + wire},
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower", Moves: "informational: too unstable to bound"},
	{Name: "client.resubmits_per_100k", Unit: "count", Better: "lower", Moves: "throughput_txn_s, latency_p95_ms on " + sharded + " (2PC refusals are resubmitted); 0 elsewhere"},
	{Name: "client.failed_share", Unit: "share", Better: "lower", Moves: "must stay 0 on every workload"},

	{Name: "server.queue_wait_p50_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on all workloads (bundle wait is the floor under light load)"},
	{Name: "server.queue_wait_p95_ms", Unit: "ms", Better: "lower", Moves: "latency_p95_ms on all workloads"},
	{Name: "server.mean_bundle_occupancy", Unit: "count", Better: "higher", Moves: "throughput_txn_s on " + wire},
	{Name: "server.bundles", Unit: "count", Better: "higher", Moves: "throughput_txn_s on " + wire},
	{Name: "server.rejected_share", Unit: "share", Better: "lower", Moves: "throughput_txn_s, latency_p95_ms on " + sharded},
	{Name: "server.shed_share", Unit: "share", Better: "lower", Moves: "0: shedding is off at this operating point"},
	{Name: "server.checkpoints", Unit: "count", Better: "higher", Moves: "checkpoint stalls move latency_p95_ms on " + durable},
	{Name: "server.truncated_segments", Unit: "count", Better: "higher", Moves: "checkpoint stalls move latency_p95_ms on " + durable},

	{Name: "conflict.build_us_per_txn", Unit: "us", Better: "lower", Moves: "throughput_txn_s, latency_p50_ms on " + hot + " and " + sharded + "; about 0 on " + wire},
	{Name: "conflict.edges_per_txn", Unit: "count", Better: "lower", Moves: "throughput_txn_s on " + hot + " and " + sharded},
	{Name: "partition.partition_us_per_txn", Unit: "us", Better: "lower", Moves: "throughput_txn_s, latency_p50_ms on " + hot + " and " + sharded},
	{Name: "partition.residual_share", Unit: "share", Better: "lower", Moves: "throughput_txn_s on " + hot + " and " + sharded},
	{Name: "sched.generate_us_per_txn", Unit: "us", Better: "lower", Moves: "throughput_txn_s, latency_p50_ms on " + hot + " and " + sharded},
	{Name: "sched.scheduled_pct", Unit: "%", Better: "higher", Moves: "must lower engine.retries_per_100k on " + hot + " or it bought nothing"},
	{Name: "sched.residual_share", Unit: "share", Better: "lower", Moves: "throughput_txn_s on " + hot + " and " + sharded},
	{Name: "sched.overhead_r", Unit: "ratio", Better: "lower", Moves: "throughput_txn_s on " + hot + " and " + sharded},

	{Name: "engine.run_us_per_txn", Unit: "us", Better: "lower", Moves: "throughput_txn_s on " + hot},
	{Name: "engine.retries_per_100k", Unit: "count", Better: "lower", Moves: "throughput_txn_s on " + hot},
	{Name: "engine.defers_per_100k", Unit: "count", Better: "lower", Moves: "throughput_txn_s on " + hot},
	{Name: "engine.contended_per_100k", Unit: "count", Better: "lower", Moves: "throughput_txn_s on " + hot},
	{Name: "engine.drift_mean_abs_us", Unit: "us", Better: "lower", Moves: "engine.retries_per_100k on " + hot},
	{Name: "engine.drift_overlaps_per_100k", Unit: "count", Better: "lower", Moves: "engine.retries_per_100k on " + hot},

	{Name: "wal.append_wait_p50_ms", Unit: "ms", Better: "lower", Moves: "throughput_txn_s and both latencies on " + durable + " only"},
	{Name: "wal.append_wait_p95_ms", Unit: "ms", Better: "lower", Moves: "latency_p95_ms on " + durable + " only"},
	{Name: "wal.records_per_flush", Unit: "count", Better: "higher", Moves: "throughput_txn_s on " + durable + "; about `workers` today, the number to watch"},
	{Name: "wal.syncs_per_txn", Unit: "count", Better: "lower", Moves: "throughput_txn_s on " + durable + " only"},
	{Name: "wal.bytes_per_txn", Unit: "bytes", Better: "lower", Moves: "server.checkpoints on " + durable},
	{Name: "wal.fsync_p50_ms", Unit: "ms", Better: "lower", Moves: "throughput_txn_s and both latencies on " + durable + " only"},
	{Name: "wal.fsync_p95_ms", Unit: "ms", Better: "lower", Moves: "latency_p95_ms on " + durable + " only"},

	{Name: "shard.cross_share", Unit: "share", Better: "lower", Moves: "fixed by the workload (10%); a check on the input"},
	{Name: "shard.twopc_aborted_share", Unit: "share", Better: "lower", Moves: "throughput_txn_s, latency_p95_ms on " + sharded},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower", Moves: "latency_p95_ms on " + sharded + " (a cross-shard txn waits for its slowest participant)"},
	{Name: "shard.submit_direct_txn_s", Unit: "1/s", Better: "higher", Moves: "throughput_txn_s on " + sharded + " (the runtime without the wire)"},

	{Name: "core.process_us_per_txn", Unit: "us", Better: "lower", Moves: "throughput_txn_s on " + hot + ", " + durable + " and " + sharded},

	{Name: "trace.layers_sum_us_per_txn", Unit: "us", Better: "lower", Moves: "throughput_txn_s on every workload"},
	{Name: "trace.e2e_us_per_txn", Unit: "us", Better: "lower", Moves: "1e6 / throughput_txn_s"},
	{Name: "trace.unattributed_share", Unit: "share", Better: "lower", Moves: "the server's admission, bundler and syscall path, plus idle: throughput_txn_s on " + wire},
	{Name: "trace.replay_gap_share", Unit: "share", Better: "lower", Moves: "faithfulness of the replay; at most 0.15 in memory"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "cost of tracing; not a property of the program"},

	{Name: "loadgen.offered_txn_s", Unit: "1/s", Better: "higher", Moves: "must equal the pinned open rate"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Moves: "a run above 5 ms is invalid"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics and refuses undeclared names.
type metricSet struct {
	decls []decl
	m     map[string]metric
}

func newMetricSet(decls []decl) *metricSet {
	return &metricSet{decls: decls, m: make(map[string]metric, len(decls))}
}

func (ms *metricSet) set(name string, v float64) {
	for _, d := range ms.decls {
		if d.Name == name {
			ms.m[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared")
}

// missing lists the declared metrics that were never set.
func (ms *metricSet) missing() []string {
	var out []string
	for _, d := range ms.decls {
		if _, ok := ms.m[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// printMetrics writes every metric by name with its unit, in declared
// order.
func printMetrics(w io.Writer, workload string, decls []decl, m map[string]metric) {
	for _, d := range decls {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(w, "%-16s %-36s %14.4f %s\n", workload, d.Name, v.Value, v.Unit)
		}
	}
}

// benchmarkFile is BENCHMARK.json, as much of it as this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
