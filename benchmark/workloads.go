package main

import (
	"fmt"
	"math/rand"
	"time"

	"tskd/internal/client"
	"tskd/internal/shard"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

// Every workload runs the same server shape; only the traffic and the
// storage mode differ. The values are the benchmark's fixed operating
// point: a comparison is only meaningful when both sides ran them.
const (
	workers       = 2
	ccProtocol    = "OCC"
	partitioner   = "Strife"
	flushInterval = 2 * time.Millisecond
	connections   = 2 // ≤ nproc on the reference box, all from this process

	// The checkpoint trigger and the segment size are scaled to the run
	// length: about 150 KB of log a second means a 512 KiB trigger gives
	// several checkpoint/truncate cycles inside a 20-second run.
	walGroupWindow     = 2 * time.Millisecond
	walCheckpointBytes = 512 << 10
	walSegmentBytes    = 256 << 10
	flushPolicy        = "wal group window 2ms, real fsync per group flush, 256KiB segments, checkpoint every 512KiB of log"
)

// spec is one workload: a YCSB traffic mix and the way it is served.
type spec struct {
	Name string `json:"name"`
	// Why is the reason the workload exists: the layer it isolates.
	Why       string  `json:"why"`
	Records   int     `json:"records"`
	Theta     float64 `json:"theta"`
	OpsPerTxn int     `json:"ops_per_txn"`
	ReadRatio float64 `json:"read_ratio"`
	// Bundle is the server's bundle size (per shard when sharded);
	// InFlight is the closed loop's fixed number of outstanding
	// transactions and the open loop's submitter pool.
	Bundle   int `json:"bundle"`
	InFlight int `json:"in_flight"`
	// Pool is how many distinct requests are generated up front; the
	// phases cycle through them.
	Pool      int     `json:"request_pool"`
	Durable   bool    `json:"durable"`
	Shards    int     `json:"shards"`
	CrossFrac float64 `json:"cross_frac"`
	// OpenRate is the pinned open-phase arrival rate: about half the
	// closed-phase median on the reference box (see README.md).
	OpenRate float64 `json:"open_rate_txn_s"`
}

// specs are the four workloads, in reporting order. theta 0.01 is the
// generator's nearest value to uniform: workload.YCSB maps theta <= 0
// to its 0.8 default.
var specs = []spec{
	{
		Name:    "wire-readmostly",
		Why:     "small uniform read-mostly txns: codec, admission, bundler and response writer do the work; scheduler and WAL idle",
		Records: 100_000, Theta: 0.01, OpsPerTxn: 2, ReadRatio: 0.95,
		Bundle: 512, InFlight: 512, Pool: 1 << 16, OpenRate: 20_000,
	},
	{
		Name:    "sched-hot",
		Why:     "1k hot records, 16-op RMW txns: conflict graph, Strife, TSgen and engine retries/defers dominate; the wire is noise",
		Records: 1_000, Theta: 0.99, OpsPerTxn: 16, ReadRatio: 0.5,
		Bundle: 1024, InFlight: 1024, Pool: 1 << 16, OpenRate: 2_500,
	},
	{
		Name:    "durable-mixed",
		Why:     "WAL-logged commits with real fsync and frequent checkpoints: group flush and fsync are nearly all of the time",
		Records: 100_000, Theta: 0.8, OpsPerTxn: 16, ReadRatio: 0.5,
		Bundle: 256, InFlight: 256, Pool: 1 << 15, Durable: true, OpenRate: 250,
	},
	{
		Name:    "sharded-cross",
		Why:     "the sched-hot traffic over 4 shards with 10% cross-shard 2PC: same scheduler and engine through shard.Runtime units",
		Records: 1_000, Theta: 0.99, OpsPerTxn: 16, ReadRatio: 0.5,
		Bundle: 256, InFlight: 256, Pool: 1 << 16, Shards: 4, CrossFrac: 0.10, OpenRate: 5_000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) ycsb() workload.YCSB {
	return workload.YCSB{
		Records: s.Records, Theta: s.Theta, OpsPerTxn: s.OpsPerTxn,
		ReadRatio: s.ReadRatio, RMW: true,
	}
}

// inputs is everything a run feeds the program under test, built from
// the seed before any clock starts.
type inputs struct {
	// Txns are the generated transactions (confined to shards when the
	// workload is sharded); Reqs are their wire envelopes, what the
	// pipelined client submits; Frames are the same requests encoded as
	// binary request frames, what the server decodes (the replay feeds
	// them to client.DecodeRequestFrame).
	Txns   txn.Workload
	Reqs   []client.Request
	Frames [][]byte
	// Writes[i] is whether request i writes anything: a durable server
	// must log exactly the commits that do.
	Writes []bool
	// Cross counts the transactions that span two shards.
	Cross int
}

func buildInputs(s spec, seed int64) (*inputs, error) {
	g := s.ycsb()
	g.Txns = s.Pool
	g.Seed = seed
	w := g.Generate()
	in := &inputs{Txns: w}
	if s.Shards > 1 {
		_, in.Cross = shard.Confine(w, s.Shards, s.CrossFrac, uint64(s.Records), seed)
	}
	in.Reqs = make([]client.Request, len(w))
	in.Frames = make([][]byte, len(w))
	in.Writes = make([]bool, len(w))
	var ops []txn.Op
	for i, t := range w {
		req, err := client.NewRequest(0, t)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		in.Reqs[i] = req
		in.Writes[i] = len(t.WriteSet()) > 0
		if ops, err = txn.ParseOps(ops[:0], req.Ops); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		// Seq is per connection and assigned at submission; the frames
		// carry the pool index so a replayed response can be matched.
		req.Seq = uint64(i)
		if in.Frames[i], err = client.AppendRequestFrame(nil, &req, ops); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return in, nil
}

// poissonDue returns n arrival offsets of a Poisson process at rate
// per second, drawn from seed.
func poissonDue(n int, rate float64, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x6f70656e)) // "open"
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}
