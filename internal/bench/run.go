// Package bench is tskd-load's distributed load generator. It has
// three parts:
//
//   - A load runner (Run/Prepare) shared by tskd-load's local mode and
//     agent mode: closed- or open-loop generation against a tskd-serve
//     address, with per-worker tallies whose histograms are merged —
//     never averaged — into whole-population percentiles.
//   - An agent control protocol (ServeAgent / AgentClient / Coordinate):
//     a coordinator fans a workload spec out to N agents over small
//     NDJSON control connections, starts them on a synchronized
//     wall-clock barrier, and collects full-resolution results.
//   - Exact merge math (Merge): agents ship compressed latency
//     histograms (metrics.HistogramData) and per-second throughput
//     series; merging reconstructs the unified population, so merged
//     p50/p99/p999 equal what one process observing every request would
//     have reported.
package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tskd/internal/client"
	"tskd/internal/metrics"
	"tskd/internal/shard"
	"tskd/internal/workload"
)

// Spec describes one load run: the target server, the loop discipline,
// and the YCSB workload shape. It is the unit the coordinator fans out
// to agents, so it must be JSON-serializable and self-contained.
type Spec struct {
	Addr    string  `json:"addr"`
	Mode    string  `json:"mode"`              // "closed" or "open"
	Clients int     `json:"clients"`           // closed-loop submitters
	Conns   int     `json:"conns"`             // sockets; closed mode 0 = one per client
	Rate    float64 `json:"rate,omitempty"`    // open-loop target arrival rate, txn/s
	Arrival string  `json:"arrival,omitempty"` // open-loop: "poisson" or "uniform"
	N       int     `json:"n"`                 // transactions to submit

	TimeoutMS int64 `json:"timeout_ms"` // per-submission timeout

	Records   int     `json:"records"`
	Theta     float64 `json:"theta"`
	OpsPerTxn int     `json:"ops_per_txn"`
	ReadRatio float64 `json:"read_ratio"`
	RMW       bool    `json:"rmw"`
	Seed      int64   `json:"seed"`

	Reliable bool `json:"reliable,omitempty"` // closed loop via ReliableConn

	// Wire selects the protocol: "" or "ndjson" is the text fallback,
	// "binary" the length-prefixed frame protocol. Pipeline uses the
	// multiplexed pipelined client (binary implies a pipelined
	// connection; the flag additionally applies it to ndjson), with
	// Window capping in-flight submissions per connection (0 = client
	// default).
	Wire     string `json:"wire,omitempty"`
	Pipeline bool   `json:"pipeline,omitempty"`
	Window   int    `json:"window,omitempty"`

	Shards   int     `json:"shards,omitempty"`    // server shard count for key confinement
	MultiKey float64 `json:"multi_key,omitempty"` // fraction of txns spanning 2+ shards

	DeadlineMS int64   `json:"deadline_ms,omitempty"`
	LowPri     float64 `json:"low_pri,omitempty"`
}

// Timeout returns the per-submission timeout with a sane default.
func (s Spec) Timeout() time.Duration {
	if s.TimeoutMS <= 0 {
		return 30 * time.Second
	}
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

// Validate rejects specs that cannot run. Agents call this on
// coordinator input — a control connection is an untrusted surface.
func (s Spec) Validate() error {
	if s.Addr == "" {
		return fmt.Errorf("bench: spec: empty addr")
	}
	switch s.Mode {
	case "closed":
		if s.Clients < 1 {
			return fmt.Errorf("bench: spec: closed mode needs clients >= 1")
		}
		if s.Reliable && s.Conns > 0 {
			return fmt.Errorf("bench: spec: reliable mode manages its own connections (conns must be 0)")
		}
	case "open":
		if s.Rate <= 0 {
			return fmt.Errorf("bench: spec: open mode needs rate > 0")
		}
		if s.Conns < 1 {
			return fmt.Errorf("bench: spec: open mode needs conns >= 1")
		}
		if s.Arrival != "" && s.Arrival != "poisson" && s.Arrival != "uniform" {
			return fmt.Errorf("bench: spec: unknown arrival process %q (poisson, uniform)", s.Arrival)
		}
		if s.Reliable {
			return fmt.Errorf("bench: spec: reliable applies to closed mode only")
		}
	default:
		return fmt.Errorf("bench: spec: unknown mode %q (closed, open)", s.Mode)
	}
	if s.N < 1 {
		return fmt.Errorf("bench: spec: n must be >= 1")
	}
	if s.N > 50_000_000 {
		return fmt.Errorf("bench: spec: n=%d beyond pre-generation budget", s.N)
	}
	if s.Records < 1 || s.OpsPerTxn < 1 {
		return fmt.Errorf("bench: spec: records and ops_per_txn must be >= 1")
	}
	if s.Theta < 0 {
		return fmt.Errorf("bench: spec: theta must be >= 0 (0 = uniform keys)")
	}
	if s.MultiKey > 0 && s.Shards <= 1 {
		return fmt.Errorf("bench: spec: multi_key needs shards > 1")
	}
	switch s.Wire {
	case "", "ndjson", "binary":
	default:
		return fmt.Errorf("bench: spec: unknown wire protocol %q (ndjson, binary)", s.Wire)
	}
	if s.Window < 0 {
		return fmt.Errorf("bench: spec: window must be >= 0")
	}
	return nil
}

// pipelined reports whether the spec's connections are pipelined
// clients: requested explicitly, or implied by the binary protocol
// (whose client is the pipelined one).
func (s Spec) pipelined() bool { return s.Pipeline || s.Wire == "binary" }

func (s Spec) wireProto() client.WireProto {
	if s.Wire == "binary" {
		return client.ProtoBinary
	}
	return client.ProtoNDJSON
}

// dialConn dials one load connection per the spec's wire settings.
func dialConn(s Spec) (client.WireConn, error) {
	if s.pipelined() {
		return client.DialPipelined(s.Addr, client.PipelineConfig{Proto: s.wireProto(), Window: s.Window})
	}
	return client.Dial(s.Addr)
}

// Split divides a spec across n agents: transaction counts, submitter
// counts, sockets, and offered rate are divided (remainders to the
// first agents); seeds are spaced so agents draw disjoint workload
// streams. The sum of the parts offers the same aggregate load as the
// whole.
func (s Spec) Split(n int) []Spec {
	if n < 1 {
		n = 1
	}
	parts := make([]Spec, n)
	for i := range parts {
		p := s
		p.N = s.N / n
		if i < s.N%n {
			p.N++
		}
		if s.Mode == "closed" {
			p.Clients = s.Clients / n
			if i < s.Clients%n {
				p.Clients++
			}
			if p.Clients < 1 {
				p.Clients = 1
			}
		}
		if s.Conns > 0 {
			p.Conns = s.Conns / n
			if i < s.Conns%n {
				p.Conns++
			}
			if p.Conns < 1 {
				p.Conns = 1
			}
		}
		p.Rate = s.Rate / float64(n)
		p.Seed = s.Seed + int64(i)*15485863
		parts[i] = p
	}
	return parts
}

// outcome is one submission's terminal observation.
type outcome struct {
	status  string
	retries int
	raMS    int64
	e2e     time.Duration
	queue   time.Duration
	exec    time.Duration
}

// tally accumulates one worker's observations. Workers own private
// tallies; the runner merges them after the run (histogram merge, not
// percentile averaging), so recording is uncontended.
type tally struct {
	mu               sync.Mutex // taken only on the open-loop shared path
	counts           Counts
	e2e, queue, exec metrics.Histogram
	perSec           []uint64
}

func (ta *tally) add(start time.Time, o outcome) {
	ta.counts.Sent++
	switch o.status {
	case client.StatusCommit:
		ta.counts.Committed++
		ta.counts.Retries += uint64(o.retries)
		ta.e2e.Record(o.e2e)
		ta.queue.Record(o.queue)
		ta.exec.Record(o.exec)
	case client.StatusRejected:
		ta.counts.Rejected++
	case client.StatusShed:
		ta.counts.Shed++
	case client.StatusExpired:
		ta.counts.Expired++
	case client.StatusAbort:
		ta.counts.Aborted++
	case client.StatusCanceled:
		ta.counts.Canceled++
	default:
		ta.counts.Errors++
	}
	switch o.status {
	case client.StatusCommit, client.StatusAbort, client.StatusCanceled, client.StatusExpired:
		if sec := int(time.Since(start) / time.Second); sec >= 0 && sec < maxPerSecond {
			for sec >= len(ta.perSec) {
				ta.perSec = append(ta.perSec, 0)
			}
			ta.perSec[sec]++
		}
	}
}

// merge folds o into ta (post-run, single-threaded).
func (ta *tally) merge(o *tally) {
	ta.counts.Add(o.counts)
	ta.e2e.Merge(&o.e2e)
	ta.queue.Merge(&o.queue)
	ta.exec.Merge(&o.exec)
	for i, n := range o.perSec {
		for i >= len(ta.perSec) {
			ta.perSec = append(ta.perSec, 0)
		}
		ta.perSec[i] += n
	}
}

func (ta *tally) result(elapsed time.Duration) Result {
	return Result{
		ElapsedNS: int64(elapsed),
		Counts:    ta.counts,
		Latency:   ta.e2e.Data(),
		Queue:     ta.queue.Data(),
		Exec:      ta.exec.Data(),
		PerSecond: ta.perSec,
	}
}

// Prepared is a spec with its expensive setup done: requests generated
// and connections dialed. Splitting preparation from Run keeps workload
// generation and dialing off the coordinator's synchronized start
// barrier, so agents begin offering load at the same instant.
type Prepared struct {
	spec   Spec
	perWkr [][]client.Request // closed: per submitter; open: single stream
	conns  []client.WireConn
}

// Prepare generates the spec's request streams and dials its sockets.
func Prepare(spec Spec) (*Prepared, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Prepared{spec: spec}
	if spec.Mode == "closed" {
		perClient := (spec.N + spec.Clients - 1) / spec.Clients
		p.perWkr = make([][]client.Request, spec.Clients)
		left := spec.N
		for ci := range p.perWkr {
			n := perClient
			if n > left {
				n = left
			}
			left -= n
			reqs, err := makeRequests(spec, n, spec.Seed+int64(ci)*7919)
			if err != nil {
				return nil, err
			}
			p.perWkr[ci] = reqs
		}
	} else {
		reqs, err := makeRequests(spec, spec.N, spec.Seed)
		if err != nil {
			return nil, err
		}
		p.perWkr = [][]client.Request{reqs}
	}
	nconns := spec.Conns
	if spec.Mode == "closed" && nconns == 0 && !spec.Reliable {
		if spec.pipelined() {
			// Pipelined clients multiplex many submitters per socket;
			// one connection per client would waste the whole point.
			nconns = spec.Clients
			if nconns > 16 {
				nconns = 16
			}
		} else {
			nconns = spec.Clients
		}
	}
	for i := 0; i < nconns; i++ {
		c, err := dialConn(spec)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("bench: dial %s: %w", spec.Addr, err)
		}
		p.conns = append(p.conns, c)
	}
	return p, nil
}

// Close releases the prepared connections.
func (p *Prepared) Close() {
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// makeRequests pre-generates a submission stream so encoding cost stays
// off the timed path. Zero-length streams are valid (a client with no
// share of N).
func makeRequests(spec Spec, n int, seed int64) ([]client.Request, error) {
	if n == 0 {
		return nil, nil
	}
	g := workload.YCSB{
		Records: spec.Records, Theta: spec.Theta, OpsPerTxn: spec.OpsPerTxn,
		ReadRatio: spec.ReadRatio, RMW: spec.RMW,
		Txns: n, Seed: seed,
	}
	w := g.Generate()
	if spec.Shards > 1 {
		shard.Confine(w, spec.Shards, spec.MultiKey, uint64(spec.Records), seed)
	}
	reqs := make([]client.Request, len(w))
	for i, t := range w {
		req, err := client.NewRequest(0, t)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	if spec.DeadlineMS > 0 || spec.LowPri > 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x10ad))
		for i := range reqs {
			reqs[i].DeadlineMS = spec.DeadlineMS
			if spec.LowPri > 0 && rng.Float64() < spec.LowPri {
				reqs[i].Priority = 1
			}
		}
	}
	return reqs, nil
}

// Run executes the prepared load. When startAt is non-zero, the runner
// sleeps until that wall-clock instant first — the coordinator's
// synchronized barrier. The context aborts the run (agent "stop").
func (p *Prepared) Run(ctx context.Context, startAt time.Time) (Result, error) {
	if !startAt.IsZero() {
		if d := time.Until(startAt); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		}
	}
	switch p.spec.Mode {
	case "closed":
		return p.runClosed(ctx)
	default:
		return p.runOpen(ctx)
	}
}

// runClosed drives the submitters, each submit-wait-repeat. A rejected
// or shed submission backs off by the server's retry-after hint and
// retries; an expired one is terminal — its deadline budget is spent,
// so retrying it is exactly the wasted work deadlines exist to avoid.
// With Reliable set each submitter is a ReliableConn: rejections,
// reconnects and resubmissions happen inside Submit under a stable
// idempotency key, so the loop survives a server crash-restart.
func (p *Prepared) runClosed(ctx context.Context) (Result, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		werr    error
		total   tally
		timeout = p.spec.Timeout()
	)
	tallies := make([]tally, len(p.perWkr))
	start := time.Now()
	for ci := range p.perWkr {
		if len(p.perWkr[ci]) == 0 {
			continue
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ta := &tallies[ci]
			var err error
			if p.spec.Reliable {
				// Zero Seed: fresh idempotency keyspace every run. Deriving
				// it from the spec seed would make a re-run against a
				// durable server an all-duplicate no-op — the dedup window
				// would answer every submission from cache.
				var policy client.RetryPolicy
				if p.spec.pipelined() {
					spec := p.spec
					policy.Dial = func(addr string) (client.WireConn, error) {
						return client.DialPipelined(addr, client.PipelineConfig{
							Proto: spec.wireProto(), Window: spec.Window,
						})
					}
				}
				rc := client.DialReliable(p.spec.Addr, policy)
				defer rc.Close()
				err = p.closedLoopReliable(ctx, rc, p.perWkr[ci], start, timeout, ta)
			} else {
				conn := p.conns[ci%len(p.conns)]
				err = p.closedLoop(ctx, conn, p.perWkr[ci], start, timeout, ta)
			}
			if err != nil {
				mu.Lock()
				if werr == nil {
					werr = err
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if werr != nil {
		return Result{}, werr
	}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total.result(elapsed), nil
}

func (p *Prepared) closedLoop(ctx context.Context, conn client.WireConn, reqs []client.Request, start time.Time, timeout time.Duration, ta *tally) error {
	for _, req := range reqs {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			o, err := submitOne(ctx, conn, req, timeout)
			if err != nil {
				return err
			}
			ta.add(start, o)
			if o.status != client.StatusRejected && o.status != client.StatusShed {
				break
			}
			// Backpressure: honor the hint, then resubmit.
			backoff := time.Duration(max64(1, o.raMS)) * time.Millisecond
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

func (p *Prepared) closedLoopReliable(ctx context.Context, rc *client.ReliableConn, reqs []client.Request, start time.Time, timeout time.Duration, ta *tally) error {
	for _, req := range reqs {
		sctx, cancel := context.WithTimeout(ctx, timeout)
		t0 := time.Now()
		resp, err := rc.Submit(sctx, req)
		cancel()
		if err != nil {
			return err
		}
		ta.add(start, outcome{
			status: resp.Status, retries: resp.Retries, raMS: resp.RetryAfterMS,
			e2e:   time.Since(t0),
			queue: time.Duration(resp.QueueUS) * time.Microsecond,
			exec:  time.Duration(resp.ExecUS) * time.Microsecond,
		})
	}
	return nil
}

// runOpen offers load at a fixed rate: arrivals fire on schedule
// regardless of outstanding responses, spread round-robin over the
// connection pool. Rejections are recorded, not retried — in an open
// system the arrival is lost offered load, which is exactly what the
// rejection rate measures. Submission failures count as errors rather
// than aborting: under deliberate overload a dropped connection is a
// data point, not a harness bug.
func (p *Prepared) runOpen(ctx context.Context) (Result, error) {
	reqs := p.perWkr[0]
	rng := rand.New(rand.NewSource(p.spec.Seed))
	mean := float64(time.Second) / p.spec.Rate
	poisson := p.spec.Arrival != "uniform"
	timeout := p.spec.Timeout()

	// Arrival goroutines land on per-conn tallies under short locks;
	// per-worker exclusivity is impossible when each arrival is its own
	// goroutine, but per-conn sharding keeps contention negligible and
	// the merge-not-average discipline intact.
	tallies := make([]tally, len(p.conns))
	var (
		wg    sync.WaitGroup
		start = time.Now()
		next  = start
	)
	for i := range reqs {
		var gap time.Duration
		if poisson {
			gap = time.Duration(rng.ExpFloat64() * mean)
		} else {
			gap = time.Duration(mean)
		}
		next = next.Add(gap)
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				return Result{}, ctx.Err()
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			return Result{}, ctx.Err()
		}
		ci := i % len(p.conns)
		wg.Add(1)
		go func(ci int, req client.Request) {
			defer wg.Done()
			o, err := submitOne(ctx, p.conns[ci], req, timeout)
			if err != nil {
				o = outcome{status: "error"}
			}
			ta := &tallies[ci]
			ta.mu.Lock()
			ta.add(start, o)
			ta.mu.Unlock()
		}(ci, reqs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total tally
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total.result(elapsed), nil
}

// submitOne submits and converts the response into an outcome.
func submitOne(ctx context.Context, conn client.WireConn, req client.Request, timeout time.Duration) (outcome, error) {
	sctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	t0 := time.Now()
	resp, err := conn.Submit(sctx, req)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		status: resp.Status, retries: resp.Retries, raMS: resp.RetryAfterMS,
		e2e:   time.Since(t0),
		queue: time.Duration(resp.QueueUS) * time.Microsecond,
		exec:  time.Duration(resp.ExecUS) * time.Microsecond,
	}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// RunLocal prepares and runs a spec in-process — tskd-load's
// single-process path.
func RunLocal(ctx context.Context, spec Spec) (Result, error) {
	p, err := Prepare(spec)
	if err != nil {
		return Result{}, err
	}
	defer p.Close()
	return p.Run(ctx, time.Time{})
}
