// Package bench is tskd-load's load generator: closed- or open-loop
// generation against a tskd-serve address (Prepare/Run, RunLocal),
// with per-worker tallies whose latency histograms are merged — never
// averaged — into whole-population percentiles (Merge).
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
// and the YCSB workload shape. Every connection is a pipelined binary
// one.
type Spec struct {
	Addr    string
	Mode    string  // "closed" or "open"
	Clients int     // closed-loop submitters
	Conns   int     // sockets; closed mode 0 = one per client, at most 16
	Rate    float64 // open-loop target arrival rate, txn/s
	Arrival string  // open-loop: "poisson" or "uniform"
	N       int     // transactions to submit

	TimeoutMS int64 // per-submission timeout

	Records   int
	Theta     float64
	OpsPerTxn int
	ReadRatio float64
	RMW       bool
	Seed      int64

	Reliable bool // closed loop via ReliableConn

	// Window caps in-flight submissions per connection (0 = client
	// default).
	Window int

	Shards   int     // server shard count for key confinement
	MultiKey float64 // fraction of txns spanning 2+ shards

	DeadlineMS int64
	LowPri     float64
}

// Timeout returns the per-submission timeout with a sane default.
func (s Spec) Timeout() time.Duration {
	if s.TimeoutMS <= 0 {
		return 30 * time.Second
	}
	return time.Duration(s.TimeoutMS) * time.Millisecond
}

// Validate rejects specs that cannot run.
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
	if s.Window < 0 {
		return fmt.Errorf("bench: spec: window must be >= 0")
	}
	return nil
}

// dial opens one load connection.
func (s Spec) dial(addr string) (client.WireConn, error) {
	return client.DialPipelined(addr, client.PipelineConfig{Window: s.Window})
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
// and connections dialed, so neither is on the timed path of Run.
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
		// Pipelined connections multiplex many submitters per socket;
		// one connection per client would waste the whole point.
		nconns = min(spec.Clients, 16)
	}
	for i := 0; i < nconns; i++ {
		c, err := spec.dial(spec.Addr)
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

// Run executes the prepared load. The context aborts the run.
func (p *Prepared) Run(ctx context.Context) (Result, error) {
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
				rc := client.DialReliable(p.spec.Addr, client.RetryPolicy{Dial: p.spec.dial})
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
	return p.Run(ctx)
}
