package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/history"
	"tskd/internal/partition"
	"tskd/internal/shard"
	"tskd/internal/storage"
	"tskd/internal/txn"
)

func per(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// tracedRun produces the per-layer metrics. Counters come from the
// untraced closed phase the caller already ran (closed, l); then a
// second server is driven with tracing on — client-side spans, Stats
// sampling, fsync timing, and a history recorder whose serializability
// check is one of the run's output checks — and finally the same
// transactions are replayed layer by layer.
func tracedRun(s spec, cfg runConfig, in *inputs, l *loadgen, closed closedResult, tracedFor, replayFor time.Duration, m *metricSet, rec *runRecord) error {
	wall := func(name string, t0 time.Time) { rec.PhaseWall[name] = time.Since(t0).Seconds() }
	countersFromClosed(s, l, closed, m)

	t0 := time.Now()
	tp, err := tracedPass(s, cfg, in, tracedFor)
	if err != nil {
		return err
	}
	wall("traced-pass", t0)
	rec.Failures = append(rec.Failures, tp.failures...)
	m.set("server.queue_wait_p50_ms", ms(percentile(tp.queueWaits, 500)))
	m.set("server.queue_wait_p95_ms", ms(percentile(tp.queueWaits, 950)))
	m.set("wal.fsync_p50_ms", ms(percentile(tp.fsyncs, 500)))
	m.set("wal.fsync_p95_ms", ms(percentile(tp.fsyncs, 950)))
	m.set("trace.overhead_share", 1-per(tp.throughput, closed.Throughput))

	// The replay cuts the request stream into bundles of the size the
	// server actually formed: conflict analysis is quadratic in the
	// accessors of a key, so the bundle width is part of the input.
	n := int(math.Round(occupancy(s, closed) * float64(max(s.Shards, 1))))
	n = max(1, min(n, len(in.Reqs)))
	if cfg.Smoke {
		n = min(n, 32)
	}
	t0 = time.Now()
	tr := newTracer()
	rp, err := newReplayer(s, cfg.Seed, in, tr, cfg.DataRoot)
	if err != nil {
		return err
	}
	defer rp.close()
	if err := rp.run(n, replayFor); err != nil {
		return err
	}
	wall("replay", t0)
	replayMetrics(rp, closed, m)

	direct := 0.0
	if s.Shards > 1 {
		t0 = time.Now()
		if direct, err = submitDirect(s, cfg.Seed, in, min(replayFor, 2*time.Second)); err != nil {
			return err
		}
		wall("submit-direct", t0)
	}
	m.set("shard.submit_direct_txn_s", direct)

	self := map[string]float64{}
	for name, d := range selfByName(tr.spans) {
		self[name] = float64(d) / float64(time.Microsecond)
	}
	cs := tp.spans.recorded()
	path, err := writeTrace(cfg.TraceDir, &traceFile{
		Workload: s.Name, Seed: cfg.Seed, SelfUS: self, Spans: tr.spans,
		ClientSpans: cs[:min(len(cs), maxClientSpansWritten)], ClientSpansTotal: tp.spans.n.Load(),
		Stats: tp.samples,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Log, "benchmark: %s seed=%d: replayed %d bundles of %d; traced pass %.0f txn/s vs %.0f untraced; trace in %s\n",
		s.Name, cfg.Seed, rp.tot.Bundles, n, tp.throughput, closed.Throughput, path)
	return nil
}

// occupancy is the closed phase's mean bundle size, per pipeline.
func occupancy(s spec, c closedResult) float64 {
	bundles := float64(c.After.Bundles - c.Before.Bundles)
	if s.Shards > 1 {
		local := float64(c.After.Committed-c.Before.Committed) - float64(c.After.TwoPC.Committed-c.Before.TwoPC.Committed)
		return per(local, bundles)
	}
	return per(float64(c.After.ResultsStreamed-c.Before.ResultsStreamed), bundles)
}

// countersFromClosed sets the metrics that are deltas of the server's
// own counters over the untraced closed phase, and the client-side
// tallies of the whole untraced pass.
func countersFromClosed(s spec, l *loadgen, c closedResult, m *metricSet) {
	a, b := c.After, c.Before
	committed := float64(a.Committed - b.Committed)
	m.set("server.mean_bundle_occupancy", occupancy(s, c))
	m.set("server.bundles", float64(a.Bundles-b.Bundles))
	m.set("server.checkpoints", float64(a.Checkpoints-b.Checkpoints))
	m.set("server.truncated_segments", float64(a.TruncatedSegments-b.TruncatedSegments))
	m.set("engine.retries_per_100k", 1e5*per(float64(a.Retries-b.Retries), committed))
	m.set("engine.defers_per_100k", 1e5*per(float64(a.Defers-b.Defers), committed))
	m.set("engine.contended_per_100k", 1e5*per(float64(a.Contended-b.Contended), committed))
	m.set("wal.records_per_flush", per(float64(a.WALRecords-b.WALRecords), float64(a.WALFlushes-b.WALFlushes)))
	m.set("wal.syncs_per_txn", per(float64(a.WALSyncs-b.WALSyncs), committed))
	m.set("wal.bytes_per_txn", per(float64(a.WALBytes-b.WALBytes), committed))

	var cross, aborted, imbalance float64
	if a.TwoPC != nil {
		cross = per(float64(a.TwoPC.Committed-b.TwoPC.Committed), committed)
		aborted = per(float64(a.TwoPC.Aborted-b.TwoPC.Aborted), float64(a.TwoPC.Started-b.TwoPC.Started))
		var most, sum float64
		for i := range a.Shards {
			n := float64(a.Shards[i].Committed - b.Shards[i].Committed)
			most, sum = max(most, n), sum+n
		}
		imbalance = per(most, sum/float64(len(a.Shards)))
	}
	m.set("shard.cross_share", cross)
	m.set("shard.twopc_aborted_share", aborted)
	m.set("shard.imbalance", imbalance)

	t := &l.tally
	submits, attempted := float64(t.submits.Load()), float64(t.attempted.Load())
	m.set("server.rejected_share", per(float64(t.rejected.Load()), submits))
	m.set("server.shed_share", per(float64(t.shed.Load()), submits))
	m.set("client.resubmits_per_100k", 1e5*per(float64(t.rejected.Load()+t.shed.Load()), attempted))
	m.set("client.failed_share", per(float64(t.failed.Load()), attempted))
}

// tracedResult is what the traced served pass measured.
type tracedResult struct {
	throughput float64
	queueWaits []time.Duration // ascending; from the responses' queue_us
	fsyncs     []time.Duration // ascending
	spans      *clientSpans
	samples    []statsSample
	failures   []string
}

// tracedPass boots a second server with a history recorder and fsync
// timing, and runs the closed loop against it with a client-side span
// per transaction and the server's counters sampled ten times a second.
func tracedPass(s spec, cfg runConfig, in *inputs, d time.Duration) (*tracedResult, error) {
	rec := history.NewRecorder()
	fs := &syncTimer{}
	inst, err := boot(s, cfg.Seed, cfg.DataRoot, bootOptions{recorder: rec, fsync: fs})
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	l := newLoadgen(ctx, inst, in)

	t0 := time.Now()
	// Room for three times the untraced pass's pace; past that, spans
	// are counted but not kept.
	res := &tracedResult{spans: newClientSpans(4_000_000)}
	l.onDone = func(start, end time.Time, resp client.Response) {
		res.spans.add(clientSpan{
			Start: int64(start.Sub(t0)), End: int64(end.Sub(t0)),
			Bundle: resp.Bundle, QueueUS: resp.QueueUS, ExecUS: resp.ExecUS, Retries: resp.Retries,
		})
	}
	stopSampling := make(chan struct{})
	var sampling sync.WaitGroup
	sampling.Add(1)
	go func() {
		defer sampling.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case <-tick.C:
				st := inst.srv.Stats()
				res.samples = append(res.samples, statsSample{
					AtNS: int64(time.Since(t0)), Committed: st.Committed, Admitted: st.Admitted,
					Bundles: st.Bundles, QueueDepth: st.QueueDepth, Retries: st.Retries, WALSyncs: st.WALSyncs,
				})
			}
		}
	}()
	pt, _, _ := cfg.phases()
	closed := runClosed(inst, l, phaseTimes{Warmup: pt.Warmup / 2, Closed: d})
	close(stopSampling)
	sampling.Wait()
	res.throughput = closed.Throughput
	res.failures = checkServed(inst, l)
	if err := rec.Check(); err != nil {
		res.failures = append(res.failures, "serializability: "+err.Error())
	}
	if rec.Len() == 0 {
		res.failures = append(res.failures, "serializability: the recorder saw no commits")
	}
	for _, sp := range res.spans.recorded() {
		res.queueWaits = append(res.queueWaits, time.Duration(sp.QueueUS)*time.Microsecond)
	}
	res.queueWaits = sortedCopy(res.queueWaits)
	res.fsyncs = sortedCopy(fs.durations())
	return res, nil
}

// replayMetrics turns the replay's spans and counts into metrics.
func replayMetrics(rp *replayer, closed closedResult, m *metricSet) {
	self := selfByName(rp.tr.spans)
	tot := rp.tot
	txns, piped := float64(tot.Txns), float64(tot.Piped)
	usPer := func(name string, n float64) float64 {
		return per(float64(self[name])/float64(time.Microsecond), n)
	}
	nsPer := func(name string) float64 { return per(float64(self[name]), txns) }

	m.set("client.encode_request_ns_per_txn", nsPer(spanEncodeReq))
	m.set("client.decode_request_ns_per_txn", nsPer(spanDecodeReq))
	m.set("client.encode_response_ns_per_txn", nsPer(spanEncodeResp))
	m.set("client.decode_response_ns_per_txn", nsPer(spanDecodeResp))
	m.set("client.codec_allocs_per_txn", per(float64(tot.CodecMallocs), txns))

	m.set("conflict.build_us_per_txn", usPer(spanBuild, piped))
	m.set("conflict.edges_per_txn", per(float64(tot.Edges), piped))
	m.set("partition.partition_us_per_txn", usPer(spanPartition, piped)+usPer(spanExtract, piped))
	m.set("partition.residual_share", per(float64(tot.PlanResidual), piped))
	m.set("sched.generate_us_per_txn", usPer(spanGenerate, piped))
	m.set("sched.scheduled_pct", 100*per(float64(tot.Merged), float64(tot.InputResidual)))
	m.set("sched.residual_share", per(float64(tot.SchedResidual), piped))
	// overheadR as core.Result computes it: TSgen's time (with the
	// residual extraction it needs) over the partitioner's (with the
	// conflict graph it builds).
	m.set("sched.overhead_r", per(float64(self[spanGenerate]+self[spanExtract]), float64(self[spanBuild]+self[spanPartition])))
	m.set("engine.run_us_per_txn", usPer(spanEngine, piped))
	m.set("engine.drift_mean_abs_us", per(float64(tot.DriftAbs)/float64(time.Microsecond), float64(tot.DriftSpans)))
	m.set("engine.drift_overlaps_per_100k", 1e5*per(float64(tot.DriftOverlaps), piped))

	waits := sortedCopy(tot.AppendWaits)
	m.set("wal.append_wait_p50_ms", ms(percentile(waits, 500)))
	m.set("wal.append_wait_p95_ms", ms(percentile(waits, 950)))

	m.set("core.process_us_per_txn", usPer(spanProcess, piped))

	var layers, pipeline time.Duration
	for _, name := range codecSpans {
		layers += self[name]
	}
	for _, name := range pipelineSpans {
		layers += self[name]
		pipeline += self[name]
	}
	layersPerTxn := per(float64(layers)/float64(time.Microsecond), txns)
	e2e := per(1e6, closed.Throughput)
	m.set("trace.layers_sum_us_per_txn", layersPerTxn)
	m.set("trace.e2e_us_per_txn", e2e)
	m.set("trace.unattributed_share", 1-per(layersPerTxn, e2e))
	m.set("trace.replay_gap_share", per(math.Abs(float64(pipeline-self[spanProcess])), float64(self[spanProcess])))
}

// submitDirect measures the sharded runtime with no wire in front of
// it: the same transactions, decoded up front, through Runtime.Submit
// from the workload's in-flight count of callers.
func submitDirect(s spec, seed int64, in *inputs, d time.Duration) (float64, error) {
	gen := s.ycsb()
	rt, err := shard.Open(shard.Config{
		Shards:        s.Shards,
		DB:            func(int) *storage.DB { return gen.BuildDB() },
		Partitioner:   func(i int) partition.Partitioner { return partition.NewStrife(seed + int64(i)) },
		Bundle:        s.Bundle,
		FlushInterval: flushInterval,
		Core:          core.Options{Workers: workers, Protocol: ccProtocol, Seed: seed},
	})
	if err != nil {
		return 0, err
	}
	var (
		next      atomic.Uint64
		committed atomic.Uint64
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		firstErr  atomic.Value
	)
	for i := 0; i < s.InFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var req client.Request
			done := make(chan client.Response, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				frame := in.Frames[next.Add(1)%uint64(len(in.Frames))]
				for {
					// The runtime owns the transaction until done runs,
					// so each submission decodes a fresh one, as the
					// server's sharded path does.
					t := &txn.Transaction{}
					if err := client.DecodeRequestFrame(frame[4:], &req, t, nil); err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					rt.Submit(t, func(r client.Response) { done <- r })
					resp := <-done
					if resp.Status == client.StatusRejected {
						time.Sleep(time.Duration(max(resp.RetryAfterMS, 1)) * time.Millisecond)
						continue
					}
					if resp.Committed() {
						committed.Add(1)
					}
					break
				}
			}
		}()
	}
	time.Sleep(d / 4) // warm-up
	c0, t0 := committed.Load(), time.Now()
	time.Sleep(d)
	rate := float64(committed.Load()-c0) / time.Since(t0).Seconds()
	close(stop)
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		return 0, err
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, err
	}
	return rate, nil
}
