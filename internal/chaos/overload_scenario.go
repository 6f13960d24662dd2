package chaos

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"tskd/internal/chaos/faultio"
	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/history"
	"tskd/internal/server"
	"tskd/internal/storage"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// overload_scenario.go: the overload + WAL-stall scenario. A durable
// in-process server has its fsync device stalled (faultio.SlowSyncer)
// far past the circuit breaker's trip latency while a concurrent burst
// of deadline-carrying, mixed-priority submissions lands on it. The
// server is expected to degrade, not collapse: expire what it can no
// longer serve in time, shed what it cannot afford, trip the breaker
// and fail durable admissions fast with a retry hint — and then, once
// the stall clears, recover to full service. Invariants:
//
//   - a committed response means the submission executed exactly once
//     and its effects survive recovery (no acked-then-lost writes);
//   - an expired, shed, or rejected submission never executed at all —
//     in particular, zero expired transactions reach commit;
//   - the breaker trips at least once under the stall, fast-fails with
//     a positive retry-after while open, and is closed again by the
//     end of the recovery phase;
//   - everything committed is conflict-serializable, and the server's
//     counters, the recorder, and the recovered directory agree.
const overMarkerBase = 1 << 22

// overMarker is the unique marker row of submission (phase, c, i).
func overMarker(phase, c, i int) uint64 {
	return overMarkerBase + uint64(phase)<<16 + uint64(c)<<10 + uint64(i)
}

// overBaseDB is the initial store; pure so the read-only recovery
// audit can rebuild the exact seed state.
func overBaseDB() *workload.YCSB { return &workload.YCSB{Records: 2000} }

// runOverloadWALStall drives the overload + WAL-stall scenario for one
// seed.
func runOverloadWALStall(seed int64) Report {
	plan := NewPlan(seed)
	var v violations
	fail := func() Report { return report("overload-wal-stall", seed, plan.overloadSummary(), v) }

	root := os.Getenv(envKillDataRoot)
	if root == "" {
		root = os.TempDir()
	}
	dataDir, err := os.MkdirTemp(root, fmt.Sprintf("tskd-overload-%d-", seed))
	if err != nil {
		v.addf("mkdir data dir: %v", err)
		return fail()
	}
	defer func() {
		if len(v) == 0 {
			os.RemoveAll(dataDir)
		} else {
			fmt.Fprintf(os.Stderr, "chaos: overload-wal-stall seed %d failed, data dir kept at %s\n", seed, dataDir)
		}
	}()

	slow := &faultio.SlowSyncer{}
	rec := history.NewRecorder()
	srv, err := server.New(server.Config{
		Addr:          "127.0.0.1:0",
		Bundle:        16,
		FlushInterval: time.Millisecond,
		QueueDepth:    256,
		DB:            overBaseDB().BuildDB(),
		Core: core.Options{
			Workers: plan.Workers, Protocol: plan.Protocol,
			Recorder: rec, Seed: seed,
		},
		Durability: &server.DurabilityOptions{
			Dir:         dataDir,
			GroupWindow: time.Millisecond,
			// The scenario's device is fully synthetic: the SlowSyncer
			// keeps no inner barrier, so flush latency is exactly the
			// injected stall. Real fsync would add machine-dependent
			// noise — a loaded disk can exceed the 10ms trip latency on
			// its own and trip the breaker during the healthy phase —
			// and buys nothing here, since no phase crashes the process.
			WrapSyncer: func(wal.Syncer) wal.Syncer { return slow },
		},
		Overload: server.OverloadOptions{
			BreakerLatency:  10 * time.Millisecond,
			BreakerCooldown: 50 * time.Millisecond,
		},
	})
	if err != nil {
		v.addf("server: %v", err)
		return fail()
	}
	if err := srv.Start(); err != nil {
		v.addf("server start: %v", err)
		return fail()
	}

	type outcome struct {
		marker uint64
		status string
		retry  int64
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
	)
	record := func(o outcome) {
		mu.Lock()
		outcomes = append(outcomes, o)
		mu.Unlock()
	}
	submit := func(conn *client.PipelinedConn, req client.Request) (client.Response, bool) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		resp, err := conn.Submit(ctx, req)
		if err != nil {
			v.addf("submit: %v", err)
			return resp, false
		}
		return resp, true
	}

	conn, err := client.DialPipelined(srv.Addr(), client.PipelineConfig{})
	if err != nil {
		v.addf("dial: %v", err)
		return fail()
	}
	defer conn.Close()

	// Phase 0 — healthy device: durable commits flow, breaker closed,
	// nothing sheds or expires.
	for c := 0; c < plan.OverClients; c++ {
		for i := 0; i < 3; i++ {
			m := overMarker(0, c, i)
			req, err := client.NewRequest(0, plan.serverTxn(c, i, m))
			if err != nil {
				v.addf("phase 0 req: %v", err)
				return fail()
			}
			resp, ok := submit(conn, req)
			if !ok {
				return fail()
			}
			if resp.Status != client.StatusCommit {
				v.addf("phase 0 (%d,%d): status %s on a healthy server, want commit", c, i, resp.Status)
			}
			record(outcome{marker: m, status: resp.Status})
		}
	}

	// Phase 1 — the stall lands, and with it the burst: every fsync now
	// takes OverStall (far past the 10ms trip latency), while
	// OverClients x OverBurst deadline-carrying submissions arrive
	// concurrently. Each must terminate as a commit, an expiry, a shed,
	// or a breaker/queue rejection — never hang, never vanish.
	slow.SetDelay(plan.OverStall)
	var wg sync.WaitGroup
	errs := make(chan string, plan.OverClients)
	for c := 0; c < plan.OverClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bc, err := client.DialPipelined(srv.Addr(), client.PipelineConfig{})
			if err != nil {
				errs <- fmt.Sprintf("phase 1 client %d dial: %v", c, err)
				return
			}
			defer bc.Close()
			for i := 0; i < plan.OverBurst; i++ {
				m := overMarker(1, c, i)
				req, err := client.NewRequest(0, plan.serverTxn(c, i, m))
				if err != nil {
					errs <- fmt.Sprintf("phase 1 client %d req: %v", c, err)
					return
				}
				req.DeadlineMS = plan.OverDeadlineMS
				if plan.lowPriority(c, i) {
					req.Priority = 1
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				resp, err := bc.Submit(ctx, req)
				cancel()
				if err != nil {
					errs <- fmt.Sprintf("phase 1 client %d submit: %v", c, err)
					return
				}
				record(outcome{marker: m, status: resp.Status, retry: resp.RetryAfterMS})
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		v.addf("%s", msg)
	}
	if len(v) > 0 {
		return fail()
	}

	// Phase 2 — still stalled: durable admissions must fail fast. Any
	// admission that does slip through (a half-open probe) commits
	// behind a slow flush and re-trips the breaker, so within a bounded
	// number of sequential submissions one must be rejected with a
	// retry-after hint.
	sawReject := false
	for i := 0; i < 100 && !sawReject; i++ {
		m := overMarker(2, 0, i)
		req, err := client.NewRequest(0, plan.serverTxn(0, i, m))
		if err != nil {
			v.addf("phase 2 req: %v", err)
			return fail()
		}
		resp, ok := submit(conn, req)
		if !ok {
			return fail()
		}
		record(outcome{marker: m, status: resp.Status, retry: resp.RetryAfterMS})
		switch resp.Status {
		case client.StatusRejected:
			sawReject = true
			if resp.RetryAfterMS < 1 {
				v.addf("open-breaker rejection carries no retry hint")
			}
		case client.StatusCommit, client.StatusShed:
		default:
			v.addf("phase 2 submission %d: unexpected status %s", i, resp.Status)
		}
	}
	if !sawReject {
		v.addf("breaker never fast-failed an admission while the device was stalled")
	}

	// Phase 3 — the stall clears. The breaker half-opens after its
	// cooldown, a probe's fast flush closes it, the shed level decays,
	// and commits flow again: every recovery submission must commit
	// within a bounded number of retries.
	slow.SetDelay(0)
	for i := 0; i < 6; i++ {
		m := overMarker(3, 0, i)
		committed := false
		for try := 0; try < 300 && !committed; try++ {
			req, err := client.NewRequest(0, plan.serverTxn(0, i, m))
			if err != nil {
				v.addf("phase 3 req: %v", err)
				return fail()
			}
			resp, ok := submit(conn, req)
			if !ok {
				return fail()
			}
			if resp.Status == client.StatusCommit {
				record(outcome{marker: m, status: resp.Status})
				committed = true
				break
			}
			backoff := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if backoff < 2*time.Millisecond {
				backoff = 2 * time.Millisecond
			}
			time.Sleep(backoff)
		}
		if !committed {
			v.addf("recovery submission %d never committed after the stall cleared", i)
		}
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		v.addf("shutdown: %v", err)
	}
	st := srv.Stats()

	// The breaker must have tripped under the stall and recovered by
	// the end: the last thing that happened to it was a fast, clean
	// probe flush.
	if st.BreakerTrips < 1 {
		v.addf("breaker never tripped under a %s fsync stall", plan.OverStall)
	}
	if len(v) == 0 && st.BreakerState != "closed" {
		v.addf("breaker %s after recovery, want closed", st.BreakerState)
	}

	// Reconcile the recorder with the client-visible outcomes: a commit
	// executed exactly once, everything else never.
	installs := make(map[uint64]int)
	for _, e := range rec.Events() {
		for _, w := range e.Writes {
			if w.Key.Table() == workload.YCSBTable && w.Key.Row() >= overMarkerBase {
				installs[w.Key.Row()]++
			}
		}
	}
	committedSet := make(map[uint64]bool)
	var expiredSeen uint64
	for _, o := range outcomes {
		n := installs[o.marker]
		switch o.status {
		case client.StatusCommit:
			committedSet[o.marker] = true
			if n != 1 {
				v.addf("exactly-once: committed marker %d installed %d times", o.marker, n)
			}
		case client.StatusExpired:
			expiredSeen++
			if n != 0 {
				v.addf("expired marker %d executed %d times — expired work reached commit", o.marker, n)
			}
		case client.StatusShed:
			if o.retry <= 0 {
				v.addf("shed without retry-after (marker %d)", o.marker)
			}
			if n != 0 {
				v.addf("shed marker %d executed %d times", o.marker, n)
			}
		case client.StatusRejected:
			if o.retry <= 0 {
				v.addf("rejection without retry-after (marker %d)", o.marker)
			}
			if n != 0 {
				v.addf("rejected marker %d executed %d times", o.marker, n)
			}
		default:
			v.addf("unexpected status %q (marker %d)", o.status, o.marker)
		}
	}

	// Counter reconciliation across the three views of the run.
	if st.ResultsStreamed != st.Admitted {
		v.addf("results %d for %d admitted", st.ResultsStreamed, st.Admitted)
	}
	if uint64(rec.Len()) != st.Committed {
		v.addf("recorder has %d commits, server counted %d", rec.Len(), st.Committed)
	}
	if st.Expired != expiredSeen {
		v.addf("server counted %d expired, clients saw %d", st.Expired, expiredSeen)
	}
	if err := rec.Check(); err != nil {
		v.addf("serializability: %v", err)
	}

	// Durability audit: recover the directory read-only. Every
	// acknowledged commit's marker must survive at version 1 (acked
	// then lost / double-applied), and no marker may exist that was not
	// acknowledged (refused work must leave no trace).
	db, _, _, err := server.Recover(dataDir, overBaseDB().BuildDB())
	if err != nil {
		v.addf("recover: %v", err)
		return fail()
	}
	tbl := db.Table(workload.YCSBTable)
	for marker := range committedSet {
		row := tbl.Get(marker)
		if row == nil {
			v.addf("lost acked commit: marker %d missing after recovery", marker)
			continue
		}
		if n := storage.VerNumber(row.Ver.Load()); n != 1 {
			v.addf("marker %d at version %d, want 1 (double apply)", marker, n)
		}
	}
	tbl.Scan(overMarkerBase, ^uint64(0), func(r *storage.Row) bool {
		if !committedSet[r.Key.Row()] {
			v.addf("phantom marker %d durable without an acknowledged commit", r.Key.Row())
		}
		return true
	})
	return fail()
}
