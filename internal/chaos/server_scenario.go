package chaos

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/history"
	"tskd/internal/server"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

const (
	serverClients = 3
	serverSubs    = 40 // submissions per client
	// Marker rows live far above the YCSB key space: every submission
	// inserts one unique marker row, so the recorder proves how many
	// times that submission executed — the at-most-once/exactly-once
	// evidence that survives a dropped connection.
	liveMarkerBase  = 1 << 20
	burstMarkerBase = 1 << 21
)

func liveMarker(c, i int) uint64 {
	return liveMarkerBase + uint64(c)*1000 + uint64(i)
}

func burstMarker(c, i, j int) uint64 {
	return burstMarkerBase + (uint64(c)*1000+uint64(i))*32 + uint64(j)
}

// serverTxn builds one contended submission: a few hot-key operations
// plus the unique marker insert.
func (p Plan) serverTxn(c, i int, marker uint64) *txn.Transaction {
	t := txn.New(0)
	for j := 0; j < 4; j++ {
		k := p.hotKey(workload.YCSBTable, c, i, j)
		if j%2 == 0 {
			t.R(k)
		} else {
			t.U(k, 1)
		}
	}
	return t.I(txn.MakeKey(workload.YCSBTable, marker))
}

// dropSend fires a submission on a throwaway connection and slams it
// shut without reading the response — the injected connection drop.
// The server may or may not have admitted the transaction by the time
// the close lands; either way its outcome must not be lost *and* it
// must not execute twice.
func dropSend(addr string, req client.Request) error {
	ops, err := txn.ParseOps(nil, req.Ops)
	if err != nil {
		return err
	}
	msg, err := client.AppendRequestFrame([]byte(client.BinPreamble), &req, ops)
	if err != nil {
		return err
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	_, err = nc.Write(msg)
	return err
}

// runServerFaults drives a loopback server with concurrent clients
// under connection drops and queue-full bursts, then reconciles three
// views of the run — client-visible statuses, server counters, and the
// recorder — and checks serializability across bundles. Invariants:
//
//   - a committed response means the submission executed exactly once
//     (its marker row was installed by exactly one commit);
//   - a rejected response carries a retry-after hint and the
//     submission never executed at all;
//   - a dropped connection's submission executed at most once — lost
//     to the client, never duplicated by the server;
//   - every admitted transaction commits (graceful drain loses
//     nothing) and the recorder agrees with the server's counters.
func runServerFaults(seed int64) Report {
	plan := NewPlan(seed)
	var v violations
	ycsb := workload.YCSB{Records: 2000, Theta: 0.9, OpsPerTxn: 8, ReadRatio: 0.5, RMW: true}
	rec := history.NewRecorder()
	srv, err := server.New(server.Config{
		Addr:          "127.0.0.1:0",
		Bundle:        16,
		FlushInterval: time.Millisecond,
		QueueDepth:    plan.QueueDepth,
		DB:            ycsb.BuildDB(),
		Core: core.Options{
			Workers: plan.Workers, Protocol: plan.Protocol,
			Recorder: rec, Hooks: plan.EngineHooks(), Seed: seed,
		},
	})
	if err != nil {
		v.addf("server: %v", err)
		return report("server-faults", seed, plan.serverSummary(), v)
	}
	if err := srv.Start(); err != nil {
		v.addf("server start: %v", err)
		return report("server-faults", seed, plan.serverSummary(), v)
	}

	type outcome struct {
		marker uint64
		status string // commit | rejected | dropped
		retry  int64
	}
	results := make(chan outcome, serverClients*serverSubs*(1+24))
	fail := make(chan string, serverClients)
	var wg sync.WaitGroup
	for c := 0; c < serverClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := client.DialPipelined(srv.Addr(), client.PipelineConfig{})
			if err != nil {
				fail <- fmt.Sprintf("client %d dial: %v", c, err)
				return
			}
			defer conn.Close()
			for i := 0; i < serverSubs; i++ {
				marker := liveMarker(c, i)
				req, err := client.NewRequest(0, plan.serverTxn(c, i, marker))
				if err != nil {
					fail <- fmt.Sprintf("client %d req: %v", c, err)
					return
				}
				if plan.dropSubmission(c, i) {
					if err := dropSend(srv.Addr(), req); err != nil {
						fail <- fmt.Sprintf("client %d drop-send: %v", c, err)
						return
					}
					results <- outcome{marker: marker, status: "dropped"}
				} else {
					resp, err := conn.Submit(context.Background(), req)
					if err != nil {
						fail <- fmt.Sprintf("client %d submit: %v", c, err)
						return
					}
					results <- outcome{marker: marker, status: resp.Status, retry: resp.RetryAfterMS}
				}
				// Queue-full burst: a blast of concurrent submissions on
				// the same connection; each must terminate as a commit or
				// an explicit rejection, never hang or vanish.
				if plan.BurstEvery > 0 && i%plan.BurstEvery == plan.BurstEvery-1 {
					var bw sync.WaitGroup
					for j := 0; j < plan.BurstSize; j++ {
						bw.Add(1)
						go func(j int) {
							defer bw.Done()
							m := burstMarker(c, i, j)
							req, err := client.NewRequest(0, plan.serverTxn(c, i, m))
							if err != nil {
								fail <- fmt.Sprintf("client %d burst req: %v", c, err)
								return
							}
							resp, err := conn.Submit(context.Background(), req)
							if err != nil {
								fail <- fmt.Sprintf("client %d burst submit: %v", c, err)
								return
							}
							results <- outcome{marker: m, status: resp.Status, retry: resp.RetryAfterMS}
						}(j)
					}
					bw.Wait()
				}
			}
		}(c)
	}
	wg.Wait()
	close(results)
	close(fail)
	for msg := range fail {
		v.addf("%s", msg)
	}

	// Graceful drain: everything admitted — including submissions whose
	// connection died — must still execute.
	if err := srv.Shutdown(context.Background()); err != nil {
		v.addf("shutdown: %v", err)
	}

	// How many commits installed each marker row, per the recorder.
	installs := make(map[uint64]int)
	for _, e := range rec.Events() {
		for _, w := range e.Writes {
			if w.Key.Table() == workload.YCSBTable && w.Key.Row() >= liveMarkerBase {
				installs[w.Key.Row()]++
			}
		}
	}

	for o := range results {
		n := installs[o.marker]
		switch o.status {
		case client.StatusCommit:
			if n != 1 {
				v.addf("exactly-once: committed marker %d installed %d times", o.marker, n)
			}
		case client.StatusRejected:
			if o.retry <= 0 {
				v.addf("rejection without retry-after (marker %d)", o.marker)
			}
			if n != 0 {
				v.addf("rejected marker %d executed %d times", o.marker, n)
			}
		case client.StatusShed:
			// The adaptive shedder may engage if the bursts hold a
			// standing queue; a shed submission backs off and never ran.
			if o.retry <= 0 {
				v.addf("shed without retry-after (marker %d)", o.marker)
			}
			if n != 0 {
				v.addf("shed marker %d executed %d times", o.marker, n)
			}
		case "dropped":
			if n > 1 {
				v.addf("at-most-once: dropped marker %d executed %d times", o.marker, n)
			}
		default:
			v.addf("unexpected status %q (marker %d)", o.status, o.marker)
		}
	}

	// Reconcile the server's counters with the recorder.
	st := srv.Stats()
	if st.Committed != st.Admitted {
		v.addf("drain lost work: admitted %d, committed %d", st.Admitted, st.Committed)
	}
	if st.ResultsStreamed != st.Admitted {
		v.addf("results %d for %d admitted", st.ResultsStreamed, st.Admitted)
	}
	if uint64(rec.Len()) != st.Committed {
		v.addf("recorder has %d commits, server counted %d", rec.Len(), st.Committed)
	}
	if err := rec.Check(); err != nil {
		v.addf("serializability: %v", err)
	}
	return report("server-faults", seed, plan.serverSummary(), v)
}
