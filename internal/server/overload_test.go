package server

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"tskd/internal/chaos/faultio"
	"tskd/internal/client"
	"tskd/internal/history"
	"tskd/internal/overload"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// TestDeadlineExpiredOnArrival: a request whose deadline budget is
// already negative is answered StatusExpired at submission, without
// ever being admitted.
func TestDeadlineExpiredOnArrival(t *testing.T) {
	s, ycsb := startServer(t, nil)
	defer s.Shutdown(context.Background())

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := genRequests(t, ycsb, 1, 42)[0]
	req.DeadlineMS = -1
	resp, err := conn.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != client.StatusExpired {
		t.Fatalf("status %q, want %q", resp.Status, client.StatusExpired)
	}
	st := s.Stats()
	if st.Expired != 1 || st.Admitted != 0 {
		t.Fatalf("expired=%d admitted=%d, want 1/0", st.Expired, st.Admitted)
	}
}

// startShards boots startServer's configuration over one shard, or
// startSharded's over several.
func startShards(t *testing.T, shards int, mut func(*Config)) (*Server, workload.YCSB) {
	if shards <= 1 {
		return startServer(t, mut)
	}
	return startSharded(t, shards, mut)
}

// localRequests builds n requests that each stay on one shard of a
// shards-shard server.
func localRequests(t *testing.T, ycsb workload.YCSB, shards, n int, seed int64) []client.Request {
	if shards <= 1 {
		return genRequests(t, ycsb, n, seed)
	}
	reqs, _ := genShardedRequests(t, ycsb, shards, n, 0, seed)
	return reqs
}

// TestDeadlineExpiresAtBundleFormation: a deadline shorter than the
// bundle flush interval passes while the transaction queues, so the
// unit drops it at formation — StatusExpired on the wire, nothing
// executed, nothing committed, and the admission still answered
// (ResultsStreamed counts it). It carries the ordering assertion too: a
// client that holds its response finds it counted, because the unit
// counts before it answers.
func TestDeadlineExpiresAtBundleFormation(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rec := history.NewRecorder()
			s, ycsb := startShards(t, shards, func(c *Config) {
				c.FlushInterval = 50 * time.Millisecond
				c.Core.Recorder = rec
			})
			defer s.Shutdown(context.Background())

			conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			req := localRequests(t, ycsb, shards, 1, 43)[0]
			req.DeadlineMS = 1 // << 50ms flush interval
			resp, err := conn.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != client.StatusExpired {
				t.Fatalf("status %q, want %q", resp.Status, client.StatusExpired)
			}
			st := s.Stats()
			if st.Expired != 1 || st.Committed != 0 {
				t.Fatalf("expired=%d committed=%d, want 1/0", st.Expired, st.Committed)
			}
			if st.Admitted != 1 || st.ResultsStreamed != 1 || st.Forfeited != 0 {
				t.Fatalf("admitted=%d results=%d forfeited=%d, want 1/1/0", st.Admitted, st.ResultsStreamed, st.Forfeited)
			}
			if rec.Len() != 0 {
				t.Fatalf("recorder has %d commits: an expired transaction executed", rec.Len())
			}
		})
	}
}

// TestDefaultDeadlineApplies: Overload.DefaultDeadline stamps requests
// that carry no deadline of their own.
func TestDefaultDeadlineApplies(t *testing.T) {
	s, ycsb := startServer(t, func(c *Config) {
		c.FlushInterval = 50 * time.Millisecond
		c.Overload.DefaultDeadline = time.Millisecond
	})
	defer s.Shutdown(context.Background())

	conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	resp, err := conn.Submit(context.Background(), genRequests(t, ycsb, 1, 44)[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != client.StatusExpired {
		t.Fatalf("status %q, want %q", resp.Status, client.StatusExpired)
	}
}

// TestShedSaturationAndBrownout forces the controller to a known level
// and checks the whole shedding surface: low priority sheds
// deterministically with a positive retry hint, high priority still
// gets through (and commits), and the first bundle formed while
// saturated flips its unit into brownout mode.
func TestShedSaturationAndBrownout(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, ycsb := startShards(t, shards, func(c *Config) {
				c.Overload.ShedWindow = time.Millisecond
			})
			defer s.Shutdown(context.Background())

			conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			reqs := localRequests(t, ycsb, shards, 202, 45)

			// Level 0: nothing sheds, regardless of priority.
			req := reqs[0]
			req.Priority = 1
			resp, err := conn.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Committed() {
				t.Fatalf("healthy low-priority submit: status %q", resp.Status)
			}

			// Drive the controller to level 0.8 by hand: arm the standing
			// queue, wait out the (1ms) window, then two max-step
			// increments.
			s.shed.Observe(time.Second)
			time.Sleep(5 * time.Millisecond)
			s.shed.Observe(time.Second)
			s.shed.Observe(time.Second)
			if lv := s.shed.Level(); lv < 0.79 || lv > 0.81 {
				t.Fatalf("shed level %v, want 0.8", lv)
			}

			// At level 0.8 the low-priority drop probability is 1: sheds
			// deterministically, with a backoff hint.
			req = reqs[1]
			req.Priority = 1
			resp, err = conn.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != client.StatusShed {
				t.Fatalf("saturated low-priority submit: status %q, want %q", resp.Status, client.StatusShed)
			}
			if resp.RetryAfterMS < 1 {
				t.Fatalf("shed response carries no retry hint: %d", resp.RetryAfterMS)
			}

			// High priority drops at 0.6: retry until one is admitted. Its
			// bundle forms while the controller is saturated, entering
			// brownout — and still commits.
			committed := false
			for _, hi := range reqs[2:] {
				if committed {
					break
				}
				resp, err = conn.Submit(context.Background(), hi)
				if err != nil {
					t.Fatal(err)
				}
				switch resp.Status {
				case client.StatusCommit:
					committed = true
				case client.StatusShed:
				default:
					t.Fatalf("high-priority submit: status %q", resp.Status)
				}
			}
			if !committed {
				t.Fatal("no high-priority submission admitted in 200 tries at level 0.8")
			}

			st := s.Stats()
			if st.Shed < 1 {
				t.Fatalf("shed counter %d, want >= 1", st.Shed)
			}
			if !st.Brownout || st.BrownoutEnters < 1 {
				t.Fatalf("brownout=%v enters=%d, want engaged", st.Brownout, st.BrownoutEnters)
			}
			found := false
			for _, ev := range st.OverloadEvents {
				if ev.Kind == "brownout" && ev.Detail == "enter" {
					found = true
				}
			}
			if !found {
				t.Fatalf("no brownout-enter event in %v", st.OverloadEvents)
			}
		})
	}
}

// slowLogs hands every log segment its own faultio.SlowSyncer and stalls
// them all together.
type slowLogs struct {
	mu    sync.Mutex
	all   []*faultio.SlowSyncer
	delay time.Duration
}

func (l *slowLogs) wrap(in wal.Syncer) wal.Syncer {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &faultio.SlowSyncer{}
	s.SetInner(in)
	s.SetDelay(l.delay)
	l.all = append(l.all, s)
	return s
}

func (l *slowLogs) setDelay(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.delay = d
	for _, s := range l.all {
		s.SetDelay(d)
	}
}

// TestBreakerFastFailAndRecovery stalls the WAL's fsync under a durable
// server: the slow group flush trips the breaker, the next durable
// admission fails fast with a retry hint instead of queueing behind the
// dead device, and once the stall clears the breaker half-opens on a
// probe and closes — subsequent submissions commit durably again. The
// sharded row stalls every unit's log through WrapSyncer.
func TestBreakerFastFailAndRecovery(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			slow := &slowLogs{}
			s, ycsb := startShards(t, shards, func(c *Config) {
				c.Durability = &DurabilityOptions{
					Dir:         t.TempDir(),
					GroupWindow: time.Millisecond,
					WrapSyncer:  slow.wrap,
				}
				c.Overload.BreakerLatency = 10 * time.Millisecond
				c.Overload.BreakerCooldown = 50 * time.Millisecond
			})
			defer s.Shutdown(context.Background())

			conn, err := client.DialPipelined(s.Addr(), client.PipelineConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			reqs := localRequests(t, ycsb, shards, 103, 50)

			// Healthy: commits flow, breaker closed.
			resp, err := conn.Submit(context.Background(), reqs[0])
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Committed() {
				t.Fatalf("healthy submit: status %q", resp.Status)
			}
			if got := s.breaker.State(); got != overload.BreakerClosed {
				t.Fatalf("breaker %v before stall, want closed", got)
			}

			// Stall the device. The next commit's group flush takes ~100ms —
			// far past the 10ms trip latency — so by the time it
			// acknowledges, the breaker has tripped.
			slow.setDelay(100 * time.Millisecond)
			resp, err = conn.Submit(context.Background(), reqs[1])
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Committed() {
				t.Fatalf("slow submit: status %q", resp.Status)
			}
			slow.setDelay(0)
			if got := s.breaker.State(); got != overload.BreakerOpen {
				t.Fatalf("breaker %v after slow flush, want open", got)
			}

			// Fast fail while open: rejected immediately with a retry hint.
			resp, err = conn.Submit(context.Background(), reqs[2])
			if err != nil {
				t.Fatal(err)
			}
			if resp.Status != client.StatusRejected {
				t.Fatalf("open-breaker submit: status %q, want %q", resp.Status, client.StatusRejected)
			}
			if resp.RetryAfterMS < 1 {
				t.Fatalf("open-breaker rejection carries no retry hint: %d", resp.RetryAfterMS)
			}
			st := s.Stats()
			if st.BreakerRejected < 1 || st.BreakerTrips < 1 || st.BreakerState != "open" {
				t.Fatalf("breaker stats: rejected=%d trips=%d state=%q",
					st.BreakerRejected, st.BreakerTrips, st.BreakerState)
			}
			if st.RetryAfterMS < 1 {
				t.Fatalf("stats retry-after hint %d while open, want >= 1", st.RetryAfterMS)
			}

			// Past the cooldown the breaker half-opens: a probe admission
			// runs, its fast flush closes the breaker, and commits flow
			// again.
			time.Sleep(60 * time.Millisecond)
			committed := false
			for _, req := range reqs[3:] {
				if committed {
					break
				}
				resp, err = conn.Submit(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Committed() {
					committed = true
				} else {
					time.Sleep(5 * time.Millisecond)
				}
			}
			if !committed {
				t.Fatal("no commit within 100 tries after the stall cleared")
			}
			if got := s.breaker.State(); got != overload.BreakerClosed {
				t.Fatalf("breaker %v after recovery, want closed", got)
			}
			foundTrip := false
			for _, ev := range s.Stats().OverloadEvents {
				if ev.Kind == "breaker" && ev.Detail == "closed->open" {
					foundTrip = true
				}
			}
			if !foundTrip {
				t.Fatal("no closed->open breaker event recorded")
			}
		})
	}
}
