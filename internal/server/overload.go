package server

// overload.go: the serving layer's overload-resilience wiring around
// internal/overload. Three mechanisms compose, in admission order:
//
//   - The WAL-stall circuit breaker (durable servers only) fails
//     admissions fast while the log device is stalling, instead of
//     queueing acknowledgements behind a dead fsync.
//   - The CoDel-style shedder drops a fraction of admissions once the
//     bundle queue has held a standing backlog past its target sojourn,
//     low priority first.
//   - End-to-end deadlines stamp each admitted transaction; expired
//     work is dropped at bundle formation (here) and between execution
//     attempts (in the engine), answering StatusExpired — a transaction
//     whose caller gave up is pure wasted contention if executed.
//
// When the shedder saturates (level ≥ ½: all low-priority traffic
// already dropping), the server additionally enters brownout mode:
// bundles skip TsPAR schedule refinement and raise the deferment
// probability, trading schedule quality for control-path latency until
// the backlog clears. Transitions are recorded in a bounded event log
// exposed through /metrics.

import (
	"time"

	"tskd/internal/client"
	"tskd/internal/overload"
)

// OverloadOptions configures the server's overload resilience. The
// zero value enables shedding and (on durable servers) the breaker
// with defaults; deadlines apply only when a request carries one or
// DefaultDeadline is set.
type OverloadOptions struct {
	// DefaultDeadline is applied to requests that carry no deadline_ms
	// of their own; zero means such requests never expire (today's
	// behavior).
	DefaultDeadline time.Duration
	// ShedTarget is the acceptable bundle queue sojourn before the
	// shedder sees a standing queue (default 2×FlushInterval).
	ShedTarget time.Duration
	// ShedWindow is how long the minimum sojourn must stay above
	// ShedTarget before shedding engages (default 100ms).
	ShedWindow time.Duration
	// DisableShed turns adaptive shedding (and brownout mode) off,
	// leaving only the static full-queue reject.
	DisableShed bool
	// BreakerLatency is the WAL group-flush latency that trips the
	// breaker (default 50ms); it also bounds how long an in-flight
	// fsync may hang before admissions fail fast.
	BreakerLatency time.Duration
	// BreakerCooldown is how long the breaker stays open before
	// half-opening onto probe traffic (default 250ms).
	BreakerCooldown time.Duration
	// DisableBreaker turns the WAL-stall breaker off.
	DisableBreaker bool
}

func (o *OverloadOptions) withDefaults(flushInterval time.Duration) {
	if o.ShedTarget <= 0 {
		o.ShedTarget = 2 * flushInterval
	}
	if o.ShedWindow <= 0 {
		o.ShedWindow = 100 * time.Millisecond
	}
	if o.BreakerLatency <= 0 {
		o.BreakerLatency = 50 * time.Millisecond
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 250 * time.Millisecond
	}
}

// refuse answers an admission without executing it: release the
// request's dedup claim, recycle the pending, count the outcome, and
// send status with the retry hint.
func (s *Server) refuse(req *client.Request, p *pending, cw *connWriter, status string, retryMS int64, f func(*Stats)) {
	if req.IdemKey != 0 && s.dedup != nil {
		s.dedup.Release(req.IdemKey)
	}
	putPending(p)
	s.count(f)
	cw.send(client.Response{Seq: req.Seq, Status: status, RetryAfterMS: retryMS})
}

// gate applies the breaker, the shedder, and the deadline stamp to an
// admission, in that order. It returns false when the request was
// answered here (breaker-rejected, shed, or already expired) and the
// pending recycled; true means p carries its deadline (possibly zero)
// and should proceed to the admission queue.
func (s *Server) gate(req *client.Request, p *pending, cw *connWriter, now time.Time) bool {
	if s.breaker != nil {
		if ok, ra := s.breaker.Allow(); !ok {
			ms := ra.Milliseconds()
			if q := s.retryAfterMS(); q > ms {
				ms = q
			}
			if ms < 1 {
				ms = 1
			}
			s.refuse(req, p, cw, client.StatusRejected, ms, func(st *Stats) { st.BreakerRejected++ })
			return false
		}
	}
	if s.shed != nil {
		pri := overload.PriHigh
		if req.Priority != 0 {
			pri = overload.PriLow
		}
		if s.shed.Decide(pri) {
			ms := s.shed.Backoff().Milliseconds()
			if q := s.retryAfterMS(); q > ms {
				ms = q
			}
			if ms < 1 {
				ms = 1
			}
			s.refuse(req, p, cw, client.StatusShed, ms, func(st *Stats) { st.Shed++ })
			return false
		}
	}
	switch {
	case req.DeadlineMS < 0:
		// Expired before it ever reached us; terminal, no retry hint.
		s.refuse(req, p, cw, client.StatusExpired, 0, func(st *Stats) { st.Expired++ })
		return false
	case req.DeadlineMS > 0:
		p.t.Deadline = now.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	case s.cfg.Overload.DefaultDeadline > 0:
		p.t.Deadline = now.Add(s.cfg.Overload.DefaultDeadline)
	default:
		p.t.Deadline = time.Time{}
	}
	return true
}

// dropExpired runs at bundle formation: it answers and removes
// transactions whose deadline passed while they queued, and feeds the
// bundle's minimum queue sojourn — CoDel's standing-queue estimator —
// to the shedder, toggling brownout mode when the controller crosses
// half intensity. Expired drops still count into ResultsStreamed: they
// are admissions the server answered, just not by executing.
func (s *Server) dropExpired(batch []*pending) []*pending {
	now := time.Now()
	minSojourn := time.Duration(-1)
	live := batch[:0]
	for _, p := range batch {
		if so := now.Sub(p.enqueued); minSojourn < 0 || so < minSojourn {
			minSojourn = so
		}
		if !p.t.Deadline.IsZero() && now.After(p.t.Deadline) {
			if p.t.IdemKey != 0 && s.dedup != nil {
				s.dedup.Release(p.t.IdemKey)
			}
			// Count before answering: a client that has its response
			// must find the drop in Stats.
			s.count(func(st *Stats) {
				st.Expired++
				st.ResultsStreamed++
			})
			if !p.conn.send(client.Response{Seq: p.seq, Status: client.StatusExpired}) {
				s.count(func(st *Stats) { st.Forfeited++ })
			}
			putPending(p)
			continue
		}
		live = append(live, p)
	}
	if s.shed != nil && minSojourn >= 0 {
		s.shed.Observe(minSojourn)
		s.setBrownout(s.shed.Saturated())
	}
	return live
}

// setBrownout flips degraded bundle processing on saturation changes.
// Called only from the bundler goroutine (SetBrownout is not
// synchronized; the pipeline runs on this goroutine).
func (s *Server) setBrownout(on bool) {
	if on == s.brownoutOn {
		return
	}
	s.brownoutOn = on
	s.pipeline.SetBrownout(on)
	detail := "exit"
	if on {
		detail = "enter"
	}
	s.events.Record(time.Now(), "brownout", detail)
	s.count(func(st *Stats) {
		st.Brownout = on
		if on {
			st.BrownoutEnters++
		}
	})
}
