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
//     work is dropped at bundle formation (by the shard unit) and
//     between execution attempts (in the engine), answering
//     StatusExpired — a transaction whose caller gave up is pure wasted
//     contention if executed.
//
// The server decides; the runtime (internal/shard) observes: every
// unit feeds its bundles' minimum queue sojourn to the shedder, and the
// breaker monitors every shard log's group flushes. When the shedder
// saturates (level ≥ ½: all low-priority traffic already dropping), a
// unit additionally enters brownout mode: its bundles skip TsPAR
// schedule refinement and raise the deferment probability, trading
// schedule quality for control-path latency until the backlog clears.
// Transitions are recorded in a bounded event log exposed through
// /metrics.

import (
	"time"

	"tskd/internal/client"
	"tskd/internal/overload"
	"tskd/internal/txn"
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

// refuse answers an admission without executing it: count the outcome
// and send status with the retry hint.
func (s *Server) refuse(seq uint64, cw *connWriter, status string, retryMS int64, f func(*Stats)) {
	s.count(f)
	cw.send(client.Response{Seq: seq, Status: status, RetryAfterMS: retryMS})
}

// gate applies the breaker, the shedder, and the deadline stamp to an
// admission, in that order. It returns false when the request was
// answered here (breaker-rejected, shed, or already expired); true
// means t carries its deadline (possibly zero) and goes to the runtime.
func (s *Server) gate(req *client.Request, t *txn.Transaction, cw *connWriter) bool {
	if s.breaker != nil {
		if ok, ra := s.breaker.Allow(); !ok {
			ms := max(ra.Milliseconds(), s.rt.RetryAfterMS(), 1)
			s.refuse(req.Seq, cw, client.StatusRejected, ms, func(st *Stats) { st.BreakerRejected++ })
			return false
		}
	}
	if s.shed != nil {
		pri := overload.PriHigh
		if req.Priority != 0 {
			pri = overload.PriLow
		}
		if s.shed.Decide(pri) {
			ms := max(s.shed.Backoff().Milliseconds(), s.rt.RetryAfterMS(), 1)
			s.refuse(req.Seq, cw, client.StatusShed, ms, func(st *Stats) { st.Shed++ })
			return false
		}
	}
	switch {
	case req.DeadlineMS < 0:
		// Expired before it ever reached us; terminal, no retry hint.
		s.refuse(req.Seq, cw, client.StatusExpired, 0, func(st *Stats) { st.Expired++ })
		return false
	case req.DeadlineMS > 0:
		t.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	case s.cfg.Overload.DefaultDeadline > 0:
		t.Deadline = time.Now().Add(s.cfg.Overload.DefaultDeadline)
	default:
		t.Deadline = time.Time{}
	}
	return true
}
