package client

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// retry.go: the reliable client. A PipelinedConn surfaces every failure
// to the caller — a lost connection mid-Submit leaves the outcome
// unknown, because the transaction may have committed before the ack
// was lost. ReliableConn closes that gap with idempotency keys: every
// request carries a key, so resubmitting after a reconnect is safe —
// a server that already committed the transaction (this incarnation or
// a recovered one) answers from its dedup window with Duplicate set
// instead of executing again. Combined with the server's WAL-backed
// acknowledgments this yields exactly-once effects across client
// reconnects AND server crash-restarts.
//
// Rejections (admission backpressure, in-flight duplicates) are
// retried with jittered exponential backoff, never below the server's
// retry-after hint.

// WireConn is the submit surface ReliableConn heals over: a
// PipelinedConn or a test double.
type WireConn interface {
	Submit(ctx context.Context, req Request) (Response, error)
	Close() error
}

// RetryPolicy shapes ReliableConn's resubmission behavior.
type RetryPolicy struct {
	// Base is the first backoff step (default 2ms). Each retry doubles
	// it up to Max (default 500ms); the actual sleep is jittered
	// uniformly in [d/2, d) and never below the server's retry-after.
	Base time.Duration
	Max  time.Duration
	// MaxAttempts bounds submissions of one transaction, reconnects
	// included (default 20); exceeding it returns ErrRetriesExhausted.
	MaxAttempts int
	// RetryCanceled also resubmits transactions the server reported
	// canceled (admitted, then hard-stopped before commit). Safe under
	// idempotency keys and usually wanted: a canceled transaction's
	// effects never became durable. Default true.
	RetryCanceled *bool
	// Seed fixes the jitter sequence (0: nondeterministic).
	Seed int64
	// Dial replaces the connection factory (nil: DialPipelined with
	// the default PipelineConfig). Use it to set a credit window or to
	// capture the live connection:
	//
	//	RetryPolicy{Dial: func(addr string) (WireConn, error) {
	//		return DialPipelined(addr, PipelineConfig{Window: 64})
	//	}}
	Dial func(addr string) (WireConn, error)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Base <= 0 {
		p.Base = 2 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 500 * time.Millisecond
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 20
	}
	if p.RetryCanceled == nil {
		t := true
		p.RetryCanceled = &t
	}
	return p
}

// ErrRetriesExhausted reports a transaction that exceeded
// RetryPolicy.MaxAttempts without reaching a terminal outcome.
var ErrRetriesExhausted = errors.New("client: retries exhausted")

// ReliableConn is a self-healing client: it dials lazily, reconnects
// on connection failure, and resubmits under stable idempotency keys
// until each transaction reaches a terminal outcome. With more than
// one address it also fails over: a failed dial advances to the next
// address round-robin, and an address whose connections keep dying is
// abandoned once its reconnect grace is exhausted (failoverAfter
// consecutive deaths), so a client pointed at a primary/backup pair
// follows the survivor after a failover (idempotency keys make the
// switch safe — the promoted server's recovered dedup window answers
// anything the old one already committed). Two refinements shortcut
// the blind rotation: a StatusNotPrimary response redirects the client
// straight to the leader the server names (learned as a new candidate
// when absent from the list), and an address refusing several
// consecutive dials is quarantined with a jittered re-probe instead of
// being retried every time around the ring. Safe for concurrent use.
type ReliableConn struct {
	addrs  []string
	policy RetryPolicy

	mu        sync.Mutex
	states    []addrState // per-address dial health, parallel to addrs
	cur       int         // index into addrs currently dialed
	conn      WireConn    // current connection; nil between failures
	connFails int         // consecutive connection deaths on addrs[cur]
	rng       *rand.Rand
	next      uint64 // idempotency key counter (keyspace chosen at dial)
}

// addrState tracks one candidate address's dial health. An address
// that refuses quarantineAfter consecutive dials is quarantined: the
// rotation skips it until a jittered re-probe instant, so a client
// with one dead address in its list stops burning an attempt (and a
// dial timeout) on it every time around the ring. Quarantine never
// makes the list empty — when every address is quarantined the client
// probes anyway rather than deadlocking.
type addrState struct {
	dialFails       int
	quarantineUntil time.Time
}

// failoverAfter is the number of consecutive connection deaths on one
// address (reconnects included) before the client gives up on it and
// rotates to the next candidate. A single death redials the same
// address first — transient resets shouldn't abandon a healthy server
// — but an address whose accepted connections keep dying (a flapping
// or crash-looping server) is exhausted quickly.
const failoverAfter = 2

// quarantineAfter is the number of consecutive refused dials before an
// address is quarantined; quarantineBase is the re-probe delay, jittered
// uniformly in [base, 2*base) so a fleet of clients does not re-probe a
// recovering server in lockstep.
const (
	quarantineAfter = 3
	quarantineBase  = 250 * time.Millisecond
)

// DialReliable returns a reliable client for addr. No connection is
// attempted until the first Submit, so it succeeds even while the
// server is still down — Submit will keep redialing within its
// attempt budget.
func DialReliable(addr string, policy RetryPolicy) *ReliableConn {
	return DialReliableMulti([]string{addr}, policy)
}

// DialReliableMulti returns a reliable client over a list of candidate
// addresses (e.g. primary first, backup second). Submissions use one
// address at a time; every failed dial advances to the next, wrapping
// around, so the client converges on whichever server is accepting
// connections.
func DialReliableMulti(addrs []string, policy RetryPolicy) *ReliableConn {
	if len(addrs) == 0 {
		addrs = []string{""} // dials fail; Submit reports them cleanly
	}
	policy = policy.withDefaults()
	seed := policy.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	return &ReliableConn{
		addrs:  append([]string(nil), addrs...),
		states: make([]addrState, len(addrs)),
		policy: policy,
		rng:    rng,
		// Random keyspace start: two clients (or two incarnations of
		// one) must not collide on keys within the server's window.
		next: rng.Uint64() | 1,
	}
}

// NextIdemKey returns a fresh idempotency key from the connection's
// keyspace (callers that build requests themselves).
func (r *ReliableConn) NextIdemKey() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextKeyLocked()
}

func (r *ReliableConn) nextKeyLocked() uint64 {
	k := r.next
	r.next++
	if r.next == 0 {
		r.next = 1 // zero means "no key" on the wire
	}
	return k
}

// current returns a live connection, dialing if necessary. A failed
// dial rotates to the next candidate address before reporting the
// error, so the following attempt tries the next server over;
// addresses in quarantine are skipped until their re-probe instant.
func (r *ReliableConn) current() (WireConn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn != nil {
		return r.conn, nil
	}
	r.skipQuarantinedLocked()
	dial := r.policy.Dial
	if dial == nil {
		dial = func(addr string) (WireConn, error) {
			return DialPipelined(addr, PipelineConfig{})
		}
	}
	c, err := dial(r.addrs[r.cur])
	if err != nil {
		// A refused dial is hard evidence the server is gone: rotate
		// immediately rather than burning the reconnect grace, and
		// quarantine the address once its refusals look chronic.
		st := &r.states[r.cur]
		st.dialFails++
		if st.dialFails >= quarantineAfter {
			st.dialFails = 0
			st.quarantineUntil = time.Now().Add(
				quarantineBase + time.Duration(r.rng.Int63n(int64(quarantineBase))))
		}
		r.cur = (r.cur + 1) % len(r.addrs)
		r.connFails = 0
		return nil, err
	}
	r.states[r.cur] = addrState{}
	r.conn = c
	return c, nil
}

// skipQuarantinedLocked advances the cursor to the first candidate
// that is not in quarantine, starting from the current one. When every
// address is quarantined the cursor stays put — re-probing early beats
// refusing to dial at all.
func (r *ReliableConn) skipQuarantinedLocked() {
	now := time.Now()
	for i := 0; i < len(r.addrs); i++ {
		idx := (r.cur + i) % len(r.addrs)
		if now.After(r.states[idx].quarantineUntil) {
			if idx != r.cur {
				r.cur = idx
				r.connFails = 0
			}
			return
		}
	}
}

// Addr reports the address the client is currently pointed at (the
// one the next dial would use).
func (r *ReliableConn) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addrs[r.cur]
}

// invalidate drops a dead connection so the next attempt redials, and
// charges the death against the current address: once reconnects to it
// are exhausted (failoverAfter consecutive deaths with no successful
// response in between), the cursor rotates to the next candidate.
func (r *ReliableConn) invalidate(c WireConn) {
	r.mu.Lock()
	if r.conn == c {
		r.conn = nil
		r.connFails++
		if r.connFails >= failoverAfter {
			r.cur = (r.cur + 1) % len(r.addrs)
			r.connFails = 0
		}
	}
	r.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// markHealthy resets the current address's failure budget after a
// successful round trip.
func (r *ReliableConn) markHealthy() {
	r.mu.Lock()
	r.connFails = 0
	r.states[r.cur] = addrState{}
	r.mu.Unlock()
}

// redirect follows a StatusNotPrimary response: the server refusing
// the submission is authoritative about not being the primary, so the
// connection is dropped outright (no reconnect grace) and the cursor
// moves to the named leader — learning it as a new candidate when it
// was not in the address list, as after an automatic failover to a
// backup the client was never configured with. An empty leader (the
// deposed server does not know its successor yet) falls back to plain
// rotation.
func (r *ReliableConn) redirect(c WireConn, leader string) {
	r.mu.Lock()
	if r.conn == c {
		r.conn = nil
	}
	r.connFails = 0
	switch {
	case leader != "" && leader != r.addrs[r.cur]:
		found := false
		for i, a := range r.addrs {
			if a == leader {
				r.cur = i
				found = true
				break
			}
		}
		if !found {
			r.addrs = append(r.addrs, leader)
			r.states = append(r.states, addrState{})
			r.cur = len(r.addrs) - 1
		}
		// A fresh redirect trumps any quarantine the leader address
		// earned while it was still warming up.
		r.states[r.cur] = addrState{}
	case leader == "":
		r.cur = (r.cur + 1) % len(r.addrs)
	}
	r.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// backoff sleeps the jittered exponential step for attempt (0-based),
// honoring the server's retry-after hint, unless ctx ends first.
func (r *ReliableConn) backoff(ctx context.Context, attempt int, retryAfterMS int64) error {
	d := r.policy.Base << uint(attempt)
	if d > r.policy.Max || d <= 0 {
		d = r.policy.Max
	}
	r.mu.Lock()
	jittered := d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
	r.mu.Unlock()
	if hint := time.Duration(retryAfterMS) * time.Millisecond; jittered < hint {
		jittered = hint
	}
	select {
	case <-time.After(jittered):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit sends one transaction and blocks until a terminal outcome:
// commit (Duplicate set when an earlier attempt had already won),
// abort, or error. A zero req.IdemKey is assigned automatically; a
// nonzero one is kept, so a caller resuming after its own crash can
// resubmit transactions it is unsure about under their original keys.
func (r *ReliableConn) Submit(ctx context.Context, req Request) (Response, error) {
	if req.IdemKey == 0 {
		req.IdemKey = r.NextIdemKey()
	}
	// A deadlined request is never worth resubmitting once its budget
	// has elapsed client-side: the server would only expire it again
	// (or worse, waste engine time discovering that). Track the budget
	// from the first submission.
	var doomed func() bool
	if req.DeadlineMS > 0 {
		budget := time.Duration(req.DeadlineMS) * time.Millisecond
		start := time.Now()
		doomed = func() bool { return time.Since(start) >= budget }
	}
	var lastErr error
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		if doomed != nil && doomed() {
			// Synthesized terminal outcome: nothing in flight, the
			// deadline has passed, the caller should not see a retry
			// error for work that is simply dead.
			return Response{Seq: req.Seq, Status: StatusExpired}, nil
		}
		c, err := r.current()
		if err != nil {
			// Server unreachable: back off and redial.
			lastErr = err
			if err := r.backoff(ctx, attempt, 0); err != nil {
				return Response{}, err
			}
			continue
		}
		resp, err := c.Submit(ctx, req)
		if err != nil {
			if ctx.Err() != nil {
				return Response{}, ctx.Err()
			}
			// Connection died with the outcome unknown — the exact
			// case idempotency keys exist for. Reconnect and resubmit.
			lastErr = err
			r.invalidate(c)
			if err := r.backoff(ctx, attempt, 0); err != nil {
				return Response{}, err
			}
			continue
		}
		r.markHealthy()
		switch resp.Status {
		case StatusCommit, StatusAbort, StatusError, StatusExpired:
			// Expired is terminal: the server dropped the transaction
			// without committing and a resubmission would be just as
			// dead. The caller decides whether to try again with a
			// fresh deadline.
			return resp, nil
		case StatusCanceled:
			if !*r.policy.RetryCanceled {
				return resp, nil
			}
			lastErr = errors.New("client: transaction canceled by server")
			if err := r.backoff(ctx, attempt, resp.RetryAfterMS); err != nil {
				return Response{}, err
			}
		case StatusRejected, StatusShed:
			lastErr = errors.New("client: " + resp.Status + " (backpressure)")
			if err := r.backoff(ctx, attempt, resp.RetryAfterMS); err != nil {
				return Response{}, err
			}
		case StatusNotPrimary:
			// The server lost (or never held) its lease. Follow the
			// redirect — or rotate when it has no successor to name —
			// and resubmit under the same idempotency key; the new
			// primary's recovered dedup window answers anything the old
			// one already committed.
			lastErr = errors.New("client: submitted to non-primary")
			r.redirect(c, resp.Leader)
			if err := r.backoff(ctx, attempt, resp.RetryAfterMS); err != nil {
				return Response{}, err
			}
		default:
			return resp, errors.New("client: unknown status " + resp.Status)
		}
	}
	return Response{}, errors.Join(ErrRetriesExhausted, lastErr)
}

// Close tears down the current connection (a later Submit would
// redial).
func (r *ReliableConn) Close() error {
	r.mu.Lock()
	c := r.conn
	r.conn = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
