package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tskd/internal/client"
)

// maxAttempts bounds the resubmissions of one transaction. A refusal
// (rejected, shed) is an instruction to come back later, which is what
// a real client does; a transaction still refused after this many
// tries counts as failed.
const maxAttempts = 100000

// tally counts what happened to the transactions a phase submitted.
// Every field is updated atomically by the submitters.
type tally struct {
	attempted atomic.Uint64 // logical transactions
	committed atomic.Uint64
	// committedWrites counts the commits of transactions that write:
	// the ones a durable server must have logged.
	committedWrites atomic.Uint64
	failed          atomic.Uint64 // ended any other way, or ran out of attempts
	submits         atomic.Uint64 // Submit calls, resubmissions included
	responses       atomic.Uint64 // Submit calls that returned a response
	rejected        atomic.Uint64 // responses telling the client to come back later
	shed            atomic.Uint64 // likewise, from the overload controller
}

// loadgen drives one server over its connections.
type loadgen struct {
	conns []*client.PipelinedConn
	reqs  []client.Request
	// writes[i] is whether reqs[i] writes anything.
	writes []bool
	// ctx bounds every submission: a response that never arrives fails
	// the exactly-once check and must not hang the run.
	ctx   context.Context
	next  atomic.Uint64 // round-robin cursor into reqs
	tally tally
	// dropResponse is a test hook: when it returns true the response
	// is discarded as if it had never arrived, which the exactly-once
	// check must catch.
	dropResponse func(n uint64) bool
	// onDone, when set, receives every finished transaction (the
	// traced pass records client-side spans through it).
	onDone func(start, end time.Time, resp client.Response)
}

// submitOne runs one transaction to a terminal outcome and reports
// whether it committed.
func (l *loadgen) submitOne(idx uint64) (client.Response, bool) {
	l.tally.attempted.Add(1)
	conn := l.conns[idx%uint64(len(l.conns))]
	ri := idx % uint64(len(l.reqs))
	req := l.reqs[ri]
	start := time.Now()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		n := l.tally.submits.Add(1)
		resp, err := conn.Submit(l.ctx, req)
		if err != nil || (l.dropResponse != nil && l.dropResponse(n)) {
			break // no response: the response count will not add up
		}
		l.tally.responses.Add(1)
		switch resp.Status {
		case client.StatusCommit:
			l.tally.committed.Add(1)
			if l.writes[ri] {
				l.tally.committedWrites.Add(1)
			}
			if l.onDone != nil {
				l.onDone(start, time.Now(), resp)
			}
			return resp, true
		case client.StatusRejected, client.StatusShed:
			if resp.Status == client.StatusShed {
				l.tally.shed.Add(1)
			} else {
				l.tally.rejected.Add(1)
			}
			backoff := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if backoff <= 0 {
				backoff = time.Millisecond
			}
			time.Sleep(backoff)
			continue
		}
		l.tally.failed.Add(1)
		return resp, false
	}
	l.tally.failed.Add(1)
	return client.Response{}, false
}

// closedLoop keeps inFlight transactions outstanding until stop is
// closed: each caller waits for its reply before sending the next.
// It returns once every caller has its last reply.
func (l *loadgen) closedLoop(inFlight int, stop <-chan struct{}) {
	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				l.submitOne(l.next.Add(1))
			}
		}()
	}
	wg.Wait()
}

// sleeper is the clock the open loop runs on; tests substitute a fake.
type sleeper interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks in the nanosleep system call rather than on a runtime
// timer. While a GC cycle's idle mark workers hold every processor, an
// expired timer goes unnoticed for up to a scheduler quantum (10 ms),
// but a goroutine returning from a system call is queued where those
// workers look, so the dispatcher wakes on time.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openResult is what an open phase measured, one entry per arrival.
type openResult struct {
	// Latency is completion time minus due time, so the wait a stalled
	// generator imposes on later requests is counted; Late is how long
	// after its due time each request was handed to a submitter.
	Latency []time.Duration
	Late    []time.Duration
	OK      []bool
	Elapsed time.Duration
}

// openLoop sends arrival k at start+due[k] whatever the state of
// earlier ones, through a pool of submitters. submit runs one
// transaction to its terminal outcome.
func openLoop(clk sleeper, due []time.Duration, submitters int, submit func(k int) bool) openResult {
	res := openResult{
		Latency: make([]time.Duration, len(due)),
		Late:    make([]time.Duration, len(due)),
		OK:      make([]bool, len(due)),
	}
	// Sized to the number of sends, so the dispatcher never waits for
	// a submitter: a busy pool delays the request, not the schedule.
	jobs := make(chan int, len(due))
	start := clk.Now()
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				res.OK[k] = submit(k)
				res.Latency[k] = clk.Now().Sub(start.Add(due[k]))
			}
		}()
	}
	for k, d := range due {
		if wait := start.Add(d).Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		res.Late[k] = clk.Now().Sub(start.Add(d))
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	res.Elapsed = clk.Now().Sub(start)
	return res
}

// percentile returns the nearest-rank quantile of an ascending slice;
// the quantile is given in thousandths (950 is p95) so that ranks are
// exact integers.
func percentile(sorted []time.Duration, permille int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), permille), 1)-1]
}

// rank is the nearest-rank position (1-based) of a quantile among n
// samples: the smallest rank with at least permille/1000 of the
// samples at or below it.
func rank(n, permille int) int { return (n*permille + 999) / 1000 }

// tailPercentiles are the percentiles a report may quote, in
// thousandths.
var tailPercentiles = []int{500, 900, 950, 990, 999}

// highestSupported returns the highest of tailPercentiles that still
// has at least ten of the n samples beyond it, or 0 when none does.
func highestSupported(n int) int {
	best := 0
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// refused is how many responses sent the client away to retry.
func (t *tally) refused() uint64 { return t.rejected.Load() + t.shed.Load() }

func (t *tally) String() string {
	return fmt.Sprintf("attempted=%d committed=%d failed=%d submits=%d responses=%d refused=%d",
		t.attempted.Load(), t.committed.Load(), t.failed.Load(),
		t.submits.Load(), t.responses.Load(), t.refused())
}
