package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, taken from this package around
// the call (spans inside the program are a later change). Spans of one
// bundle share its id; Parent is the span that caused this one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: a root
	Name   string `json:"name"`
	Bundle int    `json:"bundle"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run
// ends. Single goroutine: the replay it serves is sequential.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, bundle int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Bundle: bundle, Start: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = t.now() }

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, bundle int, f func()) {
	id := t.begin(name, parent, bundle)
	f()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, upTo int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// selfByName sums self times per span name.
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d
	}
	return out
}

// clientSpan is one transaction as the client saw it in the traced
// served pass, with what the server reported about it.
type clientSpan struct {
	Start   int64 `json:"start_ns"`
	End     int64 `json:"end_ns"`
	Bundle  int   `json:"bundle"`
	QueueUS int64 `json:"queue_us"`
	ExecUS  int64 `json:"exec_us"`
	Retries int   `json:"retries"`
}

// clientSpans is a fixed-capacity, concurrently appendable span log:
// submitters claim slots with an atomic counter and never allocate.
type clientSpans struct {
	n     atomic.Int64
	spans []clientSpan
}

func newClientSpans(capacity int) *clientSpans {
	return &clientSpans{spans: make([]clientSpan, capacity)}
}

func (c *clientSpans) add(s clientSpan) {
	if i := c.n.Add(1) - 1; int(i) < len(c.spans) {
		c.spans[i] = s
	}
}

func (c *clientSpans) recorded() []clientSpan {
	return c.spans[:min(int(c.n.Load()), len(c.spans))]
}

// statsSample is one reading of the server's counters during the
// traced pass: counts at the same boundary the client spans cross.
type statsSample struct {
	AtNS       int64  `json:"at_ns"`
	Committed  uint64 `json:"committed"`
	Admitted   uint64 `json:"admitted"`
	Bundles    int    `json:"bundles"`
	QueueDepth int    `json:"queue_depth"`
	Retries    uint64 `json:"retries"`
	WALSyncs   uint64 `json:"wal_syncs"`
}

// traceFile is what a traced run writes to trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// SelfUS is the self time of every layer span name, summed.
	SelfUS map[string]float64 `json:"self_us_by_name"`
	// Spans are the replay's spans, all of them.
	Spans []span `json:"spans"`
	// ClientSpans are the traced served pass's transactions, the first
	// maxClientSpansWritten of them; ClientSpansTotal is how many there
	// were.
	ClientSpans      []clientSpan  `json:"client_spans"`
	ClientSpansTotal int64         `json:"client_spans_total"`
	Stats            []statsSample `json:"stats_samples"`
}

const maxClientSpansWritten = 20_000

func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
