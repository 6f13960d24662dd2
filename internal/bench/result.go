package bench

import (
	"fmt"
	"time"

	"tskd/internal/metrics"
)

// Counts tallies terminal outcomes of one run. Sent counts
// submissions (a closed-loop retry after rejection is a new
// submission); the rest partition responses by status.
type Counts struct {
	Sent      uint64 `json:"sent"`
	Committed uint64 `json:"committed"`
	Rejected  uint64 `json:"rejected"`
	Shed      uint64 `json:"shed"`
	Expired   uint64 `json:"expired"`
	Aborted   uint64 `json:"aborted"`
	Canceled  uint64 `json:"canceled"`
	Errors    uint64 `json:"errors"`
	Retries   uint64 `json:"retries"`
}

// Add folds o into c.
func (c *Counts) Add(o Counts) {
	c.Sent += o.Sent
	c.Committed += o.Committed
	c.Rejected += o.Rejected
	c.Shed += o.Shed
	c.Expired += o.Expired
	c.Aborted += o.Aborted
	c.Canceled += o.Canceled
	c.Errors += o.Errors
	c.Retries += o.Retries
}

// Terminal reports how many submissions reached a terminal decision —
// the denominator of throughput, versus goodput's committed-only
// numerator. Rejected and shed attempts are excluded: in a closed loop
// they are resubmitted, in an open loop they are lost offered load.
func (c Counts) Terminal() uint64 {
	return c.Committed + c.Aborted + c.Canceled + c.Expired
}

// Result is what a run produces: elapsed wall clock, outcome counts,
// full-resolution latency histograms, and a per-second series of
// terminal decisions since the start. Histograms are kept as bucket
// data, not percentiles, so Merge combines populations instead of
// averaging summaries.
type Result struct {
	ElapsedNS int64                 `json:"elapsed_ns"`
	Counts    Counts                `json:"counts"`
	Latency   metrics.HistogramData `json:"latency"`
	Queue     metrics.HistogramData `json:"queue"`
	Exec      metrics.HistogramData `json:"exec"`
	PerSecond []uint64              `json:"per_second,omitempty"`
}

// Elapsed returns the run's wall-clock duration.
func (r Result) Elapsed() time.Duration { return time.Duration(r.ElapsedNS) }

// maxPerSecond bounds the per-second series a result may carry (24h of
// bins); anything longer is corrupt.
const maxPerSecond = 24 * 3600

// Validate checks the cross-field invariants a result must hold. Histogram bucket data is validated by metrics.FromData.
func (r Result) Validate() error {
	if r.ElapsedNS < 0 {
		return fmt.Errorf("bench: result: negative elapsed %d", r.ElapsedNS)
	}
	if len(r.PerSecond) > maxPerSecond {
		return fmt.Errorf("bench: result: per-second series too long (%d bins)", len(r.PerSecond))
	}
	for _, d := range []struct {
		name string
		data metrics.HistogramData
	}{{"latency", r.Latency}, {"queue", r.Queue}, {"exec", r.Exec}} {
		if _, err := metrics.FromData(d.data); err != nil {
			return fmt.Errorf("bench: result: %s histogram: %w", d.name, err)
		}
	}
	if r.Latency.Total > r.Counts.Committed {
		return fmt.Errorf("bench: result: %d latency samples for %d commits", r.Latency.Total, r.Counts.Committed)
	}
	var perSec uint64
	for _, n := range r.PerSecond {
		perSec += n
	}
	if perSec > r.Counts.Terminal() {
		return fmt.Errorf("bench: result: per-second sum %d exceeds terminal count %d", perSec, r.Counts.Terminal())
	}
	return nil
}
