package bench

import (
	"fmt"
	"time"

	"tskd/internal/metrics"
)

// Summary is the merged view of one or more results. Its percentiles
// are computed from the merged histogram population — the exact
// quantiles one observer of every request would have seen — and its
// rates divide aggregate counts by the longest elapsed time.
type Summary struct {
	ElapsedS       float64  `json:"elapsed_s"`
	Counts         Counts   `json:"counts"`
	ThroughputTxnS float64  `json:"throughput_txn_s"`
	GoodputTxnS    float64  `json:"goodput_txn_s"`
	P50US          int64    `json:"latency_p50_us"`
	P90US          int64    `json:"latency_p90_us"`
	P99US          int64    `json:"latency_p99_us"`
	P999US         int64    `json:"latency_p999_us"`
	MaxUS          int64    `json:"latency_max_us"`
	MeanUS         int64    `json:"latency_mean_us"`
	QueueP99US     int64    `json:"queue_p99_us"`
	ExecP99US      int64    `json:"exec_p99_us"`
	PerSecond      []uint64 `json:"per_second,omitempty"`
}

// Merge combines results into one summary. Every result is
// validated on the way in; a single corrupt result poisons the whole
// merge, so it fails loudly instead.
func Merge(results []Result) (Summary, error) {
	if len(results) == 0 {
		return Summary{}, fmt.Errorf("bench: merge: no results")
	}
	var (
		lat, queue, exec metrics.Histogram
		s                Summary
		elapsed          time.Duration
	)
	for i, r := range results {
		if err := r.Validate(); err != nil {
			return Summary{}, fmt.Errorf("bench: merge: result %d: %w", i, err)
		}
		for _, h := range []struct {
			into *metrics.Histogram
			data metrics.HistogramData
		}{{&lat, r.Latency}, {&queue, r.Queue}, {&exec, r.Exec}} {
			part, err := metrics.FromData(h.data)
			if err != nil {
				return Summary{}, fmt.Errorf("bench: merge: result %d: %w", i, err)
			}
			h.into.Merge(part)
		}
		s.Counts.Add(r.Counts)
		if e := r.Elapsed(); e > elapsed {
			elapsed = e
		}
		for sec, n := range r.PerSecond {
			if sec >= len(s.PerSecond) {
				s.PerSecond = append(s.PerSecond, make([]uint64, sec+1-len(s.PerSecond))...)
			}
			s.PerSecond[sec] += n
		}
	}
	s.ElapsedS = elapsed.Seconds()
	if elapsed > 0 {
		s.ThroughputTxnS = float64(s.Counts.Terminal()) / elapsed.Seconds()
		s.GoodputTxnS = float64(s.Counts.Committed) / elapsed.Seconds()
	}
	s.P50US = lat.Quantile(0.50).Microseconds()
	s.P90US = lat.Quantile(0.90).Microseconds()
	s.P99US = lat.Quantile(0.99).Microseconds()
	s.P999US = lat.Quantile(0.999).Microseconds()
	s.MaxUS = lat.Max().Microseconds()
	s.MeanUS = lat.Mean().Microseconds()
	s.QueueP99US = queue.Quantile(0.99).Microseconds()
	s.ExecP99US = exec.Quantile(0.99).Microseconds()
	return s, nil
}
