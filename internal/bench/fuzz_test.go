package bench

import (
	"testing"
	"time"

	"tskd/internal/metrics"
)

// FuzzDecodeResult hammers the agent-payload decoder: whatever bytes a
// (possibly broken) agent ships, the decoder must either reject them or
// return a result that survives validation and merging without panic.
func FuzzDecodeResult(f *testing.F) {
	var h metrics.Histogram
	h.Record(time.Millisecond)
	h.Record(3 * time.Millisecond)
	seed := Result{
		Agent: "a0", ElapsedNS: 1e9,
		Counts:    Counts{Sent: 2, Committed: 2},
		Latency:   h.Data(),
		PerSecond: []uint64{2},
	}
	f.Add(EncodeResult(seed))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"elapsed_ns":-1}`))
	f.Add([]byte(`{"latency":{"buckets":[[9999,1]],"total":1}}`))
	f.Add([]byte(`{"counts":{"committed":1},"latency":{"buckets":[[40,2]],"total":2}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		// Accepted results must be internally consistent enough to merge.
		s, err := Merge([]Result{r})
		if err != nil {
			t.Fatalf("decoded result failed to merge: %v", err)
		}
		if s.Counts != r.Counts {
			t.Fatalf("merge changed counts: %+v vs %+v", s.Counts, r.Counts)
		}
	})
}
