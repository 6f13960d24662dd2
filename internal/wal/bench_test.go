package wal

import (
	"io"
	"testing"
)

func benchRecord() Record {
	return Record{
		TxnID:   42,
		IdemKey: 7,
		Writes: []Update{
			{Key: 1, Ver: 10, Fields: []uint64{1, 2, 3, 4}},
			{Key: 2, Ver: 11, Fields: []uint64{5, 6, 7, 8}},
			{Key: 3, Ver: 12, Fields: []uint64{9, 10, 11, 12}},
		},
	}
}

// BenchmarkWALFlush measures the two durability paths with the device
// factored out. "record" is a blocking append with group window zero:
// every append is its own flush, the per-record cost 2PC prepares and
// coordinator decisions pay. "bundle" is what the engine does per
// bundle: 256 commit records of the durable-mixed shape appended
// without waiting from two goroutines, then one barrier (ns/op and
// allocs/op are per bundle).
func BenchmarkWALFlush(b *testing.B) {
	b.Run("record", func(b *testing.B) {
		l := New(io.Discard, 0)
		rec := benchRecord()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := l.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bundle", func(b *testing.B) {
		l := New(io.Discard, 0)
		rec := bundleRecord(1)
		const workers, perWorker = 2, 128
		// Long-lived workers, as in the engine: the benchmark measures
		// the log, not goroutine start-up.
		var start [workers]chan struct{}
		done := make(chan error, workers)
		for w := range start {
			start[w] = make(chan struct{})
			go func(start chan struct{}) {
				for range start {
					var err error
					for i := 0; i < perWorker && err == nil; i++ {
						_, err = l.AppendNoWait(rec)
					}
					done <- err
				}
			}(start[w])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range start {
				c <- struct{}{}
			}
			for range start {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			if _, err := l.Barrier(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		for _, c := range start {
			close(c)
		}
	})
}

// TestWALAppendAllocBudget gates both append paths at 0 allocs/op in
// steady state: records encode straight into the pending group buffer,
// which is recycled across flushes along with the waiter channels.
func TestWALAppendAllocBudget(t *testing.T) {
	l := New(io.Discard, 0)
	rec := benchRecord()
	blocking := func() {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	bundle := func() {
		for i := 0; i < 64; i++ {
			if _, err := l.AppendNoWait(rec); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	for name, op := range map[string]func(){"Append": blocking, "64 x AppendNoWait + Barrier": bundle} {
		// Warm the pools and grow the pending buffer to steady state.
		for i := 0; i < 16; i++ {
			op()
		}
		if n := testing.AllocsPerRun(200, op); n > 0 {
			t.Errorf("%s allocs/op = %v, budget 0", name, n)
		}
	}
}
