package wal

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"tskd/internal/chaos/faultio"
)

// bundleRecord is a commit record of the durable-mixed benchmark's
// shape: ten single-field writes plus an idempotency key, 288 bytes
// framed.
func bundleRecord(id int64) Record {
	writes := make([]Update, 10)
	for i := range writes {
		writes[i] = Update{Key: uint64(id)<<8 | uint64(i), Ver: uint64(id) + 1, Fields: []uint64{uint64(i)}}
	}
	return Record{TxnID: id, IdemKey: uint64(id) + 1, Writes: writes}
}

// TestAppendNoWaitBarrierClose races non-blocking appenders against a
// goroutine issuing barriers and a third closing the log. Every append
// must either be refused with ErrClosed or land below the durable
// prefix a barrier reported; accepted LSNs are dense; and the stream
// replays exactly the accepted records. Run under -race in CI.
func TestAppendNoWaitBarrierClose(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	const appenders = 6

	var mu sync.Mutex
	accepted := make(map[uint64]int64) // lsn -> txn id
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; ; i++ {
				id := int64(a)<<32 | int64(i)
				lsn, err := l.AppendNoWait(Record{TxnID: id, Writes: []Update{{Key: uint64(id), Ver: 1, Fields: []uint64{1}}}})
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				if _, dup := accepted[lsn]; dup {
					t.Errorf("LSN %d handed out twice", lsn)
				}
				accepted[lsn] = id
				mu.Unlock()
			}
		}(a)
	}

	stop := make(chan struct{})
	var durable uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d, err := l.Barrier()
			if err != nil {
				t.Errorf("barrier: %v", err)
				return
			}
			if d < durable {
				t.Errorf("durable prefix moved backwards: %d after %d", d, durable)
			}
			durable = d
		}
	}()

	for l.NextLSN() < 2000 {
		time.Sleep(50 * time.Microsecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Close flushed what was pending, so a barrier on the closed log
	// reports everything ever accepted.
	d, err := l.Barrier()
	if err != nil {
		t.Fatalf("barrier after close: %v", err)
	}
	if d != l.NextLSN() || d != uint64(len(accepted)) {
		t.Fatalf("durable prefix %d, NextLSN %d, accepted %d", d, l.NextLSN(), len(accepted))
	}
	var lsn uint64
	n, err := Replay(bytes.NewReader(buf.Bytes()), func(r Record) error {
		if accepted[lsn] != r.TxnID {
			t.Fatalf("record at LSN %d is txn %d, appender was told %d", lsn, r.TxnID, accepted[lsn])
		}
		lsn++
		return nil
	})
	if err != nil || uint64(n) != d {
		t.Fatalf("replayed %d of %d records: %v", n, d, err)
	}
}

// TestBarrierLSNAccounting drives two "bundles" of non-blocking appends
// through a directory log whose segments are far smaller than a bundle:
// a mid-bundle flush rotates the segment while the bundle is still
// appending, a blocking append shares a group with non-blocking ones,
// and the (firstLSN, records) framing handed to the shipper must tile
// the LSN space with no gap or overlap across all of it.
func TestBarrierLSNAccounting(t *testing.T) {
	dir := t.TempDir()
	ship := &captureShipper{}
	l, err := OpenDir(dir, DirOptions{SegmentBytes: 2048, NoSync: true, Shipper: ship})
	if err != nil {
		t.Fatal(err)
	}
	var id int64
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			lsn, err := l.AppendNoWait(bundleRecord(id))
			if err != nil || lsn != uint64(id) {
				t.Fatalf("append %d: lsn %d, %v", id, lsn, err)
			}
			id++
		}
	}
	barrier := func() {
		t.Helper()
		d, err := l.Barrier()
		if err != nil || d != uint64(id) || l.NextLSN() != d {
			t.Fatalf("barrier = (%d, %v), NextLSN %d, want %d", d, err, l.NextLSN(), id)
		}
	}

	appendN(40)
	if err := l.Flush(); err != nil { // rotates mid-bundle
		t.Fatal(err)
	}
	sealedMid := len(l.SealedSegments())
	appendN(60)
	barrier()
	barrier() // nothing pending: no flush, same prefix

	appendN(30)
	if err := l.Append(bundleRecord(id)); err != nil { // flushes the 30 with it
		t.Fatal(err)
	}
	id++
	appendN(30)
	barrier()
	if sealedMid == 0 || len(l.SealedSegments()) <= sealedMid {
		t.Fatalf("sealed segments: %d mid-bundle, %d at the end; want rotation at both", sealedMid, len(l.SealedSegments()))
	}
	_, flushes, _ := l.Counters()
	if flushes != 4 {
		t.Errorf("%d flushes, want 4 (mid-bundle flush, barrier, blocking append, barrier)", flushes)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var next uint64
	for i, first := range ship.firsts {
		if first != next {
			t.Fatalf("shipped group %d starts at LSN %d, want %d", i, first, next)
		}
		next += uint64(ship.records[i])
	}
	if next != uint64(id) {
		t.Fatalf("shipped up to LSN %d, want %d", next, id)
	}
	var want uint64
	end, applied, err := ReplayDir(dir, func(lsn uint64, r Record) error {
		if lsn != want || r.TxnID != int64(lsn) {
			t.Fatalf("replayed txn %d at LSN %d, want LSN %d", r.TxnID, lsn, want)
		}
		want++
		return nil
	})
	if err != nil || end != uint64(id) || applied != int(id) {
		t.Fatalf("ReplayDir = (%d, %d, %v), want %d records", end, applied, err, id)
	}
}

// TestBarrierReportsLostGroup pins where a flush failure surfaces for
// records nobody blocks on: the next Barrier returns the error and the
// first LSN it hit, once; Flush and blocking Appends see only their own
// group and do not consume it; and a failure that hit blocked Appends
// alone is theirs, not the next Barrier's.
func TestBarrierReportsLostGroup(t *testing.T) {
	boom := errors.New("boom")
	type faults struct {
		sync errSyncer
		gate error
		ship captureShipper
	}
	for name, arm := range map[string]func(*faults){
		"sync": func(f *faults) { f.sync.err = boom },
		"gate": func(f *faults) { f.gate = boom },
		"ship": func(f *faults) { f.ship.fail = boom },
	} {
		t.Run(name, func(t *testing.T) {
			var f faults
			l := NewDurable(io.Discard, &f.sync, 0)
			l.SetFlushGate(func() error { return f.gate })
			l.SetShipper(&f.ship)

			l.AppendNoWait(Record{TxnID: 0})
			if d, err := l.Barrier(); d != 1 || err != nil {
				t.Fatalf("healthy barrier = (%d, %v)", d, err)
			}
			arm(&f)
			l.AppendNoWait(Record{TxnID: 1})
			l.AppendNoWait(Record{TxnID: 2})
			if err := l.Flush(); !errors.Is(err, boom) {
				t.Fatalf("flush of the failing group = %v", err)
			}
			l.AppendNoWait(Record{TxnID: 3})
			if err := l.Append(Record{TxnID: 4}); !errors.Is(err, boom) {
				t.Fatalf("blocking append into a failing group = %v", err)
			}
			f = faults{}
			l.AppendNoWait(Record{TxnID: 5})
			if d, err := l.Barrier(); d != 1 || !errors.Is(err, boom) {
				t.Fatalf("barrier after the failure = (%d, %v), want (1, boom)", d, err)
			}
			if d, err := l.Barrier(); d != 6 || err != nil {
				t.Fatalf("barrier after the report = (%d, %v), want (6, nil)", d, err)
			}

			// A failure that hit only a blocked Append is not reported again.
			arm(&f)
			if err := l.Append(Record{TxnID: 6}); !errors.Is(err, boom) {
				t.Fatalf("blocking append = %v", err)
			}
			f = faults{}
			l.AppendNoWait(Record{TxnID: 7})
			if d, err := l.Barrier(); d != 8 || err != nil {
				t.Fatalf("barrier after a waited failure = (%d, %v), want (8, nil)", d, err)
			}
		})
	}

	// A dead device: the write itself fails, torn. The barrier reports
	// the group, and what reached the device replays as whole records.
	var buf bytes.Buffer
	fw := &faultio.Writer{W: &buf, FailAfter: 1000, Torn: true}
	l := New(fw, 0)
	for i := 0; i < 8; i++ {
		l.AppendNoWait(bundleRecord(int64(i)))
	}
	if d, err := l.Barrier(); d != 0 || !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("barrier over a torn write = (%d, %v)", d, err)
	}
	if n, err := Replay(bytes.NewReader(buf.Bytes()), func(Record) error { return nil }); n != 3 || err != nil {
		t.Fatalf("torn group replays %d records (%v), want the 3 whole ones in 1000 bytes", n, err)
	}
}

// TestTornGroupReplaysWholeRecordPrefix cuts a 256-record group — one
// bundle's flush — at every byte offset: replay must return exactly the
// records that fit whole below the cut, never an error, never a partial
// record. Replay is a stateless scan, so each cut is replayed from the
// start of the record before the one it tears (keeping the test linear
// in the group size), and cuts at and next to every record boundary are
// also replayed from the start of the stream.
func TestTornGroupReplaysWholeRecordPrefix(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	const n = 256
	ends := make([]int, n) // ends[i] = offset one past record i
	for i := 0; i < n; i++ {
		if _, err := l.AppendNoWait(bundleRecord(int64(i))); err != nil {
			t.Fatal(err)
		}
		ends[i] = int(l.AppendedBytes())
	}
	if _, err := l.Barrier(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if len(data) != ends[n-1] {
		t.Fatalf("group is %d bytes, appended %d", len(data), ends[n-1])
	}
	replay := func(from, cut, firstID int) int {
		t.Helper()
		next := firstID
		got, err := Replay(bytes.NewReader(data[from:cut]), func(r Record) error {
			if r.TxnID != int64(next) || len(r.Writes) != 10 {
				t.Fatalf("cut %d: record %d came back as txn %d with %d writes", cut, next, r.TxnID, len(r.Writes))
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		return got
	}
	whole := 0 // records ending at or below the cut
	for cut := 0; cut <= len(data); cut++ {
		for whole < n && ends[whole] <= cut {
			whole++
		}
		first := max(whole-1, 0) // replay from the record before the torn one
		from := 0
		if first > 0 {
			from = ends[first-1]
		}
		if got := replay(from, cut, first); got != whole-first {
			t.Fatalf("cut %d (from %d): replayed %d records, want %d", cut, from, got, whole-first)
		}
		atBoundary := whole > 0 && cut-ends[whole-1] <= 1 || whole < n && ends[whole]-cut == 1
		if atBoundary {
			if got := replay(0, cut, 0); got != whole {
				t.Fatalf("cut %d: replayed %d records from the start, want %d", cut, got, whole)
			}
		}
	}
}
