package wal

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

func rec(id int64, writes ...Update) Record { return Record{TxnID: id, Writes: writes} }

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	want := []Record{
		rec(1, Update{Key: 10, Ver: 1, Fields: []uint64{7, 8}}),
		rec(2, Update{Key: 11, Ver: 1, Fields: []uint64{9}}, Update{Key: 10, Ver: 2, Fields: []uint64{1, 2}}),
		rec(3), // no writes
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	n, err := Replay(bytes.NewReader(buf.Bytes()), func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	for i := range want {
		if got[i].TxnID != want[i].TxnID || len(got[i].Writes) != len(want[i].Writes) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], want[i])
		}
		for j := range want[i].Writes {
			if !reflect.DeepEqual(got[i].Writes[j], want[i].Writes[j]) {
				t.Fatalf("record %d write %d mismatch", i, j)
			}
		}
	}
}

func TestTornTailStopsCleanly(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	l.Append(rec(1, Update{Key: 1, Ver: 1, Fields: []uint64{5}}))
	l.Append(rec(2, Update{Key: 2, Ver: 1, Fields: []uint64{6}}))
	l.Close()
	data := buf.Bytes()
	// Tear the last record in half.
	torn := data[:len(data)-7]
	n, err := Replay(bytes.NewReader(torn), func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Errorf("torn replay = %d, %v; want 1 record", n, err)
	}
}

func TestCorruptChecksumStops(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 0)
	l.Append(rec(1, Update{Key: 1, Ver: 1, Fields: []uint64{5}}))
	l.Append(rec(2, Update{Key: 2, Ver: 1, Fields: []uint64{6}}))
	l.Close()
	data := append([]byte(nil), buf.Bytes()...)
	data[10] ^= 0xFF // corrupt first payload
	n, err := Replay(bytes.NewReader(data), func(Record) error { return nil })
	if err != nil || n != 0 {
		t.Errorf("corrupt replay = %d, %v; want 0", n, err)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, 2*time.Millisecond)
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Append(rec(int64(i), Update{Key: uint64(i), Ver: 1, Fields: []uint64{1}})); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	l.Close()
	records, flushes, _ := l.Counters()
	if records != n {
		t.Fatalf("records = %d", records)
	}
	if flushes >= n {
		t.Errorf("flushes = %d; group commit should batch well below %d", flushes, n)
	}
	cnt, _ := Replay(bytes.NewReader(buf.Bytes()), func(Record) error { return nil })
	if cnt != n {
		t.Errorf("replayed %d of %d", cnt, n)
	}
}

func TestAppendAfterClose(t *testing.T) {
	l := New(&bytes.Buffer{}, 0)
	l.Close()
	if err := l.Append(rec(1)); err != ErrClosed {
		t.Errorf("append after close err = %v", err)
	}
}

func TestEmptyReplay(t *testing.T) {
	n, err := Replay(bytes.NewReader(nil), func(Record) error { return nil })
	if n != 0 || err != nil {
		t.Errorf("empty replay = %d, %v", n, err)
	}
}
