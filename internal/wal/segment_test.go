package wal

import (
	"os"
	"path/filepath"
	"testing"

	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

func segRec(id int64, key, ver uint64) Record {
	return Record{TxnID: id, Writes: []Update{{Key: key, Ver: ver, Fields: []uint64{ver * 10}}}}
}

// TestOpenDirRotatesAndReplays fills a directory-backed log past
// several rotation thresholds and replays the whole directory back.
func TestOpenDirRotatesAndReplays(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, DirOptions{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(segRec(int64(i), uint64(i), uint64(i+1))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got := l.NextLSN(); got != n {
		t.Fatalf("NextLSN = %d, want %d", got, n)
	}
	if len(l.SealedSegments()) == 0 {
		t.Fatal("no rotation happened at a 256-byte threshold")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var lsns []uint64
	next, applied, err := ReplayDir(dir, func(lsn uint64, r Record) error {
		lsns = append(lsns, lsn)
		if r.TxnID != int64(lsn) {
			t.Fatalf("record at lsn %d has txn id %d", lsn, r.TxnID)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != n || next != n {
		t.Fatalf("ReplayDir = (%d, %d), want (%d, %d)", next, applied, n, n)
	}
	for i, lsn := range lsns {
		if lsn != uint64(i) {
			t.Fatalf("lsn sequence broken at %d: %d", i, lsn)
		}
	}
}

// TestReopenContinuesLSNs closes a directory log and reopens it at the
// recovered LSN: appends continue the sequence and old segments seal.
func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, DirOptions{SegmentBytes: 1 << 20, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(segRec(int64(i), uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	next, applied, err := ReplayDir(dir, nil2)
	if err != nil || applied != 10 || next != 10 {
		t.Fatalf("replay = (%d, %d, %v)", next, applied, err)
	}
	l2, err := OpenDir(dir, DirOptions{SegmentBytes: 1 << 20, NoSync: true, StartLSN: next})
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := l2.Append(segRec(int64(i), uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if sealed := l2.SealedSegments(); len(sealed) != 1 || sealed[0].Start != 0 || sealed[0].End != 10 {
		t.Fatalf("sealed = %+v", sealed)
	}
	l2.Close()

	var got []int64
	next, applied, err = ReplayDir(dir, func(_ uint64, r Record) error {
		got = append(got, r.TxnID)
		return nil
	})
	if err != nil || applied != 15 || next != 15 {
		t.Fatalf("replay after reopen = (%d, %d, %v)", next, applied, err)
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("record order broken at %d: %d", i, id)
		}
	}
}

func nil2(uint64, Record) error { return nil }

// TestTruncateSealed checks that truncation removes exactly the sealed
// segments a checkpoint LSN covers, never the active one, and that the
// surviving tail still replays.
func TestTruncateSealed(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, DirOptions{SegmentBytes: 200, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := l.Append(segRec(int64(i), uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	sealed := l.SealedSegments()
	if len(sealed) < 2 {
		t.Fatalf("need >= 2 sealed segments, got %d", len(sealed))
	}
	ckptLSN := sealed[1].End // covers the first two segments exactly
	removed, err := l.TruncateSealed(ckptLSN)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("removed %d segments, want 2", removed)
	}
	for _, s := range sealed[:2] {
		if _, err := os.Stat(s.Path); !os.IsNotExist(err) {
			t.Fatalf("truncated segment %s still exists", s.Path)
		}
	}
	l.Close()

	next, applied, err := ReplayDir(dir, func(lsn uint64, _ Record) error {
		if lsn < ckptLSN {
			t.Fatalf("replayed lsn %d below truncation point %d", lsn, ckptLSN)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 40 || applied != 40-int(ckptLSN) {
		t.Fatalf("tail replay = (%d, %d), want (40, %d)", next, applied, 40-ckptLSN)
	}
}

// TestOpenDirReusesEmptyCollision reopens a directory whose last
// segment holds zero intact records (e.g. a crash left only a torn
// tail): OpenDir at the same StartLSN must truncate and reuse it
// rather than fail, and the garbage must not resurface on replay.
func TestOpenDirReusesEmptyCollision(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(segRec(1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate a crash mid-group-flush into a *new* segment: a torn
	// header only.
	torn := filepath.Join(dir, segName(1))
	if err := os.WriteFile(torn, []byte{0xFF, 0xFF, 0x01}, 0o644); err != nil {
		t.Fatal(err)
	}
	next, applied, err := ReplayDir(dir, nil2)
	if err != nil || next != 1 || applied != 1 {
		t.Fatalf("replay = (%d, %d, %v)", next, applied, err)
	}
	l2, err := OpenDir(dir, DirOptions{NoSync: true, StartLSN: next})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(segRec(2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	next, applied, err = ReplayDir(dir, nil2)
	if err != nil || next != 2 || applied != 2 {
		t.Fatalf("replay after reuse = (%d, %d, %v)", next, applied, err)
	}
}

// TestDurableSyncCounting pins the Syncer contract: every group flush
// of a durable log issues exactly one barrier.
func TestDurableSyncCounting(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l := NewDurable(f, f, 0)
	for i := 0; i < 5; i++ {
		if err := l.Append(segRec(int64(i), uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if _, flushes, syncs := l.Counters(); syncs != flushes || syncs != 5 {
		t.Fatalf("syncs = %d, flushes = %d, want 5 each", syncs, flushes)
	}
}

// TestIdemKeyRoundTrip pins the optional trailing idempotency key: set
// keys survive the trip, zero keys keep the original byte format.
func TestIdemKeyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	with := Record{TxnID: 1, IdemKey: 0xDEADBEEF, Writes: []Update{{Key: 9, Ver: 1, Fields: []uint64{7}}}}
	without := Record{TxnID: 2, Writes: []Update{{Key: 10, Ver: 1, Fields: []uint64{8}}}}
	if err := l.Append(with); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(without); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var got []Record
	_, _, err = ReplayDir(dir, func(_ uint64, r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil || len(got) != 2 {
		t.Fatalf("replay: %v (%d records)", err, len(got))
	}
	if got[0].IdemKey != 0xDEADBEEF || got[1].IdemKey != 0 {
		t.Fatalf("idem keys = %x, %x", got[0].IdemKey, got[1].IdemKey)
	}
}

// TestRecoverDirVersionGating recovers a directory over a database
// that is already partially current: replay must never regress a row,
// and recovering twice converges (idempotence across the segment
// boundary).
func TestRecoverDirVersionGating(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	key := txn.MakeKey(workload.YCSBTable, 5)
	if err := l.Append(Record{TxnID: 1, Writes: []Update{{Key: uint64(key), Ver: 1, Fields: []uint64{10}}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{TxnID: 2, Writes: []Update{{Key: uint64(key), Ver: 3, Fields: []uint64{30}}}}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	db := workload.YCSB{Records: 10}.BuildDB()
	row := db.ResolveOrInsert(key)
	row.Install(&storage.Tuple{Fields: []uint64{99}})
	row.Ver.Store(5 << 1) // already past every logged version

	for pass := 0; pass < 2; pass++ {
		if _, _, err := RecoverDir(dir, db, nil); err != nil {
			t.Fatal(err)
		}
		if got := storage.VerNumber(row.Ver.Load()); got != 5 {
			t.Fatalf("pass %d: recovery regressed version to %d", pass, got)
		}
		if got := row.Load().Fields[0]; got != 99 {
			t.Fatalf("pass %d: recovery regressed image to %d", pass, got)
		}
	}
}

// TestReplayDirEmptyNewestSegment simulates a crash right after
// rotation: the newest segment file exists but holds zero records.
// Recovery must succeed and resume at that segment's start LSN rather
// than erroring on the empty tail.
func TestReplayDirEmptyNewestSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenDir(dir, DirOptions{SegmentBytes: 1 << 20, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 7
	for i := 0; i < n; i++ {
		if err := l.Append(segRec(int64(i), uint64(i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The empty post-rotation segment: created, never written.
	empty := filepath.Join(dir, segName(n))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	next, applied, err := ReplayDir(dir, func(lsn uint64, r Record) error {
		if r.TxnID != int64(lsn) {
			t.Fatalf("record at lsn %d has txn id %d", lsn, r.TxnID)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayDir over empty newest segment: %v", err)
	}
	if applied != n || next != n {
		t.Fatalf("ReplayDir = (next %d, applied %d), want (%d, %d)", next, applied, n, n)
	}

	// Reopening at the recovered LSN reuses the empty file and appends
	// continue the sequence.
	l2, err := OpenDir(dir, DirOptions{SegmentBytes: 1 << 20, NoSync: true, StartLSN: next})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(segRec(n, n, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	next2, applied2, err := ReplayDir(dir, func(uint64, Record) error { return nil })
	if err != nil || next2 != n+1 || applied2 != n+1 {
		t.Fatalf("ReplayDir after reopen = (%d, %d, %v), want (%d, %d, nil)", next2, applied2, err, n+1, n+1)
	}
}
