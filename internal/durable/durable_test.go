package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tskd/internal/client"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// genKey is the row whose field 0 names the generation that wrote it.
var genKey = txn.MakeKey(workload.YCSBTable, 1)

// writeImage writes a checkpoint image at lsn whose genKey row holds lsn.
func writeImage(t *testing.T, dir string, lsn uint64) {
	t.Helper()
	db := workload.YCSB{Records: 4}.BuildDB()
	db.ResolveOrInsert(genKey).Install(&storage.Tuple{Fields: []uint64{lsn}})
	if err := storage.WriteCheckpointFile(filepath.Join(dir, ckptName(lsn)), db, false); err != nil {
		t.Fatal(err)
	}
}

func writeKeys(t *testing.T, dir string, lsn uint64, suffix string, keys ...uint64) {
	t.Helper()
	if err := writeSidecar(filepath.Join(dir, sidecarName(lsn, suffix)), keys, false); err != nil {
		t.Fatal(err)
	}
}

// damage overwrites the middle byte of a file, which every checksum
// catches.
func damage(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// tear cuts a file in half, as a crash mid-write would.
func tear(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreGenerations pins which checkpoint generation Restore picks
// and which sidecar it reads the window from.
func TestRestoreGenerations(t *testing.T) {
	for _, c := range []struct {
		name     string
		setup    func(t *testing.T, dir string)
		wantLSN  uint64 // 0: no checkpoint, base handed back
		wantKeys []uint64
	}{
		{"empty dir hands back base", func(*testing.T, string) {}, 0, nil},
		{"newest valid generation", func(t *testing.T, dir string) {
			writeKeys(t, dir, 10, sidecarSuffix, 1, 2)
			writeImage(t, dir, 10)
			writeKeys(t, dir, 20, sidecarSuffix, 3)
			writeImage(t, dir, 20)
		}, 20, []uint64{3}},
		{"torn newest image falls back", func(t *testing.T, dir string) {
			writeKeys(t, dir, 10, sidecarSuffix, 1, 2)
			writeImage(t, dir, 10)
			writeKeys(t, dir, 20, sidecarSuffix, 3)
			writeImage(t, dir, 20)
			tear(t, filepath.Join(dir, ckptName(20)))
		}, 10, []uint64{1, 2}},
		{"corrupt newest sidecar falls back", func(t *testing.T, dir string) {
			writeKeys(t, dir, 10, sidecarSuffix, 1, 2)
			writeImage(t, dir, 10)
			writeKeys(t, dir, 20, sidecarSuffix, 3)
			writeImage(t, dir, 20)
			damage(t, filepath.Join(dir, sidecarName(20, sidecarSuffix)))
		}, 10, []uint64{1, 2}},
		{"orphan sidecar without image is ignored", func(t *testing.T, dir string) {
			writeKeys(t, dir, 10, sidecarSuffix, 1, 2)
			writeImage(t, dir, 10)
			writeKeys(t, dir, 30, sidecarSuffix, 9)
		}, 10, []uint64{1, 2}},
		{"missing sidecar is an empty window", func(t *testing.T, dir string) {
			writeImage(t, dir, 10)
		}, 10, nil},
		{"legacy .dedup sidecar is read", func(t *testing.T, dir string) {
			writeKeys(t, dir, 10, legacySuffix, 4, 5)
			writeImage(t, dir, 10)
		}, 10, []uint64{4, 5}},
		{".dd wins over .dedup at the same LSN", func(t *testing.T, dir string) {
			writeKeys(t, dir, 10, legacySuffix, 4, 5)
			writeKeys(t, dir, 10, sidecarSuffix, 6)
			writeImage(t, dir, 10)
		}, 10, []uint64{6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.setup(t, dir)
			base := workload.YCSB{Records: 4}.BuildDB()
			db, r, keys, err := Restore(dir, func() *storage.DB { return base }, nil)
			if err != nil {
				t.Fatal(err)
			}
			if r.CheckpointLSN != c.wantLSN || r.NextLSN != c.wantLSN {
				t.Errorf("checkpoint %d next %d, want %d for both (no WAL)", r.CheckpointLSN, r.NextLSN, c.wantLSN)
			}
			if !reflect.DeepEqual(keys, c.wantKeys) || r.DedupRestored != len(keys) {
				t.Errorf("keys %v (%d reported), want %v", keys, r.DedupRestored, c.wantKeys)
			}
			if c.wantLSN == 0 {
				if db != base {
					t.Error("no checkpoint: base not handed back")
				}
				return
			}
			if got := db.Resolve(genKey).Load().Fields[0]; got != c.wantLSN {
				t.Errorf("restored the image of generation %d, want %d", got, c.wantLSN)
			}
		})
	}
}

// TestRestoreReplaysTail checks the WAL half of Restore: commits apply
// over the checkpoint and add their keys once each, every record reaches
// onRecord, prepares are not applied, and a truncated log resumes at the
// checkpoint LSN rather than below it.
func TestRestoreReplaysTail(t *testing.T) {
	dir := t.TempDir()
	writeKeys(t, dir, 10, sidecarSuffix, 1, 2)
	writeImage(t, dir, 10)
	l, err := wal.OpenDir(dir, wal.DirOptions{StartLSN: 10, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	k := txn.MakeKey(workload.YCSBTable, 2)
	for _, rec := range []wal.Record{
		{TxnID: 1, IdemKey: 2, Writes: []wal.Update{{Key: uint64(k), Ver: 5, Fields: []uint64{50}}}},
		{TxnID: 2, Kind: wal.RecordPrepare, Writes: []wal.Update{{Key: uint64(k), Ver: 6, Fields: []uint64{60}}}},
		{TxnID: 3, IdemKey: 7},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	var seen []wal.RecordKind
	db, r, keys, err := Restore(dir, nil, func(_ uint64, rec wal.Record) { seen = append(seen, rec.Kind) })
	if err != nil {
		t.Fatal(err)
	}
	want := Restored{CheckpointLSN: 10, NextLSN: 13, Replayed: 2, DedupRestored: 3, Segments: 1}
	if r != want {
		t.Errorf("restored %+v, want %+v", r, want)
	}
	if !reflect.DeepEqual(keys, []uint64{1, 2, 7}) {
		t.Errorf("keys %v, want [1 2 7]", keys)
	}
	if !reflect.DeepEqual(seen, []wal.RecordKind{wal.RecordCommit, wal.RecordPrepare, wal.RecordCommit}) {
		t.Errorf("onRecord saw %v", seen)
	}
	if got := db.Resolve(k).Load().Fields[0]; got != 50 {
		t.Errorf("row holds %d, want the commit's 50 (prepares are not redo)", got)
	}

	// Every segment truncated away: the log resumes at the checkpoint.
	dir2 := t.TempDir()
	writeImage(t, dir2, 40)
	if _, r, _, err := Restore(dir2, nil, nil); err != nil || r.NextLSN != 40 {
		t.Errorf("next LSN %d (%v), want 40", r.NextLSN, err)
	}
}

// TestCheckpointer drives a checkpoint over a log with sealed segments
// and older generations of both sidecar suffixes: it writes a .dd
// sidecar and an image at the log's LSN, truncates, removes every older
// generation, and Restore reads back what it wrote.
func TestCheckpointer(t *testing.T) {
	dir := t.TempDir()
	writeKeys(t, dir, 0, sidecarSuffix)
	writeKeys(t, dir, 0, legacySuffix)
	writeImage(t, dir, 0)
	l, err := wal.OpenDir(dir, wal.DirOptions{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	db := workload.YCSB{Records: 4}.BuildDB()
	c := NewCheckpointer(dir, l, 1024, false)
	w := NewWindow(8)
	for i := uint64(1); !c.Due(); i++ {
		if err := l.Append(wal.Record{TxnID: int64(i), IdemKey: i, Writes: []wal.Update{{Key: uint64(genKey), Ver: i, Fields: []uint64{i}}}}); err != nil {
			t.Fatal(err)
		}
		wal.ApplyRecord(db, wal.Record{Writes: []wal.Update{{Key: uint64(genKey), Ver: i, Fields: []uint64{i}}}})
		w.Restore(i)
	}
	lsn, truncated, err := c.Checkpoint(db, w)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != l.NextLSN() || truncated == 0 || c.Due() {
		t.Fatalf("lsn %d (log at %d), truncated %d, still due %v", lsn, l.NextLSN(), truncated, c.Due())
	}
	var names []string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".seg") {
			names = append(names, e.Name())
		}
	}
	if want := []string{ckptName(lsn), sidecarName(lsn, sidecarSuffix)}; !reflect.DeepEqual(names, want) {
		t.Errorf("non-segment files %v, want %v", names, want)
	}
	got, r, keys, err := Restore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.CheckpointLSN != lsn || !reflect.DeepEqual(keys, w.CommittedKeys()) {
		t.Errorf("restored checkpoint %d keys %v, want %d and %v", r.CheckpointLSN, keys, lsn, w.CommittedKeys())
	}
	if a, b := got.Resolve(genKey).Load().Fields[0], db.Resolve(genKey).Load().Fields[0]; a != b {
		t.Errorf("restored row %d, want %d", a, b)
	}
}

// TestWindow walks one window through every transition: inflight,
// committed with its cached response, released, FIFO eviction past the
// limit, and restored keys.
func TestWindow(t *testing.T) {
	w := NewWindow(2)
	for i, s := range []struct {
		do   func()
		key  uint64
		want State
	}{
		{nil, 1, Miss},
		{nil, 1, Inflight},
		{func() { w.Commit(1, client.Response{Retries: 7}) }, 1, Hit},
		{nil, 2, Miss},
		{func() { w.Release(2) }, 2, Miss}, // released: the retry executes
		{func() { w.Commit(2, client.Response{}); w.Begin(3); w.Commit(3, client.Response{}) }, 1, Miss}, // 1 evicted
		{nil, 3, Hit},
		{func() { w.Restore(4) }, 2, Miss}, // 2 evicted by the restored key
		{nil, 4, Hit},
	} {
		if s.do != nil {
			s.do()
		}
		if got, _ := w.Begin(s.key); got != s.want {
			t.Fatalf("step %d: Begin(%d) = %d, want %d", i, s.key, got, s.want)
		}
	}
	if got := w.CommittedKeys(); !reflect.DeepEqual(got, []uint64{3, 4}) {
		t.Errorf("committed %v, want [3 4] oldest first", got)
	}
	if got := w.Size(); got != 4 { // 3, 4 committed; 1, 2 inflight
		t.Errorf("size %d, want 4", got)
	}
	if _, resp := w.Begin(4); resp.Status != client.StatusCommit {
		t.Errorf("restored key answers %+v, want a commit", resp)
	}
	w.Commit(9, client.Response{Retries: 7})
	if _, resp := w.Begin(9); resp.Retries != 7 {
		t.Errorf("cached response %+v, want Retries 7", resp)
	}
}
