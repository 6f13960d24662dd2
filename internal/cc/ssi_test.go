package cc

import (
	"testing"

	"tskd/internal/storage"
)

func TestSSISnapshotRead(t *testing.T) {
	p := NewSSI()
	row := newRow(1, 10)
	reader := NewCtx(nil)
	p.Begin(reader)
	writer := NewCtx(nil)
	runTxn(p, writer, func(c *Ctx) error {
		return p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0] = 99 })
	})
	got, err := p.Read(reader, row)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fields[0] != 10 {
		t.Errorf("snapshot read = %d, want 10", got.Fields[0])
	}
	if err := p.Commit(reader); err != nil {
		t.Errorf("read-only txn aborted: %v", err)
	}
}

// The canonical SI anomaly: write skew. T1 reads x writes y, T2 reads
// y writes x, concurrently. Snapshot isolation commits both; SSI must
// abort one.
func TestSSIWriteSkewAborted(t *testing.T) {
	p := NewSSI()
	x, y := newRow(1, 0), newRow(2, 0)
	t1, t2 := NewCtx(nil), NewCtx(nil)
	p.Begin(t1)
	p.Begin(t2)
	if _, err := p.Read(t1, x); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(t2, y); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(t1, y, func(tu *storage.Tuple) { tu.Fields[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(t2, x, func(tu *storage.Tuple) { tu.Fields[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	err1 := p.Commit(t1)
	err2 := p.Commit(t2)
	if err1 == nil && err2 == nil {
		t.Fatal("write skew committed on both sides")
	}
	if err1 != nil {
		p.Abort(t1)
	}
	if err2 != nil {
		p.Abort(t2)
	}
	if err1 != nil && err2 != nil {
		t.Error("both sides aborted; one should commit")
	}
}

// Committed-pivot case: the middle of the dangerous structure commits
// before either edge is visible; the last committer must abort.
func TestSSICommittedPivot(t *testing.T) {
	p := NewSSI()
	x, y := newRow(1, 0), newRow(2, 0)

	// T1 reads x (will write nothing yet); T2 reads y, writes x;
	// T3 writes y. Structure: T1 -rw-> T2 -rw-> T3.
	t1, t2, t3 := NewCtx(nil), NewCtx(nil), NewCtx(nil)
	p.Begin(t1)
	p.Begin(t2)
	p.Begin(t3)
	if _, err := p.Read(t1, x); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Read(t2, y); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(t2, x, func(tu *storage.Tuple) { tu.Fields[0] = 2 }); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(t3, y, func(tu *storage.Tuple) { tu.Fields[0] = 3 }); err != nil {
		t.Fatal(err)
	}
	// T1 also writes a third row so it is not read-only (read-only
	// transactions are always safe under SI).
	z := newRow(3, 0)
	if err := p.Write(t1, z, func(tu *storage.Tuple) { tu.Fields[0] = 1 }); err != nil {
		t.Fatal(err)
	}

	// Commit order: T2 (the pivot) first, then T3, then T1.
	if err := p.Commit(t2); err != nil {
		t.Fatalf("pivot commit failed: %v", err)
	}
	if err := p.Commit(t3); err != nil {
		t.Fatalf("T3 commit failed: %v", err)
	}
	if err := p.Commit(t1); err != ErrConflict {
		t.Fatalf("T1 commit err = %v, want ErrConflict (completes committed pivot)", err)
	}
	p.Abort(t1)
}

func TestSSIFirstCommitterWins(t *testing.T) {
	p := NewSSI()
	row := newRow(1, 0)
	a, b := NewCtx(nil), NewCtx(nil)
	p.Begin(a)
	p.Begin(b)
	if err := p.Write(a, row, func(tu *storage.Tuple) { tu.Fields[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(b, row, func(tu *storage.Tuple) { tu.Fields[0] = 2 }); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(b); err != ErrConflict {
		t.Fatalf("second committer err = %v, want ErrConflict", err)
	}
	p.Abort(b)
	if row.Field(0) != 1 {
		t.Error("first committer's write lost")
	}
}

// TestSSIBeginBetweenCertifyAndInstall forces the interleaving that
// used to lose an rw-antidependency: a transaction begins after a
// writer was certified and before its versions are installed. Whatever
// timestamp that reader gets, it must either see the writer's version
// or, reading the version the writer overwrote, leave its edge on the
// writer's record when it commits. (When certify only predicted the
// commit timestamp, the reader took the predicted number, read the old
// version and passed for "began after the writer committed".)
func TestSSIBeginBetweenCertifyAndInstall(t *testing.T) {
	p := NewSSI()
	x, y := newRow(1, 10), newRow(2, 0)

	// The writer, driven through Commit's steps by hand so the test can
	// stop between them.
	writer := NewCtx(nil)
	p.Begin(writer)
	if err := p.Write(writer, x, func(tu *storage.Tuple) { tu.Fields[0] = 99 }); err != nil {
		t.Fatal(err)
	}
	if !x.TryLatch() {
		t.Fatal("x already latched")
	}
	commitTS, ok := p.certify(writer)
	if !ok {
		t.Fatal("uncontended writer failed certification")
	}
	rec := len(p.recent) - 1
	if p.recent[rec].commit != commitTS {
		t.Fatalf("recorded commit %d, returned %d", p.recent[rec].commit, commitTS)
	}

	reader := NewCtx(nil)
	p.Begin(reader) // between certification and install

	p.install(writer, commitTS)
	if got := x.WTS.Load(); got != commitTS {
		t.Fatalf("x installed at %d, certified at %d: the record and the version disagree", got, commitTS)
	}

	got, err := p.Read(reader, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(reader, y, func(tu *storage.Tuple) { tu.Fields[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(reader); err != nil {
		t.Fatalf("reader aborted: %v", err)
	}
	switch got.Fields[0] {
	case 99:
		if reader.TS <= commitTS {
			t.Errorf("reader at %d saw the version of %d", reader.TS, commitTS)
		}
	case 10:
		if !p.recent[rec].hadIn {
			t.Errorf("reader at %d read the version commit %d overwrote, and its rw edge was not recorded", reader.TS, commitTS)
		}
	default:
		t.Fatalf("x = %d", got.Fields[0])
	}
}
