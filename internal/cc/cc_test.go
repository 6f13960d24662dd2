package cc

import (
	"runtime"
	"sync"
	"testing"

	"tskd/internal/storage"
	"tskd/internal/txn"
)

// allProtocols returns one fresh instance of every protocol that
// provides isolation, built from the registry so the list cannot drift
// from Names.
func allProtocols() []Protocol {
	var ps []Protocol
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			panic(err)
		}
		ps = append(ps, p)
	}
	return ps
}

func newRow(rowKey uint64, fields ...uint64) *storage.Row {
	r := storage.NewRow(txn.MakeKey(0, rowKey), max(len(fields), 1))
	t := r.Load().Clone()
	copy(t.Fields, fields)
	r.Install(t)
	return r
}

// runTxn executes body under p with retry-until-commit, the same loop
// the engine uses.
func runTxn(p Protocol, c *Ctx, body func(*Ctx) error) {
	for {
		p.Begin(c)
		if err := body(c); err != nil {
			p.Abort(c)
			continue
		}
		if err := p.Commit(c); err != nil {
			p.Abort(c)
			continue
		}
		return
	}
}

func TestReadOwnWrite(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.Name(), func(t *testing.T) {
			row := newRow(1, 10)
			c := NewCtx(nil)
			p.Begin(c)
			if err := p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0] = 42 }); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := p.Read(c, row)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if got.Fields[0] != 42 {
				t.Errorf("read own write = %d, want 42", got.Fields[0])
			}
			// Not yet visible outside.
			if row.Field(0) != 10 {
				t.Errorf("uncommitted write visible: %d", row.Field(0))
			}
			if err := p.Commit(c); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			if row.Field(0) != 42 {
				t.Errorf("committed write not visible: %d", row.Field(0))
			}
		})
	}
}

func TestAbortDropsWrites(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.Name(), func(t *testing.T) {
			row := newRow(1, 7)
			c := NewCtx(nil)
			p.Begin(c)
			if err := p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0] = 99 }); err != nil {
				t.Fatalf("Write: %v", err)
			}
			p.Abort(c)
			if row.Field(0) != 7 {
				t.Errorf("aborted write leaked: %d", row.Field(0))
			}
			if c.Stats.Aborts != 1 {
				t.Errorf("Aborts = %d, want 1", c.Stats.Aborts)
			}
			// Locks must be released: a second transaction succeeds.
			c2 := NewCtx(nil)
			runTxn(p, c2, func(c *Ctx) error {
				return p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0] = 1 })
			})
			if row.Field(0) != 1 {
				t.Error("row unreachable after abort")
			}
		})
	}
}

func TestWriteAfterWriteCoalesces(t *testing.T) {
	for _, p := range allProtocols() {
		t.Run(p.Name(), func(t *testing.T) {
			row := newRow(1, 0)
			c := NewCtx(nil)
			p.Begin(c)
			for i := 0; i < 3; i++ {
				if err := p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0]++ }); err != nil {
					t.Fatalf("Write %d: %v", i, err)
				}
			}
			if err := p.Commit(c); err != nil {
				t.Fatalf("Commit: %v", err)
			}
			if row.Field(0) != 3 {
				t.Errorf("coalesced writes = %d, want 3", row.Field(0))
			}
		})
	}
}

func TestNoWaitWriteWriteConflict(t *testing.T) {
	p := NewNoWait()
	row := newRow(1, 0)
	c1, c2 := NewCtx(nil), NewCtx(nil)
	p.Begin(c1)
	p.Begin(c2)
	if err := p.Write(c1, row, func(tu *storage.Tuple) { tu.Fields[0] = 1 }); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if err := p.Write(c2, row, func(tu *storage.Tuple) { tu.Fields[0] = 2 }); err != ErrConflict {
		t.Fatalf("second write err = %v, want ErrConflict", err)
	}
	p.Abort(c2)
	if c2.Stats.Contended == 0 {
		t.Error("conflict not counted as contended")
	}
	if err := p.Commit(c1); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if row.Field(0) != 1 {
		t.Errorf("row = %d, want 1", row.Field(0))
	}
}

func TestNoWaitReadWriteConflict(t *testing.T) {
	p := NewNoWait()
	row := newRow(1, 0)
	c1, c2 := NewCtx(nil), NewCtx(nil)
	p.Begin(c1)
	p.Begin(c2)
	if _, err := p.Read(c1, row); err != nil {
		t.Fatal(err)
	}
	// Writer conflicts with the shared lock.
	if err := p.Write(c2, row, func(tu *storage.Tuple) {}); err != ErrConflict {
		t.Fatalf("writer vs reader err = %v, want ErrConflict", err)
	}
	p.Abort(c2)
	// Another reader coexists.
	c3 := NewCtx(nil)
	p.Begin(c3)
	if _, err := p.Read(c3, row); err != nil {
		t.Errorf("second reader blocked: %v", err)
	}
	p.Abort(c3)
	p.Abort(c1)
}

func TestTwoPLUpgrade(t *testing.T) {
	p := NewNoWait()
	row := newRow(1, 5)
	c := NewCtx(nil)
	p.Begin(c)
	if _, err := p.Read(c, row); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0]++ }); err != nil {
		t.Fatalf("sole-reader upgrade failed: %v", err)
	}
	if err := p.Commit(c); err != nil {
		t.Fatal(err)
	}
	if row.Field(0) != 6 {
		t.Errorf("row = %d, want 6", row.Field(0))
	}
	if row.Lock.Load() != 0 {
		t.Errorf("lock word not clean after commit: %x", row.Lock.Load())
	}
}

func TestTwoPLUpgradeConflictsWithSecondReader(t *testing.T) {
	for _, p := range []*TwoPL{NewNoWait(), NewWaitDie()} {
		t.Run(p.Name(), func(t *testing.T) {
			row := newRow(1, 0)
			c1, c2 := NewCtx(nil), NewCtx(nil)
			p.Begin(c1)
			p.Begin(c2)
			if _, err := p.Read(c1, row); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Read(c2, row); err != nil {
				t.Fatal(err)
			}
			if err := p.Write(c1, row, func(tu *storage.Tuple) {}); err != ErrConflict {
				t.Fatalf("upgrade with second reader err = %v, want ErrConflict", err)
			}
			p.Abort(c1)
			p.Abort(c2)
			if row.Lock.Load() != 0 {
				t.Errorf("lock word leaked: %x", row.Lock.Load())
			}
		})
	}
}

func TestWaitDieYoungerDies(t *testing.T) {
	p := NewWaitDie()
	row := newRow(1, 0)
	older, younger := NewCtx(nil), NewCtx(nil)
	p.Begin(older) // smaller TS
	p.Begin(younger)
	if older.TS >= younger.TS {
		t.Fatal("timestamp order broken")
	}
	if err := p.Write(older, row, func(tu *storage.Tuple) {}); err != nil {
		t.Fatal(err)
	}
	// Younger requester must die, not wait.
	if err := p.Write(younger, row, func(tu *storage.Tuple) {}); err != ErrConflict {
		t.Fatalf("younger write err = %v, want ErrConflict", err)
	}
	p.Abort(younger)
	p.Abort(older)
}

func TestWaitDieOlderWaits(t *testing.T) {
	p := NewWaitDie()
	row := newRow(1, 0)
	older, younger := NewCtx(nil), NewCtx(nil)
	p.Begin(older)
	p.Begin(younger)
	if err := p.Write(younger, row, func(tu *storage.Tuple) { tu.Fields[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Older transaction waits until the younger commits.
		done <- p.Write(older, row, func(tu *storage.Tuple) { tu.Fields[0] = 2 })
	}()
	// Give the older writer a moment to start waiting, then commit.
	runtime.Gosched()
	if err := p.Commit(younger); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("older writer err = %v, want nil (should wait)", err)
	}
	if err := p.Commit(older); err != nil {
		t.Fatal(err)
	}
	if row.Field(0) != 2 {
		t.Errorf("row = %d, want 2", row.Field(0))
	}
}

func TestOptimisticValidationFailure(t *testing.T) {
	for _, p := range []Protocol{NewOCC(), NewSilo(), NewTicToc()} {
		t.Run(p.Name(), func(t *testing.T) {
			row := newRow(1, 0)
			reader := NewCtx(nil)
			p.Begin(reader)
			if _, err := p.Read(reader, row); err != nil {
				t.Fatal(err)
			}
			// A writer commits in between.
			writer := NewCtx(nil)
			runTxn(p, writer, func(c *Ctx) error {
				return p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0] = 1 })
			})
			// Reader writes something based on the stale read; commit
			// must fail validation.
			if err := p.Write(reader, row, func(tu *storage.Tuple) { tu.Fields[0] = 99 }); err != nil {
				t.Fatal(err)
			}
			if err := p.Commit(reader); err != ErrConflict {
				t.Fatalf("stale commit err = %v, want ErrConflict", err)
			}
			p.Abort(reader)
			if row.Field(0) != 1 {
				t.Errorf("row = %d, want 1 (stale write must not land)", row.Field(0))
			}
		})
	}
}

func TestTicTocReadOnlyCoexistsWithWriter(t *testing.T) {
	// Under TicToc, a read-only transaction that read before a writer
	// committed still commits (lease extension), unlike naive OCC.
	p := NewTicToc()
	rowA, rowB := newRow(1, 0), newRow(2, 0)
	reader := NewCtx(nil)
	p.Begin(reader)
	if _, err := p.Read(reader, rowA); err != nil {
		t.Fatal(err)
	}
	writer := NewCtx(nil)
	runTxn(p, writer, func(c *Ctx) error {
		return p.Write(c, rowB, func(tu *storage.Tuple) { tu.Fields[0] = 1 })
	})
	if _, err := p.Read(reader, rowB); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(reader); err != nil {
		t.Errorf("read-only commit failed: %v", err)
	}
}

// Lost-update test: concurrent increments must all land, under every
// protocol.
func TestNoLostUpdates(t *testing.T) {
	const workers = 8
	const increments = 300
	for _, p := range allProtocols() {
		t.Run(p.Name(), func(t *testing.T) {
			row := newRow(1, 0)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := NewCtx(nil)
					for i := 0; i < increments; i++ {
						runTxn(p, c, func(c *Ctx) error {
							if _, err := p.Read(c, row); err != nil {
								return err
							}
							return p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0]++ })
						})
					}
				}()
			}
			wg.Wait()
			if got := row.Field(0); got != workers*increments {
				t.Errorf("counter = %d, want %d", got, workers*increments)
			}
		})
	}
}

// Bank-transfer invariant: total balance is conserved under concurrent
// transfers, and no transaction ever observes a negative total.
func TestTransferConservation(t *testing.T) {
	const accounts = 16
	const workers = 8
	const transfers = 200
	const initial = 1000
	for _, p := range allProtocols() {
		t.Run(p.Name(), func(t *testing.T) {
			rows := make([]*storage.Row, accounts)
			for i := range rows {
				rows[i] = newRow(uint64(i), initial)
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := NewCtx(nil)
					for i := 0; i < transfers; i++ {
						from := rows[(w*7+i)%accounts]
						to := rows[(w*3+i*5+1)%accounts]
						if from == to {
							continue
						}
						runTxn(p, c, func(c *Ctx) error {
							ft, err := p.Read(c, from)
							if err != nil {
								return err
							}
							amt := ft.Fields[0] / 10
							if err := p.Write(c, from, func(tu *storage.Tuple) { tu.Fields[0] -= amt }); err != nil {
								return err
							}
							return p.Write(c, to, func(tu *storage.Tuple) { tu.Fields[0] += amt })
						})
					}
				}(w)
			}
			wg.Wait()
			total := uint64(0)
			for _, r := range rows {
				total += r.Field(0)
			}
			if total != accounts*initial {
				t.Errorf("total = %d, want %d", total, accounts*initial)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range append(Names(), "NONE") {
		p, err := New(name)
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := New("BOGUS"); err == nil {
		t.Error("New(BOGUS) succeeded")
	}
}

func TestNoneCommitsAlways(t *testing.T) {
	p := NewNone()
	row := newRow(1, 0)
	c := NewCtx(nil)
	p.Begin(c)
	if _, err := p.Read(c, row); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(c, row, func(tu *storage.Tuple) { tu.Fields[0] = 5 }); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(c); err != nil {
		t.Fatalf("NONE commit failed: %v", err)
	}
	if row.Field(0) != 5 {
		t.Error("NONE write not installed")
	}
}

func TestCtxResetClearsState(t *testing.T) {
	p := NewNoWait()
	row := newRow(1, 0)
	c := NewCtx(nil)
	p.Begin(c)
	if _, err := p.Read(c, row); err != nil {
		t.Fatal(err)
	}
	p.Abort(c)
	p.Begin(c)
	if len(c.reads) != 0 || len(c.writes) != 0 || len(c.locks) != 0 || len(c.pending) != 0 {
		t.Error("Begin did not reset context")
	}
	p.Abort(c)
}
