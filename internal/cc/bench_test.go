package cc

import (
	"testing"

	"tskd/internal/storage"
	"tskd/internal/txn"
)

// Benchmark the per-transaction protocol cost on an uncontended
// read-modify-write of 8 rows — the "CC overhead charged to every
// transaction" of Section 2.1.
func benchProtocol(b *testing.B, p Protocol) {
	rows := make([]*storage.Row, 64)
	for i := range rows {
		rows[i] = storage.NewRow(txn.MakeKey(0, uint64(i)), 1)
	}
	c := NewCtx(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Begin(c)
		for j := 0; j < 8; j++ {
			row := rows[(i*8+j)%len(rows)]
			if _, err := p.Read(c, row); err != nil {
				b.Fatal(err)
			}
			if err := p.Write(c, row, func(t *storage.Tuple) { t.Fields[0]++ }); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Commit(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoWait(b *testing.B)  { benchProtocol(b, NewNoWait()) }
func BenchmarkWaitDie(b *testing.B) { benchProtocol(b, NewWaitDie()) }
func BenchmarkOCC(b *testing.B)     { benchProtocol(b, NewOCC()) }
func BenchmarkSilo(b *testing.B)    { benchProtocol(b, NewSilo()) }
func BenchmarkTicToc(b *testing.B)  { benchProtocol(b, NewTicToc()) }
func BenchmarkNone(b *testing.B)    { benchProtocol(b, NewNone()) }
