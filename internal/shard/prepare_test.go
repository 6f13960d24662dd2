package shard

import (
	"sync"
	"sync/atomic"
	"testing"

	"tskd/internal/client"
	"tskd/internal/txn"
)

// TestPrepareAllocBudget pins the participant's prepare path: with the
// coordinator ordering conflicts apart nearly every prepare succeeds,
// so staging is what a cross-shard transaction costs a shard. A warmed
// unit stages, votes and discards without allocating; installing a
// commit allocates only the rows' new tuples (wal.ApplyRecord: a tuple
// and its field array per written row).
func TestPrepareAllocBudget(t *testing.T) {
	rt := openTest(t, 2, nil)
	defer shutdown(t, rt)
	u := rt.units[0]
	r := rt.Router()
	const written = 4
	var ops []txn.Op
	for i := 0; i < written; i++ {
		k := keyOn(r, 0, uint64(i*50))
		ops = append(ops,
			txn.Op{Kind: txn.OpRead, Key: keyOn(r, 0, uint64(i*50+25))},
			txn.Op{Kind: txn.OpUpdate, Key: k, Arg: 1},
			txn.Op{Kind: txn.OpUpdate, Key: k, Field: 1, Arg: 1})
	}

	votes := make(chan vote, 1)
	var wg sync.WaitGroup
	prep := &shardOp{kind: opPrepare, ops: ops, votes: votes}
	dec := &shardOp{kind: opDecide, wg: &wg}
	gid := rt.gidEpoch<<32 | 5000
	round := func(commit bool) {
		gid++
		prep.gid, dec.gid, dec.commit = gid, gid, commit
		u.ops <- prep
		if v := <-votes; !v.yes {
			t.Fatal("prepare voted no")
		}
		wg.Add(1)
		u.ops <- dec
		wg.Wait()
	}
	round(true) // warm the scratch, the free list and the maps

	if got := testing.AllocsPerRun(200, func() { round(false) }); got != 0 {
		t.Errorf("prepare + discard: %.1f allocs, want 0", got)
	}
	if got, budget := testing.AllocsPerRun(200, func() { round(true) }), float64(2*written); got > budget {
		t.Errorf("prepare + install of %d rows: %.1f allocs, want <= %.0f", written, got, budget)
	}
}

// BenchmarkCrossShardHotKey drives overlapping cross-shard transactions
// through Runtime.Submit: 32 callers, every transaction updating the
// same hot row plus one of its caller's own on another shard, each
// refusal resubmitted at once. It reports first-attempt behaviour next
// to the rate: participant no-votes and client resubmits per commit.
func BenchmarkCrossShardHotKey(b *testing.B) {
	rt, err := Open(Config{Shards: 4, DB: ycsbBase, Bundle: 256})
	if err != nil {
		b.Fatal(err)
	}
	r := rt.Router()
	hot := keyOn(r, 0, 0)
	const callers = 32
	var next, resubmits atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := keyOn(r, 1+c%3, uint64(c*31))
			ch := make(chan client.Response, 1)
			answer := func(resp client.Response) { ch <- resp }
			for next.Add(1) <= int64(b.N) {
				for {
					rt.Submit(txn.New(0).U(hot, 1).U(own, 1), answer)
					if resp := <-ch; resp.Status == client.StatusCommit {
						break
					} else if resp.Status != client.StatusRejected {
						b.Errorf("unexpected response %+v", resp)
						return
					}
					resubmits.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
	b.ReportMetric(float64(votedNo(rt.Stats()))/float64(b.N), "vote-no/commit")
	b.ReportMetric(float64(resubmits.Load())/float64(b.N), "resubmits/commit")
	shutdown(b, rt)
}
