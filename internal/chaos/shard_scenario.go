package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tskd/internal/client"
	"tskd/internal/history"
	"tskd/internal/replica"
	"tskd/internal/shard"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// shard_scenario.go: the multi-shard crash-recovery scenario. A
// durable sharded server child (same child mode as kill-restart, with
// envKillShards set) is loaded with a seed-chosen mix of single- and
// cross-shard transactions and SIGKILLed mid-load — so the kill races
// not just group commits and checkpoints but 2PC prepares, coordinator
// decision appends and asynchronous participant installs. The restart
// must resolve every in-doubt prepare from the coordinator log before
// accepting traffic, and afterwards the directory must satisfy:
//
//   - no acknowledged commit is lost, single- or cross-shard (its
//     marker row survives on its home shard at version 1);
//   - redelivering an acknowledged key is answered from the recovered
//     dedup window — the per-shard one for single-shard transactions,
//     the coordinator one for cross-shard;
//   - no dangling in-doubt: every prepare in the surviving WAL tails
//     is resolved (committed via a coordinator decision or presumed
//     aborted), never left pending;
//   - no phantom or misrouted markers: every marker row in any shard's
//     store was submitted and lives on the shard that owns its key;
//   - the surviving WAL tails install each version of each row exactly
//     once across commits and decided prepares (history.CheckEvents);
//   - recovery is idempotent.

// shardCrashRows bounds the contended update keys: small enough that
// concurrent 2PC rounds collide (exercising vote-no and parking),
// large enough that the load makes progress.
const shardCrashRows = 512

// shardCrashKey is the stable idempotency key of submission (c, i) —
// a different site than killKey so the two scenarios' key spaces never
// collide on a shared dedup window.
func shardCrashKey(seed int64, c, i int) uint64 {
	return site(seed, "shard/kill", int64(c), int64(i)) | 1
}

// shardBase builds one shard's initial replica; like killBaseDB it
// must be identical across incarnations and the audit.
func shardBase(int) *storage.DB { return killBaseDB().BuildDB() }

// probeHomeRow walks rows upward from row until one lands on shard
// want under r's hash placement.
func probeHomeRow(r shard.Router, row uint64, want int) txn.Key {
	for {
		k := txn.MakeKey(workload.YCSBTable, row%shardCrashRows)
		if r.Home(k) == want {
			return k
		}
		row++
	}
}

// shardTxn builds shard-crash submission (c, i): two contended updates
// plus the unique marker insert. Single-shard submissions confine every
// key to the marker's home shard; cross-shard ones steer the second
// update to the next shard over, forcing a 2PC round.
func (p Plan) shardTxn(c, i int, marker uint64) *txn.Transaction {
	r := shard.Router{Shards: p.ShardCount}
	mk := txn.MakeKey(workload.YCSBTable, marker)
	home := r.Home(mk)
	cross := p.crossShard(c, i)
	t := txn.New(0)
	for j := 0; j < 2; j++ {
		row := site(p.Seed, "shard/key", int64(c), int64(i), int64(j)) % shardCrashRows
		want := home
		if cross && j == 1 {
			want = (home + 1) % p.ShardCount
		}
		t.U(probeHomeRow(r, row, want), 1)
	}
	return t.I(mk)
}

// runShardCrash drives the shard-crash scenario for one seed.
func runShardCrash(seed int64) Report {
	plan := NewPlan(seed)
	var v violations
	fail := func() Report { return report("shard-crash", seed, plan.shardSummary(), v) }

	root := os.Getenv(envKillDataRoot)
	if root == "" {
		root = os.TempDir()
	}
	dataDir, err := os.MkdirTemp(root, fmt.Sprintf("tskd-shard-%d-", seed))
	if err != nil {
		v.addf("mkdir data dir: %v", err)
		return fail()
	}
	defer func() {
		if len(v) == 0 {
			os.RemoveAll(dataDir)
		} else {
			fmt.Fprintf(os.Stderr, "chaos: shard-crash seed %d failed, data dir kept at %s\n", seed, dataDir)
		}
	}()

	// Phase 1: load the first incarnation, SIGKILL once enough commits
	// were acknowledged. Anything unacknowledged — including rejected
	// cross-shard rounds that lost a vote race — stays in doubt for
	// phase 2 to resolve under its original idempotency key.
	cmd1, addr, err := spawnServerChild(seed, dataDir, filepath.Join(dataDir, "addr-1"), plan.ShardCount)
	if err != nil {
		v.addf("phase 1 spawn: %v", err)
		return fail()
	}
	total := plan.ShardClients * plan.ShardSubs
	const (
		outUnknown = iota
		outAcked
	)
	outcome := make([]int32, total)
	var ackCount atomic.Int64
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { cmd1.Process.Kill() }) }
	errs := make(chan string, plan.ShardClients)
	var wg sync.WaitGroup
	for c := 0; c < plan.ShardClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := client.DialPipelined(addr, client.PipelineConfig{})
			if err != nil {
				errs <- fmt.Sprintf("phase 1 client %d dial: %v", c, err)
				return
			}
			defer conn.Close()
			for i := 0; i < plan.ShardSubs; i++ {
				req, err := client.NewRequest(0, plan.shardTxn(c, i, liveMarker(c, i)))
				if err != nil {
					errs <- fmt.Sprintf("phase 1 client %d req: %v", c, err)
					return
				}
				req.IdemKey = shardCrashKey(seed, c, i)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				resp, err := conn.Submit(ctx, req)
				cancel()
				if err == nil && resp.Status == client.StatusCommit {
					outcome[c*plan.ShardSubs+i] = outAcked
					if ackCount.Add(1) >= int64(plan.ShardAfterAcks) {
						kill()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	kill()
	cmd1.Wait()
	for msg := range errs {
		v.addf("%s", msg)
	}
	if len(v) > 0 {
		return fail()
	}

	// Phase 2: restart over the same directory — startup recovery must
	// resolve every in-doubt prepare before the address is published.
	// Resubmit every in-doubt submission and redeliver a seed-chosen
	// sample of the acknowledged ones.
	cmd2, addr2, err := spawnServerChild(seed, dataDir, filepath.Join(dataDir, "addr-2"), plan.ShardCount)
	if err != nil {
		v.addf("phase 2 spawn: %v", err)
		return fail()
	}
	rc := client.DialReliable(addr2, client.RetryPolicy{Seed: seed ^ 0x73686172})
	for c := 0; c < plan.ShardClients; c++ {
		for i := 0; i < plan.ShardSubs; i++ {
			idx := c*plan.ShardSubs + i
			redeliver := outcome[idx] == outAcked && plan.redeliverShardAcked(c, i)
			if outcome[idx] == outAcked && !redeliver {
				continue
			}
			req, err := client.NewRequest(0, plan.shardTxn(c, i, liveMarker(c, i)))
			if err != nil {
				v.addf("phase 2 req (%d,%d): %v", c, i, err)
				continue
			}
			req.IdemKey = shardCrashKey(seed, c, i)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			resp, err := rc.Submit(ctx, req)
			cancel()
			if err != nil {
				v.addf("phase 2 submit (%d,%d): %v", c, i, err)
				continue
			}
			if resp.Status != client.StatusCommit {
				v.addf("phase 2 submit (%d,%d): status %s, want commit", c, i, resp.Status)
				continue
			}
			if redeliver && !resp.Duplicate {
				v.addf("redelivered acked key (%d,%d) re-executed instead of deduplicated", c, i)
			}
			outcome[idx] = outAcked
		}
	}
	rc.Close()
	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()

	// Verdict: recover the directory read-only to a consistent cut and
	// audit what the two incarnations together had to make durable.
	shardedAudit{
		dir: dataDir, shards: plan.ShardCount, clients: plan.ShardClients, subs: plan.ShardSubs,
		acked: func(c, i int) bool { return outcome[c*plan.ShardSubs+i] == outAcked },
		txn:   plan.shardTxn,
		key:   func(c, i int) uint64 { return shardCrashKey(seed, c, i) },
	}.run(&v)
	return fail()
}

// shardedAudit is the verdict the sharded scenarios (shard-crash,
// replica-failover, auto-failover) share over the directory that had to
// make their acknowledged commits durable.
type shardedAudit struct {
	dir                   string
	shards, clients, subs int
	acked                 func(c, i int) bool
	txn                   func(c, i int, marker uint64) *txn.Transaction
	key                   func(c, i int) uint64 // idempotency key of (c, i)
	where                 string                // qualifies the shards in messages: "", "shipped ", "promoted "
}

// run recovers the directory read-only to a consistent cut and checks
// every acked marker, the dedup windows, phantoms and misrouting,
// dangling in-doubt prepares, the WAL tails' exactly-once installs and
// idempotent recovery. It reports false when the directory could not
// be recovered at all.
func (a shardedAudit) run(v *violations) bool {
	st, err := shard.Recover(a.dir, a.shards, shardBase)
	if err != nil {
		v.addf("recover: %v", err)
		return false
	}
	r := shard.Router{Shards: a.shards}
	localKeys := make([]map[uint64]bool, a.shards)
	for s := range localKeys {
		localKeys[s] = make(map[uint64]bool, len(st.ShardKeys[s]))
		for _, k := range st.ShardKeys[s] {
			localKeys[s][k] = true
		}
	}
	crossKeys := make(map[uint64]bool, len(st.CrossKeys))
	for _, k := range st.CrossKeys {
		crossKeys[k] = true
	}
	submitted := make(map[uint64]bool, a.clients*a.subs)
	var parts []int
	for c := 0; c < a.clients; c++ {
		for i := 0; i < a.subs; i++ {
			marker := liveMarker(c, i)
			submitted[marker] = true
			if !a.acked(c, i) {
				continue // already reported as a phase-2 violation
			}
			parts = r.Participants(a.txn(c, i, marker), parts[:0])
			home := r.Home(txn.MakeKey(workload.YCSBTable, marker))
			row := st.DBs[home].Table(workload.YCSBTable).Get(marker)
			if row == nil {
				v.addf("lost acked commit: marker (%d,%d) missing from %sshard %d", c, i, a.where, home)
				continue
			}
			if n := storage.VerNumber(row.Ver.Load()); n != 1 {
				v.addf("marker (%d,%d) at version %d, want 1 (double apply)", c, i, n)
			}
			key := a.key(c, i)
			if len(parts) == 1 {
				if !localKeys[parts[0]][key] {
					v.addf("acked single-shard key (%d,%d) missing from %sshard %d dedup window", c, i, a.where, parts[0])
				}
			} else if !crossKeys[key] {
				v.addf("acked cross-shard key (%d,%d) missing from %scoordinator dedup window", c, i, a.where)
			}
		}
	}
	// No phantom or misrouted markers: every marker row in any store
	// was submitted, and lives on the shard that owns it.
	for s := 0; s < a.shards; s++ {
		st.DBs[s].Table(workload.YCSBTable).Scan(liveMarkerBase, ^uint64(0), func(row *storage.Row) bool {
			if !submitted[row.Key.Row()] {
				v.addf("phantom marker %d on shard %d installed by no submission", row.Key.Row(), s)
			} else if r.Home(row.Key) != s {
				v.addf("marker %d misrouted: on shard %d, owned by %d", row.Key.Row(), s, r.Home(row.Key))
			}
			return true
		})
	}
	// No dangling in-doubt: every surviving prepare was resolved one
	// way or the other.
	for _, sh := range st.Info.Shards {
		if sh.Prepares != sh.ResolvedCommitted+sh.ResolvedAborted {
			v.addf("shard %d: %d prepares, only %d committed + %d aborted resolved",
				sh.Shard, sh.Prepares, sh.ResolvedCommitted, sh.ResolvedAborted)
		}
	}
	// The surviving WAL tails must install each version of each row
	// exactly once: local commits plus prepares whose global transaction
	// has a coordinator decision (undecided prepares never install).
	var events []history.Event
	for s := 0; s < a.shards; s++ {
		dir := filepath.Join(a.dir, fmt.Sprintf("shard-%02d", s))
		if _, _, err := wal.ReplayDir(dir, func(lsn uint64, rec wal.Record) error {
			install := rec.Kind == wal.RecordCommit
			if rec.Kind == wal.RecordPrepare {
				_, install = st.Committed[uint64(rec.TxnID)]
			}
			if !install {
				return nil
			}
			e := history.Event{TxnID: len(events)}
			for _, w := range rec.Writes {
				e.Writes = append(e.Writes, history.Obs{Key: txn.Key(w.Key), Ver: w.Ver})
			}
			events = append(events, e)
			return nil
		}); err != nil {
			v.addf("shard %d wal replay: %v", s, err)
		}
	}
	if err := history.CheckEvents(events); err != nil {
		v.addf("wal tails: %v", err)
	}
	// Recovery is idempotent: a second pass lands on identical state.
	if st2, err := shard.Recover(a.dir, a.shards, shardBase); err != nil {
		v.addf("second recover: %v", err)
	} else if !reflect.DeepEqual(st2.Info, st.Info) {
		v.addf("recovery not idempotent: %+v then %+v", st.Info, st2.Info)
	}
	return true
}

// auditPromotedEpoch is the fencing evidence a promoted backup's
// directory must carry: it sits at epoch 1, and the shipped coordinator
// log's boot records carry non-decreasing epochs ending there — exactly
// one boot per incarnation (the killed primary, then the promoted one).
func auditPromotedEpoch(v *violations, dir string) {
	if e, err := replica.ReadEpoch(dir); err != nil || e != 1 {
		v.addf("promoted directory epoch %d (%v), want 1", e, err)
	}
	var bootEpochs []uint64
	if _, _, err := wal.ReplayDir(filepath.Join(dir, "coord"), func(_ uint64, rec wal.Record) error {
		if rec.Kind == wal.RecordBoot {
			bootEpochs = append(bootEpochs, rec.IdemKey)
		}
		return nil
	}); err != nil {
		v.addf("coord replay: %v", err)
	} else if !reflect.DeepEqual(bootEpochs, []uint64{0, 1}) {
		v.addf("boot record epochs %v, want [0 1]", bootEpochs)
	}
}
