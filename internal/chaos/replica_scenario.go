package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tskd/internal/client"
	"tskd/internal/replica"
	"tskd/internal/shard"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

// replica_scenario.go: the failover scenario. A durable multi-shard
// primary (a server child, as in shard-crash) ships every WAL flush —
// shard redo, 2PC prepares, coordinator decisions — synchronously to a
// backup receiver running in the parent, and is SIGKILLed mid-load at
// a seeded acknowledged-commit count. The primary's directory is then
// abandoned: the backup directory is promoted (fencing epoch bump) and
// a second incarnation recovers and serves over it. The verdict audits
// the promoted timeline:
//
//   - no acknowledged commit is lost — in sync mode the ack waited for
//     the backup, so every acked marker must survive on the backup's
//     recovered shards, never the primary's disk being needed at all;
//   - exactly-once: markers at version 1, redelivered acked keys are
//     answered from the shipped dedup windows as duplicates;
//   - fencing: promotion leaves the directory at epoch 1, a shipper
//     presenting the deposed epoch is refused at the handshake, and
//     the shipped coordinator log's boot records carry non-decreasing
//     epochs ending at the promoted one;
//   - no dangling in-doubt, no phantom or misrouted markers, and the
//     surviving WAL tails install each version exactly once
//     (serializability of the shipped history);
//   - recovery over the shipped directory is idempotent.

// replKey is the stable idempotency key of submission (c, i) — its own
// site, disjoint from the other scenarios' key spaces.
func replKey(seed int64, c, i int) uint64 {
	return site(seed, "replica/kill", int64(c), int64(i)) | 1
}

// replTxn builds replica-failover submission (c, i): the shard-crash
// shape (two contended updates + unique marker insert) over ReplShards
// shards, with the cross-shard decision drawn from this scenario's own
// site.
func (p Plan) replTxn(c, i int, marker uint64) *txn.Transaction {
	r := shard.Router{Shards: p.ReplShards}
	mk := txn.MakeKey(workload.YCSBTable, marker)
	home := r.Home(mk)
	cross := p.replCross(c, i)
	t := txn.New(0)
	for j := 0; j < 2; j++ {
		row := site(p.Seed, "replica/key", int64(c), int64(i), int64(j)) % shardCrashRows
		want := home
		if cross && j == 1 {
			want = (home + 1) % p.ReplShards
		}
		t.U(probeHomeRow(r, row, want), 1)
	}
	return t.I(mk)
}

// runReplicaFailover drives the replica-failover scenario for one seed.
func runReplicaFailover(seed int64) Report {
	plan := NewPlan(seed)
	var v violations
	fail := func() Report { return report("replica-failover", seed, plan.replicaSummary(), v) }

	root := os.Getenv(envKillDataRoot)
	if root == "" {
		root = os.TempDir()
	}
	dataDir, err := os.MkdirTemp(root, fmt.Sprintf("tskd-replica-%d-", seed))
	if err != nil {
		v.addf("mkdir data dir: %v", err)
		return fail()
	}
	defer func() {
		if len(v) == 0 {
			os.RemoveAll(dataDir)
		} else {
			fmt.Fprintf(os.Stderr, "chaos: replica-failover seed %d failed, data dir kept at %s\n", seed, dataDir)
		}
	}()
	primaryDir := filepath.Join(dataDir, "primary")
	backupDir := filepath.Join(dataDir, "backup")
	for _, d := range []string{primaryDir, backupDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			v.addf("mkdir %s: %v", d, err)
			return fail()
		}
	}

	// The backup receiver runs in this process with real fsync — its
	// disk is what the sync-mode acks vouched for.
	recv, err := replica.NewServer(replica.ServerConfig{Dir: backupDir})
	if err != nil {
		v.addf("backup receiver: %v", err)
		return fail()
	}
	if err := recv.Start("127.0.0.1:0"); err != nil {
		v.addf("backup receiver start: %v", err)
		return fail()
	}
	defer recv.Close()

	// Phase 1: load the replicating primary, SIGKILL once enough commits
	// were acknowledged — the kill races 2PC rounds, group flushes and
	// the replication stream itself.
	cmd1, addr, err := spawnServerChild(seed, primaryDir, filepath.Join(dataDir, "addr-1"),
		plan.ReplShards, envReplicaAddr+"="+recv.Addr())
	if err != nil {
		v.addf("phase 1 spawn: %v", err)
		return fail()
	}
	total := plan.ReplClients * plan.ReplSubs
	const (
		outUnknown = iota
		outAcked
	)
	outcome := make([]int32, total)
	var ackCount atomic.Int64
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { cmd1.Process.Kill() }) }
	errs := make(chan string, plan.ReplClients)
	var wg sync.WaitGroup
	for c := 0; c < plan.ReplClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := client.DialPipelined(addr, client.PipelineConfig{})
			if err != nil {
				errs <- fmt.Sprintf("phase 1 client %d dial: %v", c, err)
				return
			}
			defer conn.Close()
			for i := 0; i < plan.ReplSubs; i++ {
				req, err := client.NewRequest(0, plan.replTxn(c, i, liveMarker(c, i)))
				if err != nil {
					errs <- fmt.Sprintf("phase 1 client %d req: %v", c, err)
					return
				}
				req.IdemKey = replKey(seed, c, i)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				resp, err := conn.Submit(ctx, req)
				cancel()
				if err == nil && resp.Status == client.StatusCommit {
					outcome[c*plan.ReplSubs+i] = outAcked
					if ackCount.Add(1) >= int64(plan.ReplAfterAcks) {
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

	// Drain the replication stream: the primary's death closes the
	// connection once every in-flight frame was consumed; everything
	// the receiver read is fsynced before it acks, so after the last
	// connection goes away the backup directory is quiescent.
	drainDeadline := time.Now().Add(30 * time.Second)
	for recv.Stats().Conns > 0 {
		if time.Now().After(drainDeadline) {
			v.addf("replication stream never drained after the kill")
			return fail()
		}
		time.Sleep(5 * time.Millisecond)
	}
	recv.Close()

	// Failover: promote the shipped directory. The epoch bump is the
	// fence — a returning primary at the old epoch must be refused.
	epoch, err := replica.Promote(backupDir)
	if err != nil {
		v.addf("promote: %v", err)
		return fail()
	}
	if epoch != 1 {
		v.addf("promoted epoch %d, want 1", epoch)
	}
	fence, err := replica.NewServer(replica.ServerConfig{Dir: backupDir})
	if err != nil {
		v.addf("post-promotion receiver: %v", err)
		return fail()
	}
	if err := fence.Start("127.0.0.1:0"); err != nil {
		v.addf("post-promotion receiver start: %v", err)
		return fail()
	}
	if _, err := replica.NewShipper(replica.ShipperConfig{Addr: fence.Addr(), Epoch: 0}); !errors.Is(err, replica.ErrFenced) {
		v.addf("deposed primary (epoch 0) not fenced: %v", err)
	}
	if s, err := replica.NewShipper(replica.ShipperConfig{Addr: fence.Addr(), Epoch: epoch}); err != nil {
		v.addf("promoted epoch %d refused: %v", epoch, err)
	} else {
		s.Close()
	}
	fence.Close()

	// Phase 2: a fresh incarnation over the promoted directory. Its
	// recovery resolves every in-doubt prepare from the shipped
	// coordinator log before the address is published. Resubmit every
	// in-doubt submission and redeliver a seed-chosen sample of the
	// acknowledged ones.
	cmd2, addr2, err := spawnServerChild(seed, backupDir, filepath.Join(dataDir, "addr-2"), plan.ReplShards)
	if err != nil {
		v.addf("phase 2 spawn: %v", err)
		return fail()
	}
	rc := client.DialReliable(addr2, client.RetryPolicy{Seed: seed ^ 0x7265706C})
	for c := 0; c < plan.ReplClients; c++ {
		for i := 0; i < plan.ReplSubs; i++ {
			idx := c*plan.ReplSubs + i
			redeliver := outcome[idx] == outAcked && plan.redeliverReplAcked(c, i)
			if outcome[idx] == outAcked && !redeliver {
				continue
			}
			req, err := client.NewRequest(0, plan.replTxn(c, i, liveMarker(c, i)))
			if err != nil {
				v.addf("phase 2 req (%d,%d): %v", c, i, err)
				continue
			}
			req.IdemKey = replKey(seed, c, i)
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

	// Verdict: recover the promoted directory read-only and audit what
	// the pair together had to make durable. The primary's directory is
	// deliberately never consulted — the shipped copy must suffice.
	if (shardedAudit{
		dir: backupDir, shards: plan.ReplShards, clients: plan.ReplClients, subs: plan.ReplSubs,
		acked: func(c, i int) bool { return outcome[c*plan.ReplSubs+i] == outAcked },
		txn:   plan.replTxn,
		key:   func(c, i int) uint64 { return replKey(seed, c, i) },
		where: "shipped ",
	}).run(&v) {
		auditPromotedEpoch(&v, backupDir)
	}
	return fail()
}
