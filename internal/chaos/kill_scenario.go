package chaos

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tskd/internal/arbiter"
	"tskd/internal/client"
	"tskd/internal/core"
	"tskd/internal/history"
	"tskd/internal/replica"
	"tskd/internal/server"
	"tskd/internal/storage"
	"tskd/internal/txn"
	"tskd/internal/wal"
	"tskd/internal/workload"
)

// kill_scenario.go: the crash-recovery scenario. Unlike the in-process
// scenarios, this one kills a real durable server — a child process
// running this same binary in server mode — with SIGKILL at an instant
// chosen by the seed (after Plan.KillAfterAcks acknowledged commits),
// restarts it over the same data directory, resubmits every in-doubt
// transaction under its original idempotency key, and then recovers
// the directory read-only to verify the durability contract:
//
//   - no acknowledged commit is lost (its marker row survives);
//   - no transaction applies twice (marker versions stay at 1, and the
//     WAL never holds two installs of one version);
//   - redelivering an already-acknowledged key after the restart is
//     answered from the recovered dedup window, not re-executed;
//   - recovery is idempotent (a second Recover sees identical state).
//
// The child runs with real fsync: the kill races actual group-commit
// flushes, segment rotations and checkpoint truncations (the plan's
// tiny thresholds force several of each before the kill lands).

// Child-mode environment. MaybeServerChild turns the process into the
// durable server when envKillChild is set; the parent fills the rest.
const (
	envKillChild    = "TSKD_CHAOS_SERVER_CHILD"
	envKillDataDir  = "TSKD_CHAOS_DATA_DIR"
	envKillAddrFile = "TSKD_CHAOS_ADDR_FILE"
	envKillSeed     = "TSKD_CHAOS_SEED"
	// envKillShards > 1 turns the child into a multi-shard server (the
	// shard-crash scenario); absent or 1 keeps the single-pipeline one.
	envKillShards = "TSKD_CHAOS_SHARDS"
	// envKillDataRoot (parent side) overrides where scenario data
	// directories are created (default os.TempDir()); CI points it at a
	// workspace path so failing runs can be uploaded as artifacts.
	envKillDataRoot = "TSKD_CHAOS_DATA_ROOT"
	// envReplicaAddr turns the child into a replicating primary: it
	// ships every WAL flush to this backup replication address, in sync
	// mode (acks wait for the backup's fsync while the pair is healthy).
	envReplicaAddr = "TSKD_CHAOS_REPLICA_ADDR"
	// envArbiterAddr turns the child into a lease-gated primary: it
	// registers with the arbiter at this address (group autoFailGroup,
	// epoch from the data directory) and gates every dispatch and WAL
	// flush on the lease. The child waits for its first lease before
	// any log opens; a child the arbiter fences instead (stale epoch)
	// fails its boot-record flush and dies — a deposed incarnation
	// refuses to come back up.
	envArbiterAddr = "TSKD_CHAOS_ARBITER_ADDR"
	// envListenAddr pins the child's transaction listener to a parent-
	// reserved address, which doubles as its arbiter announce — the
	// address the arbiter hands out as the leader to everyone else.
	envListenAddr = "TSKD_CHAOS_LISTEN_ADDR"
)

// killBaseDB is the initial store both server incarnations start from;
// it must be identical across them, so it is a pure function.
func killBaseDB() *workload.YCSB { return &workload.YCSB{Records: 2000} }

// killKey is the stable idempotency key of submission (c, i): derived
// from the seed, so the restarted phase resubmits under the exact keys
// the killed phase used. The low bit is forced — zero means "no key".
func killKey(seed int64, c, i int) uint64 {
	return site(seed, PointKillServer, int64(c), int64(i)) | 1
}

// MaybeServerChild turns the current process into the kill scenario's
// durable server when the child environment is set, and never returns
// in that case. Both entry points that can host the scenario — the
// chaos package's TestMain and cmd/tskd-chaos — call it first thing,
// so os.Executable() re-executed with the environment below comes up
// as a server instead of re-running the tests.
func MaybeServerChild() {
	if os.Getenv(envKillChild) == "" {
		return
	}
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "chaos server child: %v\n", err)
		os.Exit(3)
	}
	seed, err := strconv.ParseInt(os.Getenv(envKillSeed), 10, 64)
	if err != nil {
		die(fmt.Errorf("bad %s: %v", envKillSeed, err))
	}
	plan := NewPlan(seed)
	cfg := server.Config{
		Addr:          "127.0.0.1:0",
		Bundle:        16,
		FlushInterval: time.Millisecond,
		QueueDepth:    256,
		DB:            killBaseDB().BuildDB(),
		Core: core.Options{
			Workers: plan.Workers, Protocol: plan.Protocol, Seed: seed,
		},
		Durability: &server.DurabilityOptions{
			Dir:             os.Getenv(envKillDataDir),
			GroupWindow:     time.Millisecond,
			SegmentBytes:    plan.KillSegmentBytes,
			CheckpointBytes: plan.KillCheckpointBytes,
			// Real fsync: the whole point is racing SIGKILL against
			// actual durability barriers.
		},
	}
	if shards, _ := strconv.Atoi(os.Getenv(envKillShards)); shards > 1 {
		// Shard-crash scenario: the same durable server, but multi-shard.
		// Each shard starts from its own full base replica; the kill now
		// additionally races 2PC prepares, coordinator decisions and
		// participant installs.
		cfg.DB = nil
		cfg.Shards = shards
		cfg.ShardDB = func(int) *storage.DB { return killBaseDB().BuildDB() }
		cfg.Durability.SegmentBytes = plan.ShardSegBytes
		cfg.Durability.CheckpointBytes = plan.ShardCkptBytes
	}
	if addr := os.Getenv(envReplicaAddr); addr != "" {
		// Replica-failover scenario: the child is a replicating primary.
		// Sync mode, so the SIGKILL races ack-after-replication — every
		// acknowledged commit must already be on the backup's disk or in
		// its receive path when the process dies.
		epoch, err := replica.ReadEpoch(cfg.Durability.Dir)
		if err != nil {
			die(err)
		}
		ship, err := replica.NewShipper(replica.ShipperConfig{
			Addr: addr, Epoch: epoch, Sync: true,
		})
		if err != nil {
			die(err)
		}
		cfg.Durability.Replication = ship
	}
	if arb := os.Getenv(envArbiterAddr); arb != "" {
		// Auto-failover scenario: the child is lease-gated. A reserved
		// listen address (the promoted incarnation) is also the announce;
		// otherwise announce a stable per-node identity — it is never a
		// redirect target while this node leads, and it is what the
		// arbiter reports as held-by when fencing a split-brain peer.
		if la := os.Getenv(envListenAddr); la != "" {
			cfg.Addr = la
		}
		announce := cfg.Addr
		if announce == "127.0.0.1:0" {
			announce = "node:" + cfg.Durability.Dir
		}
		epoch, err := replica.ReadEpoch(cfg.Durability.Dir)
		if err != nil {
			die(err)
		}
		lease, err := arbiter.NewLeaseClient(arbiter.LeaseConfig{
			Addr: arb, Group: autoFailGroup, Epoch: epoch, Announce: announce,
		})
		if err != nil {
			die(err)
		}
		// Hold the lease before the logs open: the boot record's flush
		// runs through the lease gate, so a fenced child dies here with
		// a fencing error from server.New below.
		lease.WaitHeld(10 * time.Second)
		cfg.Lease = lease
	}
	srv, err := server.New(cfg)
	if err != nil {
		die(err)
	}
	if err := srv.Start(); err != nil {
		die(err)
	}
	// Publish the address atomically: the parent polls for the file and
	// must never read a half-written one.
	if err := storage.WriteFileAtomic(os.Getenv(envKillAddrFile), []byte(srv.Addr()), false); err != nil {
		die(err)
	}
	// Serve until the parent's SIGTERM (phase 2 ends gracefully; phase
	// 1 ends with the SIGKILL this scenario exists for).
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM)
	<-ch
	if err := srv.Shutdown(context.Background()); err != nil {
		die(err)
	}
	os.Exit(0)
}

// spawnServerChild starts one server incarnation over dataDir and
// waits for it to publish its address — which a durable server only
// does after recovery completed, so a successful spawn is itself
// evidence that recovery runs before the listener accepts.
func spawnServerChild(seed int64, dataDir, addrFile string, shards int, extraEnv ...string) (*exec.Cmd, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		envKillChild+"=1",
		envKillDataDir+"="+dataDir,
		envKillAddrFile+"="+addrFile,
		envKillSeed+"="+strconv.FormatInt(seed, 10),
		envKillShards+"="+strconv.Itoa(shards))
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && len(b) > 0 {
			return cmd, string(b), nil
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, "", fmt.Errorf("server child never published %s", addrFile)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runKillRestart drives the kill-and-restart scenario for one seed.
func runKillRestart(seed int64) Report {
	plan := NewPlan(seed)
	var v violations
	fail := func() Report { return report("kill-restart", seed, plan.killSummary(), v) }

	root := os.Getenv(envKillDataRoot)
	if root == "" {
		root = os.TempDir()
	}
	dataDir, err := os.MkdirTemp(root, fmt.Sprintf("tskd-kill-%d-", seed))
	if err != nil {
		v.addf("mkdir data dir: %v", err)
		return fail()
	}
	// The directory is evidence on failure (CI uploads it) and garbage
	// on success.
	defer func() {
		if len(v) == 0 {
			os.RemoveAll(dataDir)
		} else {
			fmt.Fprintf(os.Stderr, "chaos: kill-restart seed %d failed, data dir kept at %s\n", seed, dataDir)
		}
	}()

	// Phase 1: load the first incarnation and SIGKILL it once enough
	// commits were acknowledged. Submissions whose response never
	// arrived are in doubt — exactly what phase 2 resolves.
	cmd1, addr, err := spawnServerChild(seed, dataDir, filepath.Join(dataDir, "addr-1"), 0)
	if err != nil {
		v.addf("phase 1 spawn: %v", err)
		return fail()
	}
	total := plan.KillClients * plan.KillSubs
	const (
		outUnknown = iota // no commit ack: in doubt, resubmit in phase 2
		outAcked          // commit acknowledged: must survive the kill
	)
	outcome := make([]int32, total) // index c*KillSubs+i; owner-written, read after Wait
	var ackCount atomic.Int64
	var killOnce sync.Once
	kill := func() { killOnce.Do(func() { cmd1.Process.Kill() }) }
	errs := make(chan string, plan.KillClients)
	var wg sync.WaitGroup
	for c := 0; c < plan.KillClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := client.Dial(addr)
			if err != nil {
				errs <- fmt.Sprintf("phase 1 client %d dial: %v", c, err)
				return
			}
			defer conn.Close()
			for i := 0; i < plan.KillSubs; i++ {
				req, err := client.NewRequest(0, plan.serverTxn(c, i, liveMarker(c, i)))
				if err != nil {
					errs <- fmt.Sprintf("phase 1 client %d req: %v", c, err)
					return
				}
				req.IdemKey = killKey(seed, c, i)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				resp, err := conn.Submit(ctx, req)
				cancel()
				// Errors are the kill landing mid-flight; rejections and
				// cancellations never executed. All stay in doubt.
				if err == nil && resp.Status == client.StatusCommit {
					outcome[c*plan.KillSubs+i] = outAcked
					if ackCount.Add(1) >= int64(plan.KillAfterAcks) {
						kill()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	kill() // backpressure kept acks under the threshold: kill at end of load
	cmd1.Wait()
	for msg := range errs {
		v.addf("%s", msg)
	}
	if len(v) > 0 {
		return fail()
	}

	// Phase 2: restart over the same directory; recovery must complete
	// before the address is published. Resubmit every in-doubt
	// submission under its original key (committed-but-unacked ones are
	// answered as duplicates, never-executed ones run now), and
	// redeliver a seed-chosen sample of the acknowledged keys, which
	// the recovered dedup window must answer without re-executing.
	cmd2, addr2, err := spawnServerChild(seed, dataDir, filepath.Join(dataDir, "addr-2"), 0)
	if err != nil {
		v.addf("phase 2 spawn: %v", err)
		return fail()
	}
	rc := client.DialReliable(addr2, client.RetryPolicy{Seed: seed ^ 0x6B696C6C})
	for c := 0; c < plan.KillClients; c++ {
		for i := 0; i < plan.KillSubs; i++ {
			idx := c*plan.KillSubs + i
			redeliver := outcome[idx] == outAcked && plan.redeliverAcked(c, i)
			if outcome[idx] == outAcked && !redeliver {
				continue
			}
			req, err := client.NewRequest(0, plan.serverTxn(c, i, liveMarker(c, i)))
			if err != nil {
				v.addf("phase 2 req (%d,%d): %v", c, i, err)
				continue
			}
			req.IdemKey = killKey(seed, c, i)
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

	// Verdict: recover the directory read-only and check what the two
	// incarnations together were required to make durable.
	db, info, keys, err := server.Recover(dataDir, killBaseDB().BuildDB())
	if err != nil {
		v.addf("recover: %v", err)
		return fail()
	}
	keySet := make(map[uint64]bool, len(keys))
	for _, k := range keys {
		keySet[k] = true
	}
	tbl := db.Table(workload.YCSBTable)
	submitted := make(map[uint64]bool, total)
	for c := 0; c < plan.KillClients; c++ {
		for i := 0; i < plan.KillSubs; i++ {
			marker := liveMarker(c, i)
			submitted[marker] = true
			if outcome[c*plan.KillSubs+i] != outAcked {
				continue // already reported as a phase-2 violation
			}
			row := tbl.Get(marker)
			if row == nil {
				v.addf("lost acked commit: marker (%d,%d) missing after recovery", c, i)
				continue
			}
			if n := storage.VerNumber(row.Ver.Load()); n != 1 {
				v.addf("marker (%d,%d) at version %d, want 1 (double apply)", c, i, n)
			}
			if !keySet[killKey(seed, c, i)] {
				v.addf("committed key (%d,%d) missing from recovered dedup window", c, i)
			}
		}
	}
	// No phantom markers: every marker row in the store was submitted.
	tbl.Scan(liveMarkerBase, ^uint64(0), func(r *storage.Row) bool {
		if !submitted[r.Key.Row()] {
			v.addf("phantom marker %d installed by no submission", r.Key.Row())
		}
		return true
	})
	// Recovery is idempotent: a second pass over the (unchanged)
	// directory lands on the same state.
	if _, info2, keys2, err := server.Recover(dataDir, killBaseDB().BuildDB()); err != nil {
		v.addf("second recover: %v", err)
	} else if info2 != info || len(keys2) != len(keys) {
		v.addf("recovery not idempotent: %+v/%d keys then %+v/%d keys",
			info, len(keys), info2, len(keys2))
	}
	// The surviving WAL tail must be free of duplicate version installs
	// (each version of each row installed by exactly one record).
	var events []history.Event
	if _, _, err := wal.ReplayDir(dataDir, func(lsn uint64, rec wal.Record) error {
		e := history.Event{TxnID: int(lsn)}
		for _, w := range rec.Writes {
			e.Writes = append(e.Writes, history.Obs{Key: txn.Key(w.Key), Ver: w.Ver})
		}
		events = append(events, e)
		return nil
	}); err != nil {
		v.addf("wal replay: %v", err)
	} else if err := history.CheckEvents(events); err != nil {
		v.addf("wal tail: %v", err)
	}
	return fail()
}
