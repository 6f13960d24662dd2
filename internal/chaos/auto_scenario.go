package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tskd/internal/arbiter"
	"tskd/internal/client"
	"tskd/internal/replica"
	"tskd/internal/shard"
	"tskd/internal/txn"
	"tskd/internal/workload"
)

// auto_scenario.go: the automatic-failover scenario. Replica-failover
// with the operator removed: a lease-gated, replicating multi-shard
// primary (a server child holding a lease from an in-parent arbiter)
// is SIGKILLed mid-load; nobody runs -promote. The arbiter observes
// the missed renewals, waits out the lease TTL plus its fail quorum,
// durably bumps the epoch in its decision log, and grants it to the
// most-caught-up backup — a decoy backup stuck at sequence zero
// competes and must lose. The backup self-promotes (epoch bump, then
// a fresh incarnation serves on the address the grant named) and the
// verdict audits the whole story:
//
//   - liveness with a bound: the grant lands within the arbiter's
//     grant bound of the kill (plus scheduling grace) — the scenario
//     fails if failover needs an operator or takes too long;
//   - no acknowledged commit lost and exactly-once, exactly as in
//     replica-failover, on the promoted timeline;
//   - epoch uniqueness: the decision log decides each epoch at most
//     once and holds exactly one grant, to the caught-up backup;
//   - fencing, every path: a deposed-epoch shipper is refused at the
//     handshake, a deposed-epoch lease register is fenced and told
//     the new leader, and a resurrected old-primary incarnation dies
//     at boot (its boot-record flush runs through the lease gate)
//     instead of ever acknowledging work again;
//   - discovery: reliable clients configured with the dead primary's
//     address converge on the promoted node and resubmissions
//     deduplicate under their original idempotency keys.

// autoFailGroup is the shard-group name every node in this scenario
// registers under.
const autoFailGroup = "autofail"

// autoKey is the stable idempotency key of submission (c, i) — its
// own site, disjoint from the other scenarios' key spaces.
func autoKey(seed int64, c, i int) uint64 {
	return site(seed, "autofail/kill", int64(c), int64(i)) | 1
}

// autoTxn builds auto-failover submission (c, i): the shard-crash
// shape (two contended updates + unique marker insert) over AutoShards
// shards, with the cross-shard decision from this scenario's own site.
func (p Plan) autoTxn(c, i int, marker uint64) *txn.Transaction {
	r := shard.Router{Shards: p.AutoShards}
	mk := txn.MakeKey(workload.YCSBTable, marker)
	home := r.Home(mk)
	cross := p.autoCross(c, i)
	t := txn.New(0)
	for j := 0; j < 2; j++ {
		row := site(p.Seed, "autofail/key", int64(c), int64(i), int64(j)) % shardCrashRows
		want := home
		if cross && j == 1 {
			want = (home + 1) % p.AutoShards
		}
		t.U(probeHomeRow(r, row, want), 1)
	}
	return t.I(mk)
}

// runAutoFailover drives the automatic-failover scenario for one seed.
func runAutoFailover(seed int64) Report {
	plan := NewPlan(seed)
	var v violations
	fail := func() Report { return report("auto-failover", seed, plan.autoSummary(), v) }

	root := os.Getenv(envKillDataRoot)
	if root == "" {
		root = os.TempDir()
	}
	dataDir, err := os.MkdirTemp(root, fmt.Sprintf("tskd-autofail-%d-", seed))
	if err != nil {
		v.addf("mkdir data dir: %v", err)
		return fail()
	}
	defer func() {
		if len(v) == 0 {
			os.RemoveAll(dataDir)
		} else {
			fmt.Fprintf(os.Stderr, "chaos: auto-failover seed %d failed, data dir kept at %s\n", seed, dataDir)
		}
	}()
	primaryDir := filepath.Join(dataDir, "primary")
	backupDir := filepath.Join(dataDir, "backup")
	arbDir := filepath.Join(dataDir, "arbiter")
	for _, d := range []string{primaryDir, backupDir, arbDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			v.addf("mkdir %s: %v", d, err)
			return fail()
		}
	}

	// The arbiter's event stream goes to a file kept with the failure
	// artifacts (its durable decision log lives in arbDir).
	logF, err := os.Create(filepath.Join(dataDir, "arbiter-events.log"))
	if err != nil {
		v.addf("arbiter event log: %v", err)
		return fail()
	}
	defer logF.Close()
	var logMu sync.Mutex
	logf := func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(logF, format+"\n", args...)
	}

	// The arbiter runs in-parent on real time; every grant it issues is
	// observed with a wall-clock stamp for the promotion-bound check.
	type grantObs struct {
		at      time.Time
		epoch   uint64
		grantee string
	}
	var grantMu sync.Mutex
	var grantLog []grantObs
	grantCh := make(chan grantObs, 4)
	arbCfg := arbiter.Config{
		Dir:        arbDir,
		LeaseTTL:   plan.AutoLeaseTTL,
		ProbeEvery: plan.AutoLeaseTTL / 4,
		FailQuorum: 2,
		Logf:       logf,
		OnGrant: func(group string, epoch uint64, grantee string) {
			g := grantObs{at: time.Now(), epoch: epoch, grantee: grantee}
			grantMu.Lock()
			grantLog = append(grantLog, g)
			grantMu.Unlock()
			select {
			case grantCh <- g:
			default:
			}
		},
	}
	arb, err := arbiter.New(arbCfg)
	if err != nil {
		v.addf("arbiter: %v", err)
		return fail()
	}
	if err := arb.Start("127.0.0.1:0"); err != nil {
		v.addf("arbiter start: %v", err)
		return fail()
	}
	defer arb.Close()

	// Reserve the promoted incarnation's address up front: the backup
	// announces it, the grant names it, fenced peers redirect to it,
	// and the phase-2 child binds it — exactly how a real deployment's
	// -announce works.
	resLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		v.addf("reserve address: %v", err)
		return fail()
	}
	newAddr := resLn.Addr().String()

	// The backup receiver runs in-parent with real fsync; its arbiter
	// agent streams the genuinely applied ship sequence. The decoy
	// backup reports sequence zero forever under a lexically smaller
	// address — if the arbiter chose by address (or arbitrarily), the
	// decoy would win the grant.
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
	agent, err := arbiter.StartBackupAgent(arbiter.BackupConfig{
		Addr: arb.Addr(), Group: autoFailGroup, Announce: newAddr,
		Seq:         func() uint64 { return recv.Stats().LastSeq },
		ReportEvery: plan.AutoLeaseTTL / 8,
		Logf:        logf,
	})
	if err != nil {
		v.addf("backup agent: %v", err)
		return fail()
	}
	defer agent.Close()
	decoy, err := arbiter.StartBackupAgent(arbiter.BackupConfig{
		Addr: arb.Addr(), Group: autoFailGroup, Announce: "0-decoy",
		Seq:         func() uint64 { return 0 },
		ReportEvery: plan.AutoLeaseTTL / 8,
		Logf:        logf,
	})
	if err != nil {
		v.addf("decoy agent: %v", err)
		return fail()
	}
	defer decoy.Close()

	// Phase 1: the lease-gated replicating primary under load, SIGKILLed
	// at the seeded acknowledged-commit count — racing 2PC rounds, group
	// flushes, the replication stream, and its own lease renewals.
	cmd1, addr, err := spawnServerChild(seed, primaryDir, filepath.Join(dataDir, "addr-1"),
		plan.AutoShards,
		envReplicaAddr+"="+recv.Addr(),
		envArbiterAddr+"="+arb.Addr())
	if err != nil {
		v.addf("phase 1 spawn: %v", err)
		return fail()
	}
	total := plan.AutoClients * plan.AutoSubs
	const (
		outUnknown = iota
		outAcked
	)
	outcome := make([]int32, total)
	var ackCount atomic.Int64
	var killedAt atomic.Int64 // UnixNano of the SIGKILL
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			killedAt.Store(time.Now().UnixNano())
			cmd1.Process.Kill()
		})
	}
	errs := make(chan string, plan.AutoClients)
	var wg sync.WaitGroup
	for c := 0; c < plan.AutoClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := client.Dial(addr)
			if err != nil {
				errs <- fmt.Sprintf("phase 1 client %d dial: %v", c, err)
				return
			}
			defer conn.Close()
			for i := 0; i < plan.AutoSubs; i++ {
				req, err := client.NewRequest(0, plan.autoTxn(c, i, liveMarker(c, i)))
				if err != nil {
					errs <- fmt.Sprintf("phase 1 client %d req: %v", c, err)
					return
				}
				req.IdemKey = autoKey(seed, c, i)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				resp, err := conn.Submit(ctx, req)
				cancel()
				if err == nil && resp.Status == client.StatusCommit {
					outcome[c*plan.AutoSubs+i] = outAcked
					if ackCount.Add(1) >= int64(plan.AutoAfterAcks) {
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

	// The arbiter must now promote on its own. The dead primary's last
	// renewal is no later than the kill, so the grant must land within
	// the grant bound of it; the assertion allows scheduling grace on
	// top, but an operator-shaped wait (tens of seconds) is a failure.
	bound := arbCfg.GrantBound()
	killTime := time.Unix(0, killedAt.Load())
	var g grantObs
	select {
	case g = <-grantCh:
	case <-time.After(bound + 15*time.Second):
		v.addf("arbiter never promoted (grant bound %v)", bound)
		return fail()
	}
	if lat := g.at.Sub(killTime); lat > bound+2*time.Second {
		v.addf("promotion took %v after the kill, want <= grant bound %v (+2s grace)", lat, bound)
	}
	if g.epoch != 1 {
		v.addf("granted epoch %d, want 1", g.epoch)
	}
	if g.grantee != newAddr {
		v.addf("grant went to %q, want the caught-up backup %q (the decoy must lose)", g.grantee, newAddr)
	}
	// The real agent itself observed the grant (this is what triggers
	// self-promotion in a real backup process).
	select {
	case e := <-agent.Granted():
		if e != g.epoch {
			v.addf("backup agent saw grant epoch %d, arbiter issued %d", e, g.epoch)
		}
	case <-time.After(5 * time.Second):
		v.addf("backup agent never received the grant frame")
	}
	// Stop both agents before anything slow: with zero registered
	// backups the arbiter cannot issue a second grant while the
	// promoted incarnation boots.
	agent.Close()
	decoy.Close()

	// Drain the replication stream and self-promote the backup: bump
	// the directory's fencing epoch to the granted one — what the
	// backup process does on the grant, with no operator involved.
	drainDeadline := time.Now().Add(30 * time.Second)
	for recv.Stats().Conns > 0 {
		if time.Now().After(drainDeadline) {
			v.addf("replication stream never drained after the kill")
			return fail()
		}
		time.Sleep(5 * time.Millisecond)
	}
	recv.Close()
	if err := replica.WriteEpoch(backupDir, g.epoch); err != nil {
		v.addf("write granted epoch: %v", err)
		return fail()
	}

	// Fencing at the replication boundary: a shipper presenting the
	// deposed epoch is refused at the handshake; the granted epoch is
	// accepted.
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
		v.addf("deposed primary (epoch 0) not fenced at the ship handshake: %v", err)
	}
	if s, err := replica.NewShipper(replica.ShipperConfig{Addr: fence.Addr(), Epoch: g.epoch}); err != nil {
		v.addf("promoted epoch %d refused at the ship handshake: %v", g.epoch, err)
	} else {
		s.Close()
	}
	fence.Close()

	// Fencing at the lease boundary: a lease client presenting the
	// deposed epoch is fenced and told who leads now.
	stale, err := arbiter.NewLeaseClient(arbiter.LeaseConfig{
		Addr: arb.Addr(), Group: autoFailGroup, Epoch: 0, Announce: "node:" + primaryDir,
	})
	if err != nil {
		v.addf("stale lease client: %v", err)
		return fail()
	}
	fenceDeadline := time.Now().Add(5 * time.Second)
	for !errors.Is(stale.Check(), arbiter.ErrLeaseFenced) {
		if time.Now().After(fenceDeadline) {
			v.addf("deposed-epoch lease register was never fenced")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := stale.Stats(); st.Fenced && st.Leader != newAddr {
		v.addf("fenced lease client told leader %q, want %q", st.Leader, newAddr)
	}
	stale.Close()

	// Phase 2: the promoted incarnation binds the announced address and
	// acquires the lease at the granted epoch before serving.
	resLn.Close()
	cmd2, addr2, err := spawnServerChild(seed, backupDir, filepath.Join(dataDir, "addr-2"),
		plan.AutoShards,
		envArbiterAddr+"="+arb.Addr(),
		envListenAddr+"="+newAddr)
	if err != nil {
		v.addf("phase 2 spawn: %v", err)
		return fail()
	}
	if addr2 != newAddr {
		v.addf("phase 2 bound %q, want the announced %q", addr2, newAddr)
	}

	// The resurrected old primary must refuse to come back: its lease
	// register is fenced (stale epoch), so its boot-record flush fails
	// through the lease gate and the incarnation dies without ever
	// publishing an address or acknowledging work.
	exe, err := os.Executable()
	if err != nil {
		v.addf("executable: %v", err)
		return fail()
	}
	resurrectAddrFile := filepath.Join(dataDir, "addr-resurrect")
	res := exec.Command(exe)
	res.Env = append(os.Environ(),
		envKillChild+"=1",
		envKillDataDir+"="+primaryDir,
		envKillAddrFile+"="+resurrectAddrFile,
		envKillSeed+"="+strconv.FormatInt(seed, 10),
		envKillShards+"="+strconv.Itoa(plan.AutoShards),
		envArbiterAddr+"="+arb.Addr())
	var resurrectErr bytes.Buffer
	res.Stderr = &resurrectErr
	if err := res.Run(); err == nil {
		v.addf("resurrected deposed primary came up and served")
	}
	if _, err := os.Stat(resurrectAddrFile); err == nil {
		v.addf("resurrected deposed primary published an address (stderr: %s)", resurrectErr.String())
	}

	// Phase 2 resubmission through reliable clients that still list the
	// dead primary first: they must converge on the promoted node, and
	// redelivered acked keys must deduplicate, not re-execute.
	rc := client.DialReliableMulti([]string{addr, newAddr}, client.RetryPolicy{Seed: seed ^ 0x6175746F})
	for c := 0; c < plan.AutoClients; c++ {
		for i := 0; i < plan.AutoSubs; i++ {
			idx := c*plan.AutoSubs + i
			redeliver := outcome[idx] == outAcked && plan.redeliverAutoAcked(c, i)
			if outcome[idx] == outAcked && !redeliver {
				continue
			}
			req, err := client.NewRequest(0, plan.autoTxn(c, i, liveMarker(c, i)))
			if err != nil {
				v.addf("phase 2 req (%d,%d): %v", c, i, err)
				continue
			}
			req.IdemKey = autoKey(seed, c, i)
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
	if got := rc.Addr(); got != newAddr {
		v.addf("reliable client converged on %q, want the promoted %q", got, newAddr)
	}
	rc.Close()
	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()

	// Verdict, part 1: the promoted timeline carries every acked commit
	// exactly once — same audit as replica-failover; the primary's disk
	// is never consulted.
	if !(shardedAudit{
		dir: backupDir, shards: plan.AutoShards, clients: plan.AutoClients, subs: plan.AutoSubs,
		acked: func(c, i int) bool { return outcome[c*plan.AutoSubs+i] == outAcked },
		txn:   plan.autoTxn,
		key:   func(c, i int) uint64 { return autoKey(seed, c, i) },
		where: "promoted ",
	}).run(&v) {
		return fail()
	}
	auditPromotedEpoch(&v, backupDir)

	// Verdict, part 2: epoch uniqueness. The arbiter's durable decision
	// log decides each epoch at most once and holds exactly one grant,
	// naming the caught-up backup — so no two nodes can ever have held
	// the same epoch.
	recs, err := arbiter.ReadLog(arbDir)
	if err != nil {
		v.addf("arbiter decision log: %v", err)
	} else {
		perEpoch := make(map[uint64]int)
		grants := 0
		for _, rec := range recs {
			perEpoch[rec.Epoch]++
			if rec.Kind == "grant" {
				grants++
				if rec.Epoch != 1 || rec.Grantee != newAddr {
					v.addf("logged grant epoch=%d grantee=%q, want epoch=1 grantee=%q", rec.Epoch, rec.Grantee, newAddr)
				}
			}
		}
		for e, n := range perEpoch {
			if n > 1 {
				v.addf("epoch %d decided %d times in the arbiter log (epoch uniqueness broken)", e, n)
			}
		}
		if grants != 1 {
			v.addf("%d grants in the arbiter log, want exactly 1", grants)
		}
	}
	grantMu.Lock()
	observed := len(grantLog)
	grantMu.Unlock()
	if observed != 1 {
		v.addf("arbiter issued %d grants, want exactly 1", observed)
	}
	return fail()
}
