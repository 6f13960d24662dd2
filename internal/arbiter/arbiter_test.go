package arbiter

import (
	"bufio"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tskd/internal/clock"
)

// testPeer is a raw arbiter connection for driving the protocol by
// hand in fake-clock tests.
type testPeer struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialPeer(t *testing.T, addr string) *testPeer {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial arbiter: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testPeer{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (p *testPeer) roundTrip(m Msg) Msg {
	p.t.Helper()
	if err := WriteMsg(p.conn, m); err != nil {
		p.t.Fatalf("write %s: %v", m.Type, err)
	}
	return p.read()
}

func (p *testPeer) read() Msg {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := ReadMsg(p.br)
	if err != nil {
		p.t.Fatalf("read reply: %v", err)
	}
	return reply
}

func startArbiter(t *testing.T, dir string, fc clock.Clock) *Arbiter {
	t.Helper()
	a, err := New(Config{
		Dir:        dir,
		LeaseTTL:   time.Second,
		ProbeEvery: 250 * time.Millisecond,
		FailQuorum: 2,
		Clock:      fc,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := a.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestLeaseLifecycle walks the whole failover protocol on a fake
// clock: register, renew, silence past the bound, grant to the
// most-caught-up backup, and fencing of the deposed primary.
func TestLeaseLifecycle(t *testing.T) {
	fc := clock.NewFake(time.Unix(1000, 0))
	a := startArbiter(t, t.TempDir(), fc)

	primary := dialPeer(t, a.Addr())
	lease := primary.roundTrip(Msg{Type: MsgRegister, Role: RolePrimary, Group: "g", Epoch: 0, Addr: "primary:1"})
	if lease.Type != MsgLease || lease.Epoch != 0 || lease.TTLMS != 1000 {
		t.Fatalf("primary register: got %+v", lease)
	}

	// A different node claiming the same epoch is split-brain: refused.
	usurper := dialPeer(t, a.Addr())
	if got := usurper.roundTrip(Msg{Type: MsgRegister, Role: RolePrimary, Group: "g", Epoch: 0, Addr: "usurper:1"}); got.Type != MsgFence {
		t.Fatalf("same-epoch second primary: got %+v, want fence", got)
	}

	// Two backups; "fast" has shipped further and must win the grant.
	slow := dialPeer(t, a.Addr())
	if got := slow.roundTrip(Msg{Type: MsgRegister, Role: RoleBackup, Group: "g", Addr: "slow:1", Seq: 3}); got.Type != MsgOK {
		t.Fatalf("slow backup register: got %+v", got)
	}
	fast := dialPeer(t, a.Addr())
	if got := fast.roundTrip(Msg{Type: MsgRegister, Role: RoleBackup, Group: "g", Addr: "fast:1", Seq: 9}); got.Type != MsgOK {
		t.Fatalf("fast backup register: got %+v", got)
	}

	// Renewing keeps the lease: advance close to the grant bound with
	// renews in between and verify no promotion happens.
	for i := 0; i < 3; i++ {
		fc.Advance(900 * time.Millisecond)
		if got := primary.roundTrip(Msg{Type: MsgRenew, Group: "g", Epoch: 0}); got.Type != MsgLease {
			t.Fatalf("renew %d: got %+v", i, got)
		}
		a.Tick()
	}
	if snap := a.Snapshot(); len(snap) != 1 || snap[0].Epoch != 0 || !snap[0].LeaseHeld {
		t.Fatalf("after renews: snapshot %+v", snap)
	}

	// Silence past LeaseTTL + FailQuorum*ProbeEvery triggers the grant.
	fc.Advance(1499 * time.Millisecond) // one ms short of the bound
	a.Tick()
	if snap := a.Snapshot(); snap[0].Epoch != 0 {
		t.Fatalf("granted before the bound: %+v", snap)
	}
	fc.Advance(time.Millisecond)
	a.Tick()
	grant := fast.read()
	if grant.Type != MsgGrant || grant.Epoch != 1 || grant.Leader != "fast:1" {
		t.Fatalf("grant: got %+v", grant)
	}
	if snap := a.Snapshot(); snap[0].Epoch != 1 || snap[0].Leader != "fast:1" || snap[0].GrantsTotal != 1 {
		t.Fatalf("after grant: snapshot %+v", snap)
	}

	// The deposed primary's renew is fenced and points at the new
	// leader; so is a fresh registration at the old epoch.
	if got := primary.roundTrip(Msg{Type: MsgRenew, Group: "g", Epoch: 0}); got.Type != MsgFence || got.Leader != "fast:1" {
		t.Fatalf("deposed renew: got %+v", got)
	}
	rejoin := dialPeer(t, a.Addr())
	if got := rejoin.roundTrip(Msg{Type: MsgRegister, Role: RolePrimary, Group: "g", Epoch: 0, Addr: "primary:1"}); got.Type != MsgFence || got.Epoch != 1 {
		t.Fatalf("deposed re-register: got %+v", got)
	}

	// The grantee claims its epoch as the new primary.
	newPrimary := dialPeer(t, a.Addr())
	if got := newPrimary.roundTrip(Msg{Type: MsgRegister, Role: RolePrimary, Group: "g", Epoch: 1, Addr: "fast:1"}); got.Type != MsgLease || got.Epoch != 1 {
		t.Fatalf("grantee register: got %+v", got)
	}
}

// TestGrantRedelivery covers the grantee losing its connection in the
// grant delivery window: re-registering as a backup under the leader
// address re-delivers the same (already-logged) grant.
func TestGrantRedelivery(t *testing.T) {
	fc := clock.NewFake(time.Unix(1000, 0))
	a := startArbiter(t, t.TempDir(), fc)

	primary := dialPeer(t, a.Addr())
	primary.roundTrip(Msg{Type: MsgRegister, Role: RolePrimary, Group: "g", Epoch: 0, Addr: "primary:1"})
	backup := dialPeer(t, a.Addr())
	backup.roundTrip(Msg{Type: MsgRegister, Role: RoleBackup, Group: "g", Addr: "backup:1", Seq: 5})

	fc.Advance(10 * time.Second)
	a.Tick()
	if snap := a.Snapshot(); snap[0].Epoch != 1 || snap[0].Leader != "backup:1" {
		t.Fatalf("after tick: snapshot %+v", snap)
	}
	// The grant frame dies unread with the backup's connection. (Closing
	// before the tick races the arbiter's reader, which drops a closed
	// backup from the group and leaves nobody to grant to.)
	backup.conn.Close()

	// The grantee reconnects knowing nothing; registering as a backup
	// hands it the pending grant instead of stranding the group.
	again := dialPeer(t, a.Addr())
	if got := again.roundTrip(Msg{Type: MsgRegister, Role: RoleBackup, Group: "g", Addr: "backup:1", Seq: 5}); got.Type != MsgGrant || got.Epoch != 1 {
		t.Fatalf("re-register grantee: got %+v, want re-grant", got)
	}
	if snap := a.Snapshot(); snap[0].GrantsTotal != 1 {
		t.Fatalf("re-delivery must not mint a new epoch: %+v", snap)
	}
}

// TestRestartReplay proves an arbiter restart cannot re-issue an epoch
// it already granted: the decision log is replayed before listening.
func TestRestartReplay(t *testing.T) {
	dir := t.TempDir()
	fc := clock.NewFake(time.Unix(1000, 0))
	a, err := New(Config{Dir: dir, LeaseTTL: time.Second, ProbeEvery: 250 * time.Millisecond, Clock: fc})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := a.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	primary := dialPeer(t, a.Addr())
	primary.roundTrip(Msg{Type: MsgRegister, Role: RolePrimary, Group: "g", Epoch: 0, Addr: "primary:1"})
	backup := dialPeer(t, a.Addr())
	backup.roundTrip(Msg{Type: MsgRegister, Role: RoleBackup, Group: "g", Addr: "backup:1", Seq: 1})
	fc.Advance(10 * time.Second)
	a.Tick()
	if g := backup.read(); g.Type != MsgGrant || g.Epoch != 1 {
		t.Fatalf("grant: %+v", g)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	b := startArbiter(t, dir, clock.NewFake(time.Unix(2000, 0)))
	if snap := b.Snapshot(); len(snap) != 1 || snap[0].Epoch != 1 || snap[0].Leader != "backup:1" {
		t.Fatalf("replayed snapshot: %+v", snap)
	}
	old := dialPeer(t, b.Addr())
	if got := old.roundTrip(Msg{Type: MsgRegister, Role: RolePrimary, Group: "g", Epoch: 0, Addr: "primary:1"}); got.Type != MsgFence || got.Epoch != 1 {
		t.Fatalf("old primary after restart: got %+v, want fence at epoch 1", got)
	}
	grantee := dialPeer(t, b.Addr())
	if got := grantee.roundTrip(Msg{Type: MsgRegister, Role: RolePrimary, Group: "g", Epoch: 1, Addr: "backup:1"}); got.Type != MsgLease {
		t.Fatalf("grantee after restart: got %+v", got)
	}
}

// TestDecisionLogTornTail: a torn final line (crash mid-append) is
// dropped; corruption before the tail is fatal.
func TestDecisionLogTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LogFile)
	dl, recs, err := openDecisionLog(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	for i := uint64(1); i <= 3; i++ {
		if err := dl.append(logRecord{Kind: "grant", Group: "g", Epoch: i, Grantee: "b:1"}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	dl.close()

	// Torn tail: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"grant","group":"g","ep`)
	f.Close()
	dl2, recs, err := openDecisionLog(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if len(recs) != 3 || recs[2].Epoch != 3 {
		t.Fatalf("torn-tail replay: %+v", recs)
	}
	// Appending after recovery lands where the torn bytes were.
	if err := dl2.append(logRecord{Kind: "grant", Group: "g", Epoch: 4, Grantee: "b:1"}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	dl2.close()
	_, recs, err = openDecisionLog(path)
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	if len(recs) != 4 || recs[3].Epoch != 4 {
		t.Fatalf("post-recovery replay: %+v", recs)
	}

	// Corruption in the middle is a hard error.
	data, _ := os.ReadFile(path)
	data[0] = 'x' // first line is no longer JSON; later lines still exist
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openDecisionLog(path); err == nil {
		t.Fatal("mid-log corruption must fail open")
	}
}

// TestLeaseClientAndBackupAgent runs the real client loops against a
// real-clock arbiter with short timings: the primary holds the lease,
// stops renewing, and the backup agent is promoted; a resurrected
// old-epoch lease client is fenced and learns the new leader.
func TestLeaseClientAndBackupAgent(t *testing.T) {
	a, err := New(Config{
		Dir:        t.TempDir(),
		LeaseTTL:   200 * time.Millisecond,
		ProbeEvery: 50 * time.Millisecond,
		FailQuorum: 2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := a.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer a.Close()

	lc, err := NewLeaseClient(LeaseConfig{Addr: a.Addr(), Group: "g", Epoch: 0, Announce: "old:1"})
	if err != nil {
		t.Fatalf("NewLeaseClient: %v", err)
	}
	if !lc.WaitHeld(5 * time.Second) {
		t.Fatal("lease never held")
	}
	if err := lc.Check(); err != nil {
		t.Fatalf("Check while held: %v", err)
	}
	if got := lc.Leader(); got != "old:1" {
		t.Fatalf("Leader while held: %q", got)
	}

	agent, err := StartBackupAgent(BackupConfig{
		Addr: a.Addr(), Group: "g", Announce: "new:1",
		Seq: func() uint64 { return 7 },
	})
	if err != nil {
		t.Fatalf("StartBackupAgent: %v", err)
	}
	defer agent.Close()

	// Hold the lease a few renew cycles, then stop renewing.
	time.Sleep(500 * time.Millisecond)
	if err := lc.Check(); err != nil {
		t.Fatalf("Check after renews: %v", err)
	}
	lc.Close()

	var epoch uint64
	select {
	case epoch = <-agent.Granted():
	case <-time.After(10 * time.Second):
		t.Fatal("backup never granted")
	}
	if epoch != 1 {
		t.Fatalf("granted epoch %d, want 1", epoch)
	}

	// The resurrected old primary is fenced, stays fenced, and learns
	// where to redirect clients.
	lc2, err := NewLeaseClient(LeaseConfig{Addr: a.Addr(), Group: "g", Epoch: 0, Announce: "old:1"})
	if err != nil {
		t.Fatalf("NewLeaseClient(old): %v", err)
	}
	defer lc2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := lc2.Check(); errors.Is(err, ErrLeaseFenced) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old primary never fenced: %v", lc2.Check())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := lc2.Leader(); got != "new:1" {
		t.Fatalf("fenced Leader: %q, want new:1", got)
	}
	if st := lc2.Stats(); !st.Fenced || st.Held {
		t.Fatalf("fenced stats: %+v", st)
	}
}

// TestLeaseClientSelfFences: when the arbiter disappears entirely the
// holder's lease lapses on its own clock and Check fails closed.
func TestLeaseClientSelfFences(t *testing.T) {
	a, err := New(Config{Dir: t.TempDir(), LeaseTTL: 150 * time.Millisecond, ProbeEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := a.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	lc, err := NewLeaseClient(LeaseConfig{Addr: a.Addr(), Group: "g", Epoch: 0, Announce: "p:1"})
	if err != nil {
		t.Fatalf("NewLeaseClient: %v", err)
	}
	defer lc.Close()
	if !lc.WaitHeld(5 * time.Second) {
		t.Fatal("lease never held")
	}
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := lc.Check(); errors.Is(err, ErrNoLease) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never lapsed: %v", lc.Check())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
