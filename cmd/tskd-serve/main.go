// Command tskd-serve runs the TSKD serving layer: a TCP transaction
// service that bundles open-system arrivals and schedules each bundle
// with TSgen + TsDEFER over the chosen partitioner, streaming
// per-transaction outcomes back to clients (wire protocols:
// internal/client — length-prefixed binary frames with pipelined
// clients, NDJSON as a per-connection negotiated fallback; see
// DESIGN.md §14).
//
// Usage:
//
//	tskd-serve -schema ycsb -records 100000 -part strife -cc SILO
//	tskd-serve -listen :7070 -http :7071 -bundle 512 -flush-interval 10ms
//	tskd-serve -data-dir /var/lib/tskd -checkpoint-bytes 67108864
//	tskd-serve -shards 4 -data-dir /var/lib/tskd
//
// With -shards N > 1 the key space is hash-partitioned over N
// independent engine instances, each with its own store, WAL
// directory, and checkpoint/dedup sidecars. Requests touching one
// shard flow through that shard's bundler; cross-shard requests
// commit via coordinator-driven two-phase commit (presumed abort).
// Startup recovery replays every shard to a consistent cut, resolving
// in-doubt prepares against the coordinator log, before the listener
// accepts traffic. /metrics gains per-shard and 2PC counters.
//
// With -data-dir the server is durable: a bundle's commits are
// acknowledged only after one WAL flush fsynced them all, checkpoints
// truncate sealed segments in the background, and startup recovers the
// directory (latest valid checkpoint + WAL tail replay) before the
// listener accepts a single connection — kill -9 and restart never
// loses an acknowledged commit. Without it the server is memory-only.
//
// Replication pairs two durable processes:
//
//	tskd-serve -replica-listen :7072 -data-dir /var/lib/tskd-b   # backup
//	tskd-serve -data-dir /var/lib/tskd -replica-of backup:7072 -replica-sync
//	tskd-serve -data-dir /var/lib/tskd-b -promote                # failover
//
// A primary (-replica-of) ships every fsynced WAL flush to the backup;
// with -replica-sync a commit is acknowledged only after the backup's
// fsync. A backup (-replica-listen) runs the receiver only — no
// transaction listener — and mirrors the primary's directory layout,
// never truncating. To fail over, stop the backup receiver and restart
// it as a server over the same directory with -promote: the promotion
// bumps the fencing epoch, so the old primary (should it come back) is
// refused by every future backup and fails its flushes with a fencing
// error instead of acknowledging commits on a dead timeline.
//
// Automatic failover replaces the operator-driven -promote with a
// lease arbiter (internal/arbiter):
//
//	tskd-serve -arbiter-listen :7073 -data-dir /var/lib/tskd-arb  # arbiter
//	tskd-serve -data-dir /var/lib/tskd -replica-of backup:7072 -replica-sync \
//	    -arbiter arb:7073 -announce primary:7070                 # primary
//	tskd-serve -data-dir /var/lib/tskd-b -replica-listen :7072 \
//	    -arbiter arb:7073 -announce backup:7070                  # backup
//
// The primary registers with the arbiter and gates every dispatch and
// WAL flush on its time-bounded lease; if renewals stop (crash,
// partition), the primary self-fences first, then the arbiter durably
// bumps the epoch and grants it to the most-caught-up backup. The
// backup self-promotes on the grant — bumps its directory's fencing
// epoch and falls through to normal serving — and fenced peers answer
// clients with a not_primary redirect naming the new leader.
//
// /healthz and /metrics are served on -http. SIGINT/SIGTERM drains
// gracefully: admission stops, in-flight bundles flush, then the
// process exits. A second signal — or -drain-timeout expiring — hard-
// cancels the in-flight bundle.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tskd/internal/arbiter"
	"tskd/internal/cc"
	"tskd/internal/core"
	"tskd/internal/engine"
	"tskd/internal/partition"
	"tskd/internal/replica"
	"tskd/internal/server"
	"tskd/internal/storage"
	"tskd/internal/workload"
)

func main() {
	var (
		listen    = flag.String("listen", ":7070", "transaction listener address")
		httpAddr  = flag.String("http", ":7071", "health/metrics address ('' disables)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on -http")
		schema    = flag.String("schema", "ycsb", "database schema to load: ycsb or tpcc")
		records   = flag.Int("records", 100_000, "YCSB table size")
		whn       = flag.Int("whn", 40, "TPC-C warehouses")
		part      = flag.String("part", "strife", "bundle partitioner: strife, schism, horticulture, none")
		ccName    = flag.String("cc", "OCC", fmt.Sprintf("CC protocol, one of %v", append(cc.Names(), "NONE")))
		workers   = flag.Int("workers", 0, "execution threads (0 = GOMAXPROCS)")
		bundle    = flag.Int("bundle", 512, "max transactions per bundle")
		flushIv   = flag.Duration("flush-interval", 10*time.Millisecond, "max wait before a non-empty bundle flushes")
		queue     = flag.Int("queue", 0, "admission queue depth (0 = 4x bundle)")
		opUS      = flag.Int("optime-us", 0, "simulated per-op work in microseconds")
		lookups   = flag.Int("lookups", 2, "TsDEFER #lookups (0 disables deferment)")
		deferP    = flag.Float64("deferp", 0.6, "TsDEFER defer probability")
		seed      = flag.Int64("seed", 1, "random seed")
		shards    = flag.Int("shards", 1, "hash-partitioned shards; >1 routes by key ownership, cross-shard txns commit via 2PC")
		drainTime = flag.Duration("drain-timeout", 30*time.Second, "max graceful drain time before hard cancel")

		deadlineDefault = flag.Duration("deadline-default", 0, "deadline stamped on requests that carry none (0 = none)")
		shedTarget      = flag.Duration("shed-target", 0, "acceptable bundle queue sojourn before shedding arms (0 = 2x flush interval)")
		shedWindow      = flag.Duration("shed-window", 0, "standing-queue window before shedding engages (0 = default 100ms)")
		noShed          = flag.Bool("no-shed", false, "disable adaptive load shedding and brownout mode")
		breakerLatency  = flag.Duration("breaker-latency", 0, "WAL group-flush latency that trips the circuit breaker (0 = default 50ms)")
		breakerCooldown = flag.Duration("breaker-cooldown", 0, "how long the tripped breaker stays open before probing (0 = default 250ms)")
		noBreaker       = flag.Bool("no-breaker", false, "disable the WAL-stall circuit breaker")

		dataDir   = flag.String("data-dir", "", "durable data directory ('' = memory-only, no WAL)")
		walWindow = flag.Duration("wal-window", 2*time.Millisecond, "WAL group-commit window for 2PC prepare/decision records (bundle commits flush once per bundle)")
		segBytes  = flag.Int64("segment-bytes", 0, "WAL segment rotation size (0 = default)")
		ckptBytes = flag.Int64("checkpoint-bytes", 0, "checkpoint once this many WAL bytes accumulate (0 = default)")
		dedupWin  = flag.Int("dedup-window", 0, "committed idempotency keys remembered (0 = default)")
		noSync    = flag.Bool("no-sync", false, "skip fsync (testing only: an OS crash may lose acked commits)")

		replicaOf     = flag.String("replica-of", "", "backup replication address to ship WAL flushes to (requires -data-dir)")
		replicaListen = flag.String("replica-listen", "", "run as a backup: receive WAL shipments on this address (requires -data-dir; no transaction listener)")
		replicaSync   = flag.Bool("replica-sync", false, "with -replica-of: ack commits only after the backup's fsync")
		promote       = flag.Bool("promote", false, "bump the data directory's fencing epoch before serving (failover of a shipped backup dir)")

		arbListen = flag.String("arbiter-listen", "", "run the lease arbiter on this address instead of serving (requires -data-dir for its decision log)")
		arbAddr   = flag.String("arbiter", "", "arbiter address: a primary registers and lease-gates serving; a backup (-replica-listen) reports lag and self-promotes on the arbiter's grant")
		arbGroup  = flag.String("arbiter-group", "default", "shard-group name registered with the arbiter")
		announce  = flag.String("announce", "", "address clients dial for this node, handed to peers through the arbiter (default: -listen)")
		leaseTTL  = flag.Duration("lease-ttl", time.Second, "with -arbiter-listen: lease TTL handed to primaries")
	)
	flag.Parse()

	if *arbListen != "" {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "tskd-serve: -arbiter-listen requires -data-dir (arbiter decision log)")
			os.Exit(2)
		}
		if *arbAddr != "" || *replicaOf != "" || *replicaListen != "" || *promote {
			fmt.Fprintln(os.Stderr, "tskd-serve: -arbiter-listen is a standalone role")
			os.Exit(2)
		}
		runArbiter(*dataDir, *arbListen, *httpAddr, *leaseTTL)
		return
	}

	if (*replicaOf != "" || *replicaListen != "" || *promote) && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "tskd-serve: -replica-of/-replica-listen/-promote require -data-dir")
		os.Exit(2)
	}
	if *replicaOf != "" && *replicaListen != "" {
		fmt.Fprintln(os.Stderr, "tskd-serve: -replica-of and -replica-listen are mutually exclusive")
		os.Exit(2)
	}
	if *promote {
		epoch, err := replica.Promote(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tskd-serve: promote:", err)
			os.Exit(1)
		}
		fmt.Printf("tskd-serve: promoted %s to epoch %d\n", *dataDir, epoch)
	}
	ann := *announce
	if ann == "" {
		ann = *listen
	}
	if *replicaListen != "" {
		if !runBackup(*dataDir, *replicaListen, *httpAddr, *noSync, *arbAddr, *arbGroup, ann) {
			return
		}
		// Promoted by the arbiter: the directory's fencing epoch is
		// bumped; fall through and serve over it as the new primary.
	}

	if _, err := buildPartitioner(*part, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve:", err)
		os.Exit(2)
	}
	var db *storage.DB
	if *shards <= 1 {
		var err error
		db, err = buildDB(*schema, *records, *whn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tskd-serve:", err)
			os.Exit(2)
		}
	} else if _, err := buildDB(*schema, 1, 1); err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve:", err)
		os.Exit(2)
	}
	p, _ := buildPartitioner(*part, *seed)

	cfg := server.Config{
		Addr:          *listen,
		HTTPAddr:      *httpAddr,
		EnablePprof:   *pprofOn,
		Bundle:        *bundle,
		FlushInterval: *flushIv,
		QueueDepth:    *queue,
		DB:            db,
		Partitioner:   p,
		Core: core.Options{
			Workers:  *workers,
			Protocol: *ccName,
			OpTime:   time.Duration(*opUS) * time.Microsecond,
			Defer:    &engine.DeferConfig{Lookups: *lookups, DeferP: *deferP, Horizon: 1, Alpha: 1, MaxDefers: 8, Exact: true},
			Seed:     *seed,
		},
		Overload: server.OverloadOptions{
			DefaultDeadline: *deadlineDefault,
			ShedTarget:      *shedTarget,
			ShedWindow:      *shedWindow,
			DisableShed:     *noShed,
			BreakerLatency:  *breakerLatency,
			BreakerCooldown: *breakerCooldown,
			DisableBreaker:  *noBreaker,
		},
	}
	if *shards > 1 {
		// Sharded mode: each shard owns its own full replica of the
		// schema (ownership is by key hash; a shard simply never touches
		// rows it does not own) and its own partitioner instance, seeded
		// per shard so bundle clustering stays independent.
		schemaName, n, w := *schema, *records, *whn
		partName, baseSeed := *part, *seed
		cfg.DB, cfg.Partitioner = nil, nil
		cfg.Shards = *shards
		cfg.ShardDB = func(int) *storage.DB {
			d, _ := buildDB(schemaName, n, w)
			return d
		}
		cfg.ShardPartitioner = func(i int) partition.Partitioner {
			sp, _ := buildPartitioner(partName, baseSeed+int64(i))
			return sp
		}
	}
	var ship *replica.Shipper
	if *dataDir != "" {
		cfg.Durability = &server.DurabilityOptions{
			Dir:             *dataDir,
			GroupWindow:     *walWindow,
			SegmentBytes:    *segBytes,
			CheckpointBytes: *ckptBytes,
			DedupWindow:     *dedupWin,
			NoSync:          *noSync,
		}
		if *replicaOf != "" {
			// The shipper dials before recovery runs: registration of the
			// directory streams (and their catch-up snapshots) happens
			// inside server.New, before any log opens for appending.
			epoch, err := replica.ReadEpoch(*dataDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tskd-serve:", err)
				os.Exit(1)
			}
			ship, err = replica.NewShipper(replica.ShipperConfig{
				Addr:  *replicaOf,
				Epoch: epoch,
				Sync:  *replicaSync,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "tskd-serve: replication:", err)
				os.Exit(1)
			}
			cfg.Durability.Replication = ship
			mode := "async"
			if *replicaSync {
				mode = "sync"
			}
			fmt.Printf("tskd-serve: replicating to %s (%s, epoch %d)\n", *replicaOf, mode, epoch)
		}
	}
	var lease *arbiter.LeaseClient
	if *arbAddr != "" {
		var epoch uint64
		if ship != nil {
			epoch = ship.Epoch()
		} else if *dataDir != "" {
			var err error
			if epoch, err = replica.ReadEpoch(*dataDir); err != nil {
				fmt.Fprintln(os.Stderr, "tskd-serve:", err)
				os.Exit(1)
			}
		}
		var err error
		lease, err = arbiter.NewLeaseClient(arbiter.LeaseConfig{
			Addr: *arbAddr, Group: *arbGroup, Epoch: epoch, Announce: ann,
			Logf: logfPrefix("tskd-serve: lease"),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tskd-serve:", err)
			os.Exit(2)
		}
		cfg.Lease = lease
		// Hold the lease before any log opens: a durable server's boot
		// record flush runs through the lease gate, so a node the
		// arbiter fences (stale epoch) fails server.New instead of
		// coming up on a dead timeline.
		if !lease.WaitHeld(10 * time.Second) {
			fmt.Fprintln(os.Stderr, "tskd-serve: warning: lease not held (fenced or arbiter unreachable); a durable server will refuse to boot")
		}
		fmt.Printf("tskd-serve: lease-gated by arbiter %s (group=%s epoch=%d announce=%s)\n",
			*arbAddr, *arbGroup, epoch, ann)
	}
	// New runs recovery (checkpoint restore + WAL tail replay) when
	// durable; Start only binds the listeners afterwards, so clients
	// never reach a server that has not finished recovering.
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve:", err)
		os.Exit(2)
	}
	if *dataDir != "" && *shards > 1 {
		r := s.ShardRecovery()
		var replayed, prepares, committed, aborted int
		for _, sh := range r.Shards {
			replayed += sh.Replayed
			prepares += sh.Prepares
			committed += sh.ResolvedCommitted
			aborted += sh.ResolvedAborted
		}
		fmt.Printf("tskd-serve: recovered %s — %d shards, %d records replayed, %d coordinator decisions, %d in-doubt prepares (%d committed, %d presumed aborted)\n",
			*dataDir, len(r.Shards), replayed, r.CoordDecisions, prepares, committed, aborted)
	} else if *dataDir != "" {
		r := s.Recovery()
		fmt.Printf("tskd-serve: recovered %s — checkpoint lsn=%d, %d records replayed, %d idempotency keys, %d segments, next lsn=%d\n",
			*dataDir, r.CheckpointLSN, r.Replayed, r.DedupRestored, r.Segments, r.NextLSN)
	}
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve:", err)
		os.Exit(1)
	}
	partName := "TSKD[0]"
	if p != nil {
		partName = p.Name()
	}
	fmt.Printf("tskd-serve: txns on %s, http on %s (schema=%s part=%s cc=%s bundle=%d flush=%v shards=%d)\n",
		s.Addr(), s.HTTPAddr(), *schema, partName, *ccName, *bundle, *flushIv, *shards)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("tskd-serve: draining (signal again to hard-stop)")

	ctx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	go func() {
		<-sig
		cancel()
	}()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve: hard stop:", err)
	}
	if ship != nil {
		// After Shutdown every log is closed; no flush can race the
		// teardown of the replication connection.
		ship.Close()
	}
	if lease != nil {
		lease.Close()
	}
	st := s.Stats()
	fmt.Printf("tskd-serve: done — %d bundles, %d committed, %d retries, %d rejected, %d shed, %d expired, %d canceled\n",
		st.Bundles, st.Committed, st.Retries, st.Rejected, st.Shed, st.Expired, st.Canceled)
}

// runBackup is -replica-listen mode: the replication receiver over the
// data directory, with /healthz and /metrics on the HTTP address, and
// no transaction listener — a backup serves no reads or writes until
// it is promoted. With an arbiter address it registers as a backup,
// streams lag reports, and self-promotes on the arbiter's grant:
// it stops the receiver, durably bumps the directory's fencing epoch,
// and returns true so main falls through to normal serving.
func runBackup(dataDir, listenAddr, httpAddr string, noSync bool, arbAddr, group, announce string) (promoted bool) {
	srv, err := replica.NewServer(replica.ServerConfig{Dir: dataDir, NoSync: noSync})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve: backup:", err)
		os.Exit(1)
	}
	if err := srv.Start(listenAddr); err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve: backup:", err)
		os.Exit(1)
	}
	var httpLn net.Listener
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, "ok\nrole=backup epoch=%d\n", srv.Epoch())
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				Role string `json:"role"`
				replica.ServerStats
			}{"backup", srv.Stats()})
		})
		if httpLn, err = net.Listen("tcp", httpAddr); err != nil {
			fmt.Fprintln(os.Stderr, "tskd-serve: backup:", err)
			os.Exit(1)
		}
		go http.Serve(httpLn, mux)
	}
	var agent *arbiter.BackupAgent
	granted := make(<-chan uint64) // never fires without an arbiter
	if arbAddr != "" {
		agent, err = arbiter.StartBackupAgent(arbiter.BackupConfig{
			Addr: arbAddr, Group: group, Announce: announce,
			Seq:  func() uint64 { return srv.Stats().LastSeq },
			Logf: logfPrefix("tskd-serve: backup"),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tskd-serve: backup:", err)
			os.Exit(2)
		}
		granted = agent.Granted()
	}
	fmt.Printf("tskd-serve: backup receiving on %s over %s (epoch %d), http on %s\n",
		srv.Addr(), dataDir, srv.Epoch(), httpAddr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		signal.Stop(sig)
		if agent != nil {
			agent.Close()
		}
		srv.Close()
		st := srv.Stats()
		fmt.Printf("tskd-serve: backup done — %d snapshots, %d appends, %d bytes, last seq %d\n",
			st.Snapshots, st.Appends, st.AppendedBytes, st.LastSeq)
		return false
	case epoch := <-granted:
		// Promotion: stop receiving first (no shipment from the deposed
		// primary lands after this), then bump the fencing epoch exactly
		// as an operator's -promote would. The epoch write is atomic and
		// fsynced, so a crash here leaves either the old epoch (the
		// arbiter re-grants to us on re-register) or the new one.
		signal.Stop(sig)
		agent.Close()
		srv.Close()
		if httpLn != nil {
			httpLn.Close() // free -http for the serving layer
		}
		if err := replica.WriteEpoch(dataDir, epoch); err != nil {
			fmt.Fprintln(os.Stderr, "tskd-serve: promote:", err)
			os.Exit(1)
		}
		fmt.Printf("tskd-serve: arbiter granted epoch %d — promoting %s and serving\n", epoch, dataDir)
		return true
	}
}

// runArbiter is -arbiter-listen mode: the standalone lease service.
func runArbiter(dataDir, listenAddr, httpAddr string, ttl time.Duration) {
	arb, err := arbiter.New(arbiter.Config{
		Dir:      dataDir,
		LeaseTTL: ttl,
		Logf:     logfPrefix("tskd-arbiter"),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve: arbiter:", err)
		os.Exit(1)
	}
	if err := arb.Start(listenAddr); err != nil {
		fmt.Fprintln(os.Stderr, "tskd-serve: arbiter:", err)
		os.Exit(1)
	}
	if httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, "ok\nrole=arbiter groups=%d\n", len(arb.Snapshot()))
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				Role   string                `json:"role"`
				Groups []arbiter.GroupStatus `json:"groups"`
			}{"arbiter", arb.Snapshot()})
		})
		go http.ListenAndServe(httpAddr, mux)
	}
	fmt.Printf("tskd-serve: arbiter on %s over %s (lease ttl %v), http on %s\n",
		arb.Addr(), dataDir, ttl, httpAddr)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	arb.Close()
	fmt.Println("tskd-serve: arbiter done")
}

// logfPrefix adapts fmt.Printf to the Logf hooks with a fixed prefix.
func logfPrefix(prefix string) func(string, ...any) {
	return func(format string, args ...any) {
		fmt.Printf(prefix+": "+format+"\n", args...)
	}
}

func buildDB(schema string, records, whn int) (*storage.DB, error) {
	switch strings.ToLower(schema) {
	case "ycsb":
		c := workload.DefaultYCSB()
		c.Records = records
		return c.BuildDB(), nil
	case "tpcc":
		c := workload.DefaultTPCC()
		c.Warehouses = whn
		return c.BuildDB(), nil
	default:
		return nil, fmt.Errorf("unknown schema %q (ycsb, tpcc)", schema)
	}
}

func buildPartitioner(name string, seed int64) (partition.Partitioner, error) {
	switch strings.ToLower(name) {
	case "strife":
		return partition.NewStrife(seed), nil
	case "schism":
		return partition.NewSchism(seed), nil
	case "horticulture":
		return partition.NewHorticulture(), nil
	case "none", "":
		return nil, nil // TSKD[0]: schedule from scratch
	default:
		return nil, fmt.Errorf("unknown partitioner %q (strife, schism, horticulture, none)", name)
	}
}
