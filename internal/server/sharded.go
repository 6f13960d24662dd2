package server

import (
	"time"

	"tskd/internal/client"
	"tskd/internal/shard"
	"tskd/internal/txn"
)

// sharded.go: the serving layer's sharded mode. With Config.Shards > 1
// the single pipeline/WAL/dedup stack is replaced by a shard.Runtime —
// N independent bundling loops over hash-partitioned slices of the key
// space, cross-shard transactions committing via 2PC — and the serve
// path routes each request by key ownership. The wire protocol, the
// deadline stamping, and the /metrics endpoint are unchanged; /metrics
// additionally reports per-shard and 2PC counters.

// openSharded builds the multi-shard runtime (running recovery first
// when durable) and wires it into the server.
func (s *Server) openSharded() error {
	var d *shard.Durability
	if o := s.cfg.Durability; o != nil {
		d = &shard.Durability{
			Dir:             o.Dir,
			GroupWindow:     o.GroupWindow,
			SegmentBytes:    o.SegmentBytes,
			CheckpointBytes: o.CheckpointBytes,
			DedupWindow:     o.DedupWindow,
			NoSync:          o.NoSync,
			Replication:     o.Replication,
		}
		if s.cfg.Lease != nil {
			d.FlushGate = s.cfg.Lease.Check
		}
	}
	rt, err := shard.Open(shard.Config{
		Shards:        s.cfg.Shards,
		DB:            s.cfg.ShardDB,
		Partitioner:   s.cfg.ShardPartitioner,
		Bundle:        s.cfg.Bundle,
		FlushInterval: s.cfg.FlushInterval,
		QueueDepth:    s.cfg.QueueDepth,
		Core:          s.cfg.Core,
		Durability:    d,
	})
	if err != nil {
		return err
	}
	s.rt = rt
	s.replicaEpoch = rt.ReplicaEpoch()
	return nil
}

// Runtime returns the sharded runtime (nil unless Config.Shards > 1).
func (s *Server) Runtime() *shard.Runtime { return s.rt }

// ShardRecovery reports what sharded startup recovery found (zero
// value when not sharded, not durable, or the directory was fresh).
func (s *Server) ShardRecovery() shard.RecoveryInfo {
	if s.rt == nil {
		return shard.RecoveryInfo{}
	}
	return s.rt.Recovery()
}

// serveSharded stamps the deadline and hands a decoded
// transaction to the runtime, which answers asynchronously through the
// connection writer. Transactions are not pooled here — the runtime
// owns each one until it has been answered.
func (s *Server) serveSharded(req *client.Request, t *txn.Transaction, cw *connWriter) {
	if !s.checkLease(req.Seq, cw) {
		return
	}
	now := time.Now()
	switch {
	case req.DeadlineMS < 0:
		// Expired before it ever reached us; terminal, no retry hint.
		s.count(func(st *Stats) { st.Expired++ })
		cw.send(client.Response{Seq: req.Seq, Status: client.StatusExpired})
		return
	case req.DeadlineMS > 0:
		t.Deadline = now.Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	case s.cfg.Overload.DefaultDeadline > 0:
		t.Deadline = now.Add(s.cfg.Overload.DefaultDeadline)
	}
	s.rt.SubmitTo(t, &shardReply{s: s, seq: req.Seq, cw: cw})
}

// shardReply answers one sharded transaction on its connection. Reply
// only buffers the response: a shard unit flushes once per bundle, as
// the unsharded bundler does, and every other answer is flushed at
// once (see shard.Replier).
type shardReply struct {
	s   *Server
	seq uint64
	cw  *connWriter
}

func (r *shardReply) Reply(resp client.Response) {
	resp.Seq = r.seq
	// Count before sending, as the unsharded server does: a client
	// that has its response must find it in Stats. Whether it was
	// delivered is only known afterwards.
	r.s.count(func(st *Stats) { st.ResultsStreamed++ })
	if !r.cw.sendBuffered(&resp) {
		r.s.count(func(st *Stats) { st.Forfeited++ })
	}
}

func (r *shardReply) Flush() { r.cw.flush() }

// mergeShardStats rolls the runtime's counters up into the flat Stats
// so dashboards keyed on the single-shard fields keep working, and
// attaches the per-shard and 2PC breakdowns. Called under s.mu.
func (s *Server) mergeShardStats(st *Stats) {
	rst := s.rt.Stats()
	st.Shards = rst.Shards
	st.TwoPC = &rst.TwoPC
	queue, queueCap := 0, 0
	for _, sh := range rst.Shards {
		st.Admitted += sh.Admitted
		st.Rejected += sh.Rejected
		st.Bundles += int(sh.Bundles)
		st.Committed += sh.Committed
		st.Retries += sh.Retries
		st.Defers += sh.Defers
		st.UserAborts += sh.UserAborts
		st.Canceled += sh.Canceled
		st.Contended += sh.Contended
		st.Expired += sh.Expired
		st.WALRecords += sh.WALRecords
		st.WALFlushes += sh.WALFlushes
		st.WALSyncs += sh.WALSyncs
		st.WALBytes += sh.WALBytes
		st.Checkpoints += sh.Checkpoints
		st.CheckpointErrors += sh.CheckpointErrors
		st.TruncatedSegments += sh.TruncatedSegments
		st.DedupHits += sh.DedupHits
		st.DedupInflight += sh.DedupInflight
		st.DedupSize += sh.DedupSize
		queue += sh.QueueDepth
		queueCap += s.cfg.QueueDepth
	}
	st.QueueDepth = queue
	st.QueueCap = queueCap
	// A 2PC commit is one committed transaction from the client's view;
	// its per-shard sub-commits are not in the shard Committed counters
	// (participant installs bypass the engines).
	st.Committed += rst.TwoPC.Committed
	st.UserAborts += rst.TwoPC.UserAborts
	st.Rejected += rst.TwoPC.Rejected
	st.DedupHits += rst.TwoPC.DedupHits
	st.DedupInflight += rst.TwoPC.DedupInflight
}
