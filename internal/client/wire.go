// Package client is the wire protocol and client library of the TSKD
// serving layer (internal/server). A connection opens with a 5-byte
// preamble that the server echoes, then carries length-prefixed binary
// frames: one request frame per transaction from the client, and
// response frames from the server, each batching the outcomes of one
// bundle (binwire.go has the layouts). PipelinedConn is the client
// connection and ReliableConn the self-healing client over it.
//
// Request and Response are the Go form of a submission and its
// outcome. A request's operations are written in the paper's compact
// notation (internal/txn/parse.go), e.g. "R[1:42]U[1:99]"; the client
// parses them once and sends fixed-width op records.
//
// Responses stream back on the submitting connection as bundles
// complete; they are matched to requests by seq, which is
// per-connection and chosen by the client. Responses across seqs
// arrive in bundle-completion order, not submission order.
package client

import (
	"fmt"
	"strings"

	"tskd/internal/txn"
)

// Request is one transaction submission envelope.
type Request struct {
	// Seq correlates the response; unique per connection (the client
	// assigns it, the server echoes it).
	Seq uint64 `json:"seq"`
	// Template optionally names the stored procedure (feeds the
	// server's history-based cost estimator).
	Template string `json:"template,omitempty"`
	// Params are the template's instantiation parameters (estimator +
	// TsDEFER access-set prediction).
	Params []uint64 `json:"params,omitempty"`
	// Ops is the operation list in compact notation, e.g.
	// "R[x2]W[x2]R[x3]" or "U[1:42]I[2:7]".
	Ops string `json:"ops"`
	// IdemKey is an optional client-chosen idempotency key (nonzero to
	// enable). Resubmitting the same key after a timeout or crash is
	// safe: a server that already committed it replies commit with
	// Duplicate set instead of executing again (exactly-once effects).
	// Keys must be unique per logical transaction, e.g. drawn from a
	// per-client random sequence.
	IdemKey uint64 `json:"idem,omitempty"`
	// DeadlineMS is the end-to-end deadline in milliseconds, relative
	// to the server's admission instant (relative, so the protocol
	// needs no clock synchronization). Past the deadline the server
	// drops the transaction wherever it finds it — admission, bundle
	// formation, between execution attempts — and answers StatusExpired
	// instead of executing dead work. Zero means no deadline; negative
	// means already expired (used by clients that know they gave up).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Priority is the request's shedding class: 0 (default) is high
	// priority, any nonzero value is low priority, which the server's
	// overload controller sheds first.
	Priority uint8 `json:"pri,omitempty"`
}

// Response statuses.
const (
	// StatusCommit: the transaction executed and committed.
	StatusCommit = "commit"
	// StatusAbort: the transaction executed and rolled back for
	// application reasons (no retry).
	StatusAbort = "abort"
	// StatusRejected: admission backpressure — the queue was full (or
	// the server is draining); nothing executed. Retry after
	// RetryAfterMS.
	StatusRejected = "rejected"
	// StatusError: the request was malformed; nothing executed.
	StatusError = "error"
	// StatusCanceled: the transaction was admitted but the server shut
	// down hard (deadline/kill) before it could commit.
	StatusCanceled = "canceled"
	// StatusExpired: the request's DeadlineMS elapsed before the
	// transaction committed; it was dropped without (further) execution
	// and never committed. Terminal — retrying dead work only inflates
	// runtime conflicts for live transactions.
	StatusExpired = "expired"
	// StatusShed: the overload controller dropped the admission to
	// protect latency; nothing executed. Retry after RetryAfterMS.
	StatusShed = "shed"
	// StatusNotPrimary: the server is not (or no longer) the primary
	// for its shard-group — it lost or never held its arbiter lease —
	// and refused the submission without executing it. Leader, when
	// set, names the address the client should redirect to; reliable
	// clients resubmit there under the same idempotency key.
	StatusNotPrimary = "not_primary"
)

// Response is one per-transaction outcome envelope.
type Response struct {
	Seq    uint64 `json:"seq"`
	Status string `json:"status"`
	// Retries is the number of aborted attempts before commit.
	Retries int `json:"retries,omitempty"`
	// QueueUS is the admission-to-execution queue wait in microseconds
	// (time spent bundling + waiting for the bundle to start).
	QueueUS int64 `json:"queue_us,omitempty"`
	// ExecUS is the transaction's virtual on-core execution time in
	// microseconds, including retried work.
	ExecUS int64 `json:"exec_us,omitempty"`
	// Bundle is the server-side bundle sequence number the transaction
	// executed in.
	Bundle int `json:"bundle,omitempty"`
	// RetryAfterMS accompanies StatusRejected: the client should back
	// off at least this long (derived from the server's flush
	// interval).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Error describes a StatusError parse failure.
	Error string `json:"error,omitempty"`
	// Leader accompanies StatusNotPrimary: the address of the current
	// primary as far as the refusing server knows (empty when it does
	// not know — the client falls back to rotation).
	Leader string `json:"leader,omitempty"`
	// Duplicate marks a commit response answered from the server's
	// idempotency window rather than by executing: the transaction's
	// effects were already applied by an earlier submission of the same
	// IdemKey.
	Duplicate bool `json:"duplicate,omitempty"`
}

// Committed reports whether the response is a commit.
func (r Response) Committed() bool { return r.Status == StatusCommit }

// Rejected reports whether the response is an admission rejection.
func (r Response) Rejected() bool { return r.Status == StatusRejected }

// Notation renders t's operations in the compact wire notation
// accepted by txn.Parse, e.g. "R[1:5]U[1:7]". Scans have no notation
// (their access sets are unknown before execution) and op
// arguments/fields are not carried — the serving protocol transports
// access patterns, which is what scheduling, deferment and conflict
// checking consume.
func Notation(t *txn.Transaction) (string, error) {
	var b strings.Builder
	for _, op := range t.Ops {
		switch op.Kind {
		case txn.OpRead, txn.OpWrite, txn.OpInsert, txn.OpUpdate:
			fmt.Fprintf(&b, "%s[%d:%d]", op.Kind, op.Key.Table(), op.Key.Row())
		default:
			return "", fmt.Errorf("client: op kind %v has no wire notation", op.Kind)
		}
	}
	return b.String(), nil
}

// NewRequest builds a request from a transaction, encoding its ops.
func NewRequest(seq uint64, t *txn.Transaction) (Request, error) {
	ops, err := Notation(t)
	if err != nil {
		return Request{}, err
	}
	return Request{Seq: seq, Template: t.Template, Params: t.Params, Ops: ops}, nil
}
