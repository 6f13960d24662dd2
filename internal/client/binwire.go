// binwire.go: the versioned, length-prefixed binary wire protocol —
// the serving layer's only framing. The frame discipline follows
// internal/replica: every frame is
//
//	u32 payloadLen | payload
//
// little endian, the payload starting with a one-byte frame type and a
// hard size cap treated as stream corruption. A connection opens with
// the 5-byte preamble "TSKB" + version; the server echoes it back so
// the client knows the server speaks this version, and closes a
// connection that opens with anything else.
//
// Frame payloads:
//
//	BinFrameRequest:   seq u64 | idem u64 | deadline i64 | pri u8 |
//	                   tlen u16 | template | pcount u16 | params u64* |
//	                   ops (rest of payload, txn.OpWireBytes records)
//	BinFrameResponses: count u32 | count response bodies (below)
//
// A response body is self-delimiting:
//
//	seq u64 | code u8 | flags u8 | retries i32 | queue_us i64 |
//	exec_us i64 | bundle i32 | retry_after_ms i64 |
//	elen u16 | error | (code 0 only: slen u16 | status) |
//	(leader flag only: llen u16 | leader)
//
// where code maps the well-known status constants (commit, abort, …)
// and code 0 escapes to an inline status string, so any Response
// survives the round trip — the property FuzzWireParity checks.
// Responses ride in batch frames: the server coalesces one
// frame (one write) per bundle per connection, which with pipelined
// clients replaces a syscall per transaction with a syscall per
// bundle.
package client

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tskd/internal/txn"
)

// BinPreamble opens a connection: the magic "TSKB" plus a version
// byte. The server echoes it on acceptance.
const BinPreamble = "TSKB\x01"

// BinVersion is the protocol version carried in the preamble.
const BinVersion = 1

// Binary frame types (first payload byte).
const (
	// BinFrameRequest carries one transaction submission.
	BinFrameRequest = byte(1)
	// BinFrameResponses carries a batch of response bodies.
	BinFrameResponses = byte(2)
)

// MaxBinFrameBytes bounds a binary frame payload; larger lengths are
// treated as stream corruption.
const MaxBinFrameBytes = 4 << 20

var errBinShort = errors.New("client: short binary frame")

// Interner is a bounded string intern table: Intern returns a
// previously-seen string for equal bytes without allocating (the
// map lookup on a []byte key compiles allocation-free). Once full it
// stops remembering new strings but keeps answering hits, so a
// hostile client cycling through distinct templates cannot grow it
// without bound.
type Interner struct {
	m   map[string]string
	cap int
}

// NewInterner returns an interner remembering up to capacity distinct
// strings (<=0 picks a default of 1024).
func NewInterner(capacity int) *Interner {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Interner{cap: capacity}
}

// Intern returns a string equal to b, reusing a remembered one when
// these bytes have been seen before.
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if in.m == nil {
		in.m = make(map[string]string, 16)
	}
	if len(in.m) < in.cap {
		in.m[s] = s
	}
	return s
}

// AppendRequestFrame appends r's full binary frame (length prefix
// included) to dst and returns the extended slice. The transaction's
// operations are passed pre-parsed — the encoder is also the hot path
// of the pipelined client, which parses r.Ops once into a reused
// scratch slice rather than re-splitting the notation per attempt.
// Template length and params count are bounded by their u16 wire
// fields.
func AppendRequestFrame(dst []byte, r *Request, ops []txn.Op) ([]byte, error) {
	if len(r.Template) > 0xFFFF {
		return dst, fmt.Errorf("client: template of %d bytes exceeds wire limit", len(r.Template))
	}
	if len(r.Params) > 0xFFFF {
		return dst, fmt.Errorf("client: %d params exceed wire limit", len(r.Params))
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // backfilled below
	dst = append(dst, BinFrameRequest)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, r.IdemKey)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.DeadlineMS))
	dst = append(dst, r.Priority)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Template)))
	dst = append(dst, r.Template...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Params)))
	for _, p := range r.Params {
		dst = binary.LittleEndian.AppendUint64(dst, p)
	}
	var err error
	if dst, err = txn.AppendOpsBinary(dst, ops); err != nil {
		return dst[:lenAt], err
	}
	n := len(dst) - lenAt - 4
	if n > MaxBinFrameBytes {
		return dst[:lenAt], fmt.Errorf("client: request frame of %d bytes exceeds cap", n)
	}
	binary.LittleEndian.PutUint32(dst[lenAt:lenAt+4], uint32(n))
	return dst, nil
}

// DecodeRequestFrame parses one request frame payload (the bytes after
// the length prefix) into the envelope r and the transaction t — the
// server's zero-alloc decode: the envelope's scalar fields are fixed
// width, the template is interned through in (nil skips interning),
// params decode into t.Params' reused capacity, and the ops records
// decode straight into t.Ops with no string splitting. r.Ops is left
// empty (the binary path never materializes notation) and r.Params nil;
// the decoded values live on t. t is reset exactly as ParseInto resets
// it, and t.Template/t.IdemKey are filled from the envelope.
func DecodeRequestFrame(payload []byte, r *Request, t *txn.Transaction, in *Interner) error {
	*r = Request{}
	if len(payload) < 1 || payload[0] != BinFrameRequest {
		return fmt.Errorf("client: not a request frame")
	}
	b := payload[1:]
	if len(b) < 8+8+8+1+2 {
		return errBinShort
	}
	r.Seq = binary.LittleEndian.Uint64(b)
	r.IdemKey = binary.LittleEndian.Uint64(b[8:])
	r.DeadlineMS = int64(binary.LittleEndian.Uint64(b[16:]))
	r.Priority = b[24]
	tlen := int(binary.LittleEndian.Uint16(b[25:]))
	b = b[27:]
	if len(b) < tlen {
		return errBinShort
	}
	var template string
	if in != nil {
		template = in.Intern(b[:tlen])
	} else {
		template = string(b[:tlen])
	}
	b = b[tlen:]
	if len(b) < 2 {
		return errBinShort
	}
	pcount := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < 8*pcount {
		return errBinShort
	}
	params := t.Params[:0]
	for i := 0; i < pcount; i++ {
		params = append(params, binary.LittleEndian.Uint64(b[8*i:]))
	}
	b = b[8*pcount:]
	t.Params = params // keep the capacity reachable even if ops decode fails
	if err := txn.ParseBinaryInto(t, 0, b); err != nil {
		return err
	}
	r.Template = template
	t.Template = template
	t.Params = params
	t.IdemKey = r.IdemKey
	return nil
}

// Status codes for the binary response body. Code 0 escapes to an
// inline status string so unknown statuses survive the codec.
const (
	binStatusInline = byte(iota)
	binStatusCommit
	binStatusAbort
	binStatusRejected
	binStatusError
	binStatusCanceled
	binStatusExpired
	binStatusShed
	binStatusNotPrimary
)

func statusCode(s string) byte {
	switch s {
	case StatusCommit:
		return binStatusCommit
	case StatusAbort:
		return binStatusAbort
	case StatusRejected:
		return binStatusRejected
	case StatusError:
		return binStatusError
	case StatusCanceled:
		return binStatusCanceled
	case StatusExpired:
		return binStatusExpired
	case StatusShed:
		return binStatusShed
	case StatusNotPrimary:
		return binStatusNotPrimary
	}
	return binStatusInline
}

func statusFromCode(c byte) (string, bool) {
	switch c {
	case binStatusCommit:
		return StatusCommit, true
	case binStatusAbort:
		return StatusAbort, true
	case binStatusRejected:
		return StatusRejected, true
	case binStatusError:
		return StatusError, true
	case binStatusCanceled:
		return StatusCanceled, true
	case binStatusExpired:
		return StatusExpired, true
	case binStatusShed:
		return StatusShed, true
	case binStatusNotPrimary:
		return StatusNotPrimary, true
	}
	return "", false
}

// Response body flags.
const (
	binRespDuplicate = byte(1 << iota)
	// binRespHasLeader gates the trailing leader string (u16 length +
	// bytes, after the error and inline-status tails), so responses
	// without a redirect pay zero extra bytes.
	binRespHasLeader
)

// AppendResponseBody appends r's binary body (no frame header) to dst
// and returns the extended slice — the unit the server accumulates
// into a per-bundle BinFrameResponses frame. Retries and Bundle ride
// i32 on the wire; Error and an escaped Status ride u16 lengths.
// Out-of-range values cannot occur on the serve path (both are small
// counters) and are truncated to the wire width.
func AppendResponseBody(dst []byte, r *Response) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	code := statusCode(r.Status)
	dst = append(dst, code)
	var flags byte
	if r.Duplicate {
		flags |= binRespDuplicate
	}
	if r.Leader != "" {
		flags |= binRespHasLeader
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Retries)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.QueueUS))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ExecUS))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(r.Bundle)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.RetryAfterMS))
	e := r.Error
	if len(e) > 0xFFFF {
		e = e[:0xFFFF]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e)))
	dst = append(dst, e...)
	if code == binStatusInline {
		s := r.Status
		if len(s) > 0xFFFF {
			s = s[:0xFFFF]
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	if r.Leader != "" {
		l := r.Leader
		if len(l) > 0xFFFF {
			l = l[:0xFFFF]
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(l)))
		dst = append(dst, l...)
	}
	return dst
}

// binRespFixedBytes is the size of a response body before its
// variable-length tail.
const binRespFixedBytes = 8 + 1 + 1 + 4 + 8 + 8 + 4 + 8 + 2

// DecodeResponseBody parses one response body from the front of b,
// overwriting every field of r, and returns the remaining bytes — the
// client's batch-frame walk. Known statuses decode to the interned
// package constants (no allocation); commit responses carry no strings
// at all, so the steady-state decode is allocation-free.
func DecodeResponseBody(b []byte, r *Response) ([]byte, error) {
	*r = Response{}
	if len(b) < binRespFixedBytes {
		return b, errBinShort
	}
	r.Seq = binary.LittleEndian.Uint64(b)
	code := b[8]
	flags := b[9]
	r.Duplicate = flags&binRespDuplicate != 0
	r.Retries = int(int32(binary.LittleEndian.Uint32(b[10:])))
	r.QueueUS = int64(binary.LittleEndian.Uint64(b[14:]))
	r.ExecUS = int64(binary.LittleEndian.Uint64(b[22:]))
	r.Bundle = int(int32(binary.LittleEndian.Uint32(b[30:])))
	r.RetryAfterMS = int64(binary.LittleEndian.Uint64(b[34:]))
	elen := int(binary.LittleEndian.Uint16(b[42:]))
	b = b[binRespFixedBytes:]
	if len(b) < elen {
		return b, errBinShort
	}
	if elen > 0 {
		r.Error = string(b[:elen])
	}
	b = b[elen:]
	if s, ok := statusFromCode(code); ok {
		r.Status = s
	} else {
		if code != binStatusInline {
			return b, fmt.Errorf("client: unknown response status code %d", code)
		}
		if len(b) < 2 {
			return b, errBinShort
		}
		slen := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < slen {
			return b, errBinShort
		}
		r.Status = string(b[:slen])
		b = b[slen:]
	}
	if flags&binRespHasLeader != 0 {
		if len(b) < 2 {
			return b, errBinShort
		}
		llen := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if len(b) < llen {
			return b, errBinShort
		}
		r.Leader = string(b[:llen])
		b = b[llen:]
	}
	return b, nil
}

// AppendResponsesHeader appends the header of a BinFrameResponses
// frame holding count response bodies of bodiesLen bytes in total; the
// caller writes the bodies right after it. Keeping the header separate
// lets the server write a batch it already holds without copying it
// into a frame. The caller keeps bodiesLen under MaxBinFrameBytes
// minus the header's type and count bytes.
func AppendResponsesHeader(dst []byte, count uint32, bodiesLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+4+bodiesLen))
	dst = append(dst, BinFrameResponses)
	return binary.LittleEndian.AppendUint32(dst, count)
}
