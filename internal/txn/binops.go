package txn

// binops.go: the binary wire form of an operation list, beside the
// text parser. The compact notation ("R[x17]U[1:42]") is readable but
// costs string splitting and integer parsing per op on the serve path;
// the binary form is a flat array of fixed-width records that decodes
// straight into a pooled Transaction's Ops slice with no intermediate
// strings:
//
//	kind u8 | key u64 (little endian)       — 9 bytes per op
//
// The blob carries no count: its length must be a multiple of the
// record size, and the container (the wire frame) delimits it. Exactly
// the op kinds with text notation are encodable — R, W, I, U — so the
// two encodings describe the same transaction class and fuzz parity
// between them is meaningful. Scans have no wire form in either
// encoding (their access sets are unknown before execution).

import (
	"encoding/binary"
	"fmt"
)

// OpWireBytes is the fixed wire size of one binary-encoded operation.
const OpWireBytes = 9

// AppendOpsBinary appends the binary encoding of ops to dst and
// returns the extended slice. Op kinds without a wire form (scans)
// are rejected, mirroring the notation encoder.
func AppendOpsBinary(dst []byte, ops []Op) ([]byte, error) {
	for _, op := range ops {
		switch op.Kind {
		case OpRead, OpWrite, OpInsert, OpUpdate:
		default:
			return dst, fmt.Errorf("txn: op kind %v has no binary wire encoding", op.Kind)
		}
		dst = append(dst, byte(op.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(op.Key))
	}
	return dst, nil
}

// ParseBinaryInto decodes a binary op blob into t, resetting every
// field first — the binary analogue of ParseInto, with the same reuse
// discipline: the Ops slice and cached access-set backing arrays keep
// their capacity, so a pooled Transaction decodes without allocating.
// On error t is left in the reset (empty) state.
func ParseBinaryInto(t *Transaction, id int, b []byte) error {
	ops := t.Ops[:0]
	n := len(b) / OpWireBytes
	if cap(ops) < n {
		ops = make([]Op, 0, n)
	}
	*t = Transaction{ID: id, Ops: ops, readSet: t.readSet[:0], writeSet: t.writeSet[:0], accessSet: t.accessSet[:0]}
	if len(b)%OpWireBytes != 0 {
		return fmt.Errorf("txn: binary ops blob of %d bytes is not a whole number of %d-byte records", len(b), OpWireBytes)
	}
	for i := 0; i < n; i++ {
		rec := b[i*OpWireBytes:]
		kind := OpKind(rec[0])
		switch kind {
		case OpRead, OpWrite, OpInsert, OpUpdate:
		default:
			t.Ops = t.Ops[:0]
			return fmt.Errorf("txn: binary op %d has kind byte %d (no wire encoding)", i, rec[0])
		}
		t.Ops = append(t.Ops, Op{Kind: kind, Key: Key(binary.LittleEndian.Uint64(rec[1:9]))})
	}
	return nil
}
