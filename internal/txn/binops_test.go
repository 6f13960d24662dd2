package txn

import (
	"reflect"
	"testing"
)

// TestBinaryOpsRoundTrip: encode → decode reproduces the op list
// exactly, for every encodable kind and across the key range.
func TestBinaryOpsRoundTrip(t *testing.T) {
	cases := [][]Op{
		nil,
		{{Kind: OpRead, Key: MakeKey(0, 1)}},
		{
			{Kind: OpRead, Key: MakeKey(1, 5)},
			{Kind: OpWrite, Key: MakeKey(0, 0)},
			{Kind: OpInsert, Key: MakeKey(65535, 1<<48-1)},
			{Kind: OpUpdate, Key: MakeKey(7, 123456789)},
		},
	}
	for _, ops := range cases {
		b, err := AppendOpsBinary(nil, ops)
		if err != nil {
			t.Fatalf("encode %v: %v", ops, err)
		}
		if len(b) != len(ops)*OpWireBytes {
			t.Fatalf("encoded %d ops into %d bytes, want %d", len(ops), len(b), len(ops)*OpWireBytes)
		}
		var tx Transaction
		if err := ParseBinaryInto(&tx, 3, b); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if tx.ID != 3 {
			t.Fatalf("ID = %d, want 3", tx.ID)
		}
		if len(ops) == 0 {
			if len(tx.Ops) != 0 {
				t.Fatalf("decoded %v from empty blob", tx.Ops)
			}
			continue
		}
		want := make([]Op, len(ops))
		for i, op := range ops {
			want[i] = Op{Kind: op.Kind, Key: op.Key}
		}
		if !reflect.DeepEqual([]Op(tx.Ops), want) {
			t.Fatalf("round trip changed ops: %v -> %v", want, tx.Ops)
		}
	}
}

// TestBinaryOpsMatchesNotation: for transactions built from the text
// notation, the binary encoding decodes to the same operation list the
// text parser produces — the semantic-equivalence property the wire
// protocol's fuzz parity extends.
func TestBinaryOpsMatchesNotation(t *testing.T) {
	for _, s := range []string{
		"",
		"R[x1]W[x2]",
		"U[3:17]I[2:5]R[65535:281474976710655]",
		"W[0:0]W[0:0]",
	} {
		viaText := MustParse(0, s)
		b, err := AppendOpsBinary(nil, viaText.Ops)
		if err != nil {
			t.Fatalf("%q: encode: %v", s, err)
		}
		var viaBin Transaction
		if err := ParseBinaryInto(&viaBin, 0, b); err != nil {
			t.Fatalf("%q: decode: %v", s, err)
		}
		if !opsEqual(viaText.Ops, viaBin.Ops) {
			t.Fatalf("%q: text %v != binary %v", s, viaText.Ops, viaBin.Ops)
		}
	}
}

func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBinaryOpsRejects: malformed blobs are rejected and leave the
// transaction in the reset state, matching ParseInto's error contract.
func TestBinaryOpsRejects(t *testing.T) {
	good, err := AppendOpsBinary(nil, []Op{{Kind: OpRead, Key: 1}, {Kind: OpWrite, Key: 2}})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		good[:5],                               // truncated record
		append([]byte{9}, good[:8]...),         // unknown kind byte
		{byte(OpScan), 0, 0, 0, 0, 0, 0, 0, 0}, // scan has no wire form
	}
	for _, b := range bad {
		tx := Transaction{Ops: []Op{{Kind: OpRead, Key: 42}}}
		if err := ParseBinaryInto(&tx, 0, b); err == nil {
			t.Fatalf("blob %v accepted", b)
		}
		if len(tx.Ops) != 0 {
			t.Fatalf("blob %v left ops %v after error", b, tx.Ops)
		}
	}
	// Scans are rejected on encode too.
	if _, err := AppendOpsBinary(nil, []Op{{Kind: OpScan, Key: 1, Arg: 5}}); err == nil {
		t.Fatal("scan encoded without error")
	}
}

// TestBinaryOpsReuse: decoding into a transaction with capacity does
// not allocate (the pooled-pending property the server's zero-alloc
// decode path relies on).
func TestBinaryOpsReuse(t *testing.T) {
	ops := []Op{
		{Kind: OpRead, Key: MakeKey(0, 17)},
		{Kind: OpUpdate, Key: MakeKey(0, 4242)},
		{Kind: OpWrite, Key: MakeKey(1, 99)},
	}
	blob, err := AppendOpsBinary(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	var tx Transaction
	if err := ParseBinaryInto(&tx, 0, blob); err != nil {
		t.Fatal(err) // first decode may allocate the ops array
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := ParseBinaryInto(&tx, 0, blob); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("ParseBinaryInto with warm capacity allocs/op = %v, budget 0", n)
	}
}
