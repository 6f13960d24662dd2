package client

import (
	"bytes"
	"reflect"
	"testing"

	"tskd/internal/txn"
)

// FuzzBinDecode feeds arbitrary bytes to the server's and the
// client's frame decoders — the bytes a broken or hostile peer can
// send. Neither may panic; a payload DecodeRequestFrame accepts must
// re-encode byte-identically through AppendRequestFrame (the layout
// has no slack a decoder could silently ignore); and a response-body
// walk over the same bytes must either consume bytes at every step or
// stop on an error.
func FuzzBinDecode(f *testing.F) {
	frame, err := AppendRequestFrame(nil, &Request{Seq: 7, Template: "ycsb",
		Params: []uint64{1, 2}, IdemKey: 9, DeadlineMS: 50, Priority: 1},
		[]txn.Op{{Kind: txn.OpRead, Key: txn.MakeKey(1, 5)}, {Kind: txn.OpUpdate, Key: txn.MakeKey(1, 7)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[4:])
	f.Add(AppendResponseBody(nil, &Response{Seq: 3, Status: StatusNotPrimary, Leader: "b:1", Error: "moved"}))
	f.Add(AppendResponseBody(nil, &Response{Seq: 4, Status: "inline"}))
	f.Add([]byte{BinFrameRequest})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Request
		var tx txn.Transaction
		if err := DecodeRequestFrame(data, &r, &tx, NewInterner(4)); err == nil {
			r.Params = tx.Params
			again, err := AppendRequestFrame(nil, &r, tx.Ops)
			if err != nil {
				t.Fatalf("accepted payload does not re-encode: %v", err)
			}
			if !bytes.Equal(again[4:], data) {
				t.Fatalf("re-encode differs:\n in  %x\n out %x", data, again[4:])
			}
		}
		var resp Response
		for b := data; len(b) > 0; {
			rest, err := DecodeResponseBody(b, &resp)
			if err != nil {
				break
			}
			if len(rest) >= len(b) {
				t.Fatalf("response body decode consumed nothing from %d bytes", len(b))
			}
			b = rest
		}
	})
}

// FuzzNotation checks that any ops string the parser accepts survives
// the Notation encoding round trip: Parse -> Notation -> Parse yields
// the same operation list (ignoring args/fields, which the wire does
// not carry and the parser never produces).
func FuzzNotation(f *testing.F) {
	seeds := []string{
		"R[x1]W[x2]",
		"U[3:17]I[2:5]",
		"R[65535:281474976710655]",
		"",
		"W[0:0]W[0:0]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tx, err := txn.Parse(0, s)
		if err != nil {
			return
		}
		ops, err := Notation(tx)
		if err != nil {
			t.Fatalf("parser output has no notation: %v", err)
		}
		back, err := txn.Parse(0, ops)
		if err != nil {
			t.Fatalf("notation %q does not re-parse: %v", ops, err)
		}
		if !reflect.DeepEqual(tx.Ops, back.Ops) {
			t.Fatalf("ops changed: %v -> %q -> %v", tx.Ops, ops, back.Ops)
		}
	})
}
