package client

import (
	"encoding/binary"
	"reflect"
	"testing"

	"tskd/internal/txn"
)

// Benchmark fixtures sized like real serve-path traffic: an 8-op YCSB
// transaction with params, and the response that acknowledges it.
var (
	benchReq = Request{
		Seq:      123456,
		Template: "ycsb",
		Params:   []uint64{17, 4242, 99, 100000, 7, 8, 9, 10},
		Ops:      "R[x17]U[x4242]R[x99]W[x100000]R[x7]R[x8]U[x9]W[x10]",
		IdemKey:  987654321,
	}
	benchResp = Response{
		Seq:     123456,
		Status:  StatusCommit,
		Retries: 2,
		QueueUS: 1500,
		ExecUS:  870,
		Bundle:  42,
	}
)

// binBenchOps is benchReq's op list pre-parsed, as the pipelined
// client's encode path holds it.
var binBenchOps = func() []txn.Op {
	ops, err := txn.ParseOps(nil, benchReq.Ops)
	if err != nil {
		panic(err)
	}
	return ops
}()

func mustFrame(t testing.TB, r *Request, ops []txn.Op) []byte {
	t.Helper()
	frame, err := AppendRequestFrame(nil, r, ops)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBinRequestRoundTrip: a request frame decodes back to the same
// envelope and transaction the encoder was given.
func TestBinRequestRoundTrip(t *testing.T) {
	frame := mustFrame(t, &benchReq, binBenchOps)
	if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("frame declares %d payload bytes, has %d", n, len(frame)-4)
	}
	var r Request
	var tx txn.Transaction
	if err := DecodeRequestFrame(frame[4:], &r, &tx, nil); err != nil {
		t.Fatal(err)
	}
	if r.Seq != benchReq.Seq || r.IdemKey != benchReq.IdemKey ||
		r.DeadlineMS != benchReq.DeadlineMS || r.Priority != benchReq.Priority ||
		r.Template != benchReq.Template {
		t.Fatalf("envelope changed: %+v", r)
	}
	if !reflect.DeepEqual(tx.Params, benchReq.Params) {
		t.Fatalf("params changed: %v != %v", tx.Params, benchReq.Params)
	}
	if !reflect.DeepEqual([]txn.Op(tx.Ops), binBenchOps) {
		t.Fatalf("ops changed: %v != %v", tx.Ops, binBenchOps)
	}
	if tx.Template != benchReq.Template || tx.IdemKey != benchReq.IdemKey {
		t.Fatalf("transaction fields not filled: %+v", tx)
	}
}

// TestBinRequestRejects: truncated or corrupt request payloads are
// rejected, whatever prefix of the layout they cut.
func TestBinRequestRejects(t *testing.T) {
	frame := mustFrame(t, &benchReq, binBenchOps)
	payload := frame[4:]
	var r Request
	var tx txn.Transaction
	for cut := 0; cut < len(payload); cut++ {
		b := payload[:cut]
		// Truncating inside the trailing ops blob at a record boundary
		// yields a shorter valid request; anywhere else must fail.
		opsStart := len(payload) - len(binBenchOps)*txn.OpWireBytes
		if cut >= opsStart && (cut-opsStart)%txn.OpWireBytes == 0 {
			continue
		}
		if err := DecodeRequestFrame(b, &r, &tx, nil); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	wrong := append([]byte{BinFrameResponses}, payload[1:]...)
	if err := DecodeRequestFrame(wrong, &r, &tx, nil); err == nil {
		t.Fatal("wrong frame type accepted")
	}
}

// TestBinResponseRoundTrip: every status — the seven well-known codes
// and the inline escape — survives the body round trip exactly.
func TestBinResponseRoundTrip(t *testing.T) {
	cases := []Response{
		benchResp,
		{Seq: 1, Status: StatusAbort},
		{Seq: 2, Status: StatusRejected, RetryAfterMS: 11},
		{Seq: 3, Status: StatusError, Error: "bad envelope"},
		{Seq: 4, Status: StatusCanceled},
		{Seq: 5, Status: StatusExpired},
		{Seq: 6, Status: StatusShed, RetryAfterMS: 40},
		{Seq: 7, Status: StatusCommit, Duplicate: true},
		{Seq: 8, Status: "someday-a-new-status", Retries: -1, Bundle: -2, QueueUS: -3},
		{Seq: 9, Status: StatusNotPrimary, Leader: "10.0.0.2:7000"},
		{Seq: 10, Status: StatusNotPrimary}, // no known successor: no leader tail
		{Seq: 11, Status: "inline-with-leader", Leader: "b:1", Error: "moved"},
		{},
	}
	var buf []byte
	for _, want := range cases {
		buf = AppendResponseBody(buf[:0], &want)
		var got Response
		rest, err := DecodeResponseBody(buf, &got)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%+v: %d trailing bytes", want, len(rest))
		}
		if got != want {
			t.Fatalf("round trip changed response: %+v -> %+v", want, got)
		}
	}
	// Batch walk: concatenated bodies decode in order.
	buf = buf[:0]
	for _, r := range cases {
		buf = AppendResponseBody(buf, &r)
	}
	b := buf
	for i, want := range cases {
		var got Response
		var err error
		if b, err = DecodeResponseBody(b, &got); err != nil {
			t.Fatalf("body %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("body %d changed: %+v -> %+v", i, want, got)
		}
	}
}

// TestBinResponseRejects: truncated bodies and unknown status codes
// are rejected rather than misparsed.
func TestBinResponseRejects(t *testing.T) {
	body := AppendResponseBody(nil, &Response{Seq: 9, Status: StatusError, Error: "x"})
	var r Response
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeResponseBody(body[:cut], &r); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := append([]byte(nil), body...)
	bad[8] = 200 // status code byte
	if _, err := DecodeResponseBody(bad, &r); err == nil {
		t.Fatal("unknown status code accepted")
	}
}

// TestInterner: bounded interning — hits return the remembered string,
// the table stops growing at capacity, and a full table still answers.
func TestInterner(t *testing.T) {
	in := NewInterner(2)
	a1 := in.Intern([]byte("alpha"))
	a2 := in.Intern([]byte("alpha"))
	if a1 != "alpha" || a2 != "alpha" {
		t.Fatalf("intern returned %q, %q", a1, a2)
	}
	in.Intern([]byte("beta"))
	in.Intern([]byte("gamma")) // over capacity: answered, not stored
	if got := in.Intern([]byte("alpha")); got != "alpha" {
		t.Fatalf("full interner returned %q", got)
	}
	if len(in.m) != 2 {
		t.Fatalf("interner grew past capacity: %d entries", len(in.m))
	}
	if got := in.Intern(nil); got != "" {
		t.Fatalf("empty intern returned %q", got)
	}
}

// FuzzWireParity checks the binary codec's round trip on structured
// inputs: any request whose ops the notation parser accepts decodes
// back to the same envelope, params and operation list, and any
// response decodes back to the same struct.
func FuzzWireParity(f *testing.F) {
	f.Add(uint64(1), "ycsb", "R[x1]W[x2]", []byte{1, 0}, uint64(7), int64(50), byte(0),
		"commit", "", int32(2), int64(81), int32(4), false, "")
	f.Add(uint64(0), "", "", []byte{}, uint64(0), int64(-1), byte(1),
		"weird status", "some error", int32(-1), int64(-9), int32(0), true, "")
	f.Add(uint64(3), "", "R[x1]", []byte{}, uint64(1), int64(0), byte(0),
		"not_primary", "", int32(0), int64(0), int32(0), false, "10.0.0.2:7000")
	f.Fuzz(func(t *testing.T, seq uint64, template, opsStr string, paramBytes []byte,
		idem uint64, deadline int64, pri byte,
		status, errStr string, retries int32, us int64, bundle int32, dup bool, leader string) {
		ops, err := txn.ParseOps(nil, opsStr)
		if err != nil {
			t.Skip() // not a wire-expressible transaction
		}
		if len(template) > 0xFFFF {
			t.Skip()
		}
		var params []uint64
		for i := 0; i+8 <= len(paramBytes) && len(params) < 16; i += 8 {
			params = append(params, binary.LittleEndian.Uint64(paramBytes[i:]))
		}
		req := Request{Seq: seq, Template: template, Params: params, Ops: opsStr,
			IdemKey: idem, DeadlineMS: deadline, Priority: pri}

		frame, err := AppendRequestFrame(nil, &req, ops)
		if err != nil {
			t.Fatalf("encode rejected parser output: %v", err)
		}
		var got Request
		var tx txn.Transaction
		if err := DecodeRequestFrame(frame[4:], &got, &tx, NewInterner(0)); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if got.Seq != req.Seq || got.IdemKey != req.IdemKey ||
			got.DeadlineMS != req.DeadlineMS || got.Priority != req.Priority ||
			got.Template != req.Template || tx.Template != req.Template || tx.IdemKey != req.IdemKey {
			t.Fatalf("envelope changed: sent %+v, got %+v (txn %+v)", req, got, tx)
		}
		if len(tx.Params) != len(params) {
			t.Fatalf("params changed: %v -> %v", params, tx.Params)
		}
		for i := range params {
			if tx.Params[i] != params[i] {
				t.Fatalf("params changed: %v -> %v", params, tx.Params)
			}
		}
		if len(tx.Ops) != len(ops) {
			t.Fatalf("ops changed: %v -> %v", ops, tx.Ops)
		}
		for i := range ops {
			if tx.Ops[i] != ops[i] {
				t.Fatalf("ops changed: %v -> %v", ops, tx.Ops)
			}
		}

		if len(status) > 0xFFFF || len(errStr) > 0xFFFF || len(leader) > 0xFFFF {
			t.Skip()
		}
		resp := Response{Seq: seq, Status: status, Retries: int(retries),
			QueueUS: us, ExecUS: -us, Bundle: int(bundle), RetryAfterMS: us,
			Error: errStr, Duplicate: dup, Leader: leader}
		body := AppendResponseBody(nil, &resp)
		var gotResp Response
		rest, err := DecodeResponseBody(body, &gotResp)
		if err != nil || len(rest) != 0 {
			t.Fatalf("response round trip: err=%v rest=%d", err, len(rest))
		}
		if gotResp != resp {
			t.Fatalf("response changed: %+v -> %+v", resp, gotResp)
		}
	})
}

// Binary-codec alloc budgets: encode and decode are both
// allocation-free in steady state (reused buffers, warm transaction
// capacity, interned template).
func TestBinWireAllocBudgets(t *testing.T) {
	frame := mustFrame(t, &benchReq, binBenchOps)
	payload := frame[4:]
	var r Request
	var tx txn.Transaction
	in := NewInterner(0)
	if err := DecodeRequestFrame(payload, &r, &tx, in); err != nil {
		t.Fatal(err) // warm-up: first decode may size the buffers
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeRequestFrame(payload, &r, &tx, in); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("DecodeRequestFrame allocs/op = %v, budget 0", n)
	}
	var buf []byte
	if n := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendRequestFrame(buf[:0], &benchReq, binBenchOps); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendRequestFrame allocs/op = %v, budget 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendResponseBody(buf[:0], &benchResp)
	}); n > 0 {
		t.Errorf("AppendResponseBody allocs/op = %v, budget 0", n)
	}
	body := AppendResponseBody(nil, &benchResp)
	var resp Response
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeResponseBody(body, &resp); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("DecodeResponseBody allocs/op = %v, budget 0", n)
	}
}

// BenchmarkWireBinEncodeRequest measures the pipelined client's encode
// path: notation parsed into a reused scratch, then framed.
func BenchmarkWireBinEncodeRequest(b *testing.B) {
	var buf []byte
	var ops []txn.Op
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if ops, err = txn.ParseOps(ops[:0], benchReq.Ops); err != nil {
			b.Fatal(err)
		}
		if buf, err = AppendRequestFrame(buf[:0], &benchReq, ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireBinDecodeRequest measures the server's request decode
// into a pooled transaction.
func BenchmarkWireBinDecodeRequest(b *testing.B) {
	frame := mustFrame(b, &benchReq, binBenchOps)
	payload := frame[4:]
	var r Request
	var tx txn.Transaction
	in := NewInterner(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeRequestFrame(payload, &r, &tx, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireBinEncodeResponse measures the server's per-outcome
// body append.
func BenchmarkWireBinEncodeResponse(b *testing.B) {
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendResponseBody(buf[:0], &benchResp)
	}
}

// BenchmarkWireBinDecodeResponse measures the client's per-outcome
// body decode.
func BenchmarkWireBinDecodeResponse(b *testing.B) {
	body := AppendResponseBody(nil, &benchResp)
	var r Response
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponseBody(body, &r); err != nil {
			b.Fatal(err)
		}
	}
}
