package wire

import (
	"bytes"
	"testing"

	"nexus/internal/core"
	"nexus/internal/datagen"
)

func testTraceCtx() TraceCtx {
	var c TraceCtx
	for i := range c.TraceID {
		c.TraceID[i] = byte(i + 1)
	}
	c.SpanID = 0xdeadbeefcafe
	return c
}

func TestTraceCtxFieldRoundTrip(t *testing.T) {
	want := testTraceCtx()
	var e Encoder
	PutTraceCtx(&e, want)
	if e.Len() != traceCtxLen {
		t.Fatalf("encoded %d bytes, want %d", e.Len(), traceCtxLen)
	}
	d := NewDecoder(e.Bytes())
	got := GetTraceCtx(d)
	if d.Err() != nil || got != want {
		t.Fatalf("round trip: %+v -> %+v (err %v)", want, got, d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("%d bytes left over", d.Remaining())
	}
}

func TestTraceCtxZeroEncodesNothing(t *testing.T) {
	var e Encoder
	PutTraceCtx(&e, TraceCtx{})
	if e.Len() != 0 {
		t.Fatalf("zero context encoded %d bytes; absence IS the no-trace form", e.Len())
	}
	if (TraceCtx{}).Valid() {
		t.Fatal("zero context claims validity")
	}
	if !testTraceCtx().Valid() {
		t.Fatal("non-zero context claims invalidity")
	}
}

// TestTraceCtxAdvisoryDecode: the field is advisory — absent, short,
// or unknown-version bytes decode as "no trace" without failing the
// decoder. This is the property that makes trace context safe to bolt
// onto existing frames: an old peer's frame (no field) and a future
// peer's frame (unknown version) are both fine.
func TestTraceCtxAdvisoryDecode(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"absent", nil},
		{"short", []byte{traceCtxVersion, 1, 2, 3}},
		{"unknown version", func() []byte {
			var e Encoder
			PutTraceCtx(&e, testTraceCtx())
			b := e.Bytes()
			b[0] = 99
			return b
		}()},
	}
	for _, tc := range cases {
		d := NewDecoder(tc.buf)
		if got := GetTraceCtx(d); got.Valid() {
			t.Fatalf("%s: decoded a trace from garbage: %+v", tc.name, got)
		}
		if d.Err() != nil {
			t.Fatalf("%s: advisory field failed the decoder: %v", tc.name, d.Err())
		}
	}
}

// The hello layouts before the by-ID flag, written out as bytes: the
// tenant "acme" untraced, then traced with testTraceCtx, then the traced
// anonymous hello, which spells out the empty tenant.
var (
	oldHelloAcme   = []byte{0, 0, 0, 4, 'a', 'c', 'm', 'e'}
	oldTraceField  = []byte{traceCtxVersion, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 0, 0, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe}
	oldHelloTraced = append(append([]byte{}, oldHelloAcme...), oldTraceField...)
	oldHelloAnonTr = append([]byte{0, 0, 0, 0}, oldTraceField...)
)

// legacyDecodeHello is the hello decoder of a server that predates the
// by-ID flag: the tenant, the optional trace field, nothing after.
func legacyDecodeHello(b []byte) (string, TraceCtx, error) {
	if len(b) == 0 {
		return "", TraceCtx{}, nil
	}
	d := NewDecoder(b)
	tenant := d.Str()
	return tenant, GetTraceCtx(d), d.Err()
}

func TestHelloTraceVersionTolerance(t *testing.T) {
	tc := testTraceCtx()

	// New peer -> new peer: every field survives, in every combination.
	for _, want := range []HelloReq{
		{}, {Tenant: "acme"}, {Trace: tc}, {Tenant: "acme", Trace: tc},
		{ByID: true}, {Tenant: "acme", ByID: true}, {Trace: tc, ByID: true}, {Tenant: "acme", Trace: tc, ByID: true},
	} {
		got, err := DecodeHello(EncodeHello(want))
		if err != nil || got != want {
			t.Fatalf("hello round trip: %+v -> %+v (err %v)", want, got, err)
		}
	}

	// Old frame -> new peer: the fields it has decode, and no flag means
	// replies in request order.
	for _, c := range []struct {
		name string
		buf  []byte
		want HelloReq
	}{
		{"empty", nil, HelloReq{}},
		{"tenant", oldHelloAcme, HelloReq{Tenant: "acme"}},
		{"traced", oldHelloTraced, HelloReq{Tenant: "acme", Trace: tc}},
		{"traced anonymous", oldHelloAnonTr, HelloReq{Trace: tc}},
	} {
		got, err := DecodeHello(c.buf)
		if err != nil || got != c.want {
			t.Fatalf("legacy %s hello through new decoder: %+v (err %v), want %+v", c.name, got, err, c.want)
		}
	}

	// Without the flag, the new encoder writes the old bytes exactly.
	for _, c := range []struct {
		req  HelloReq
		want []byte
	}{
		{HelloReq{}, nil},
		{HelloReq{Tenant: "acme"}, oldHelloAcme},
		{HelloReq{Tenant: "acme", Trace: tc}, oldHelloTraced},
		{HelloReq{Trace: tc}, oldHelloAnonTr},
	} {
		if got := EncodeHello(c.req); !bytes.Equal(got, c.want) {
			t.Fatalf("%+v encodes % x, want the old layout % x", c.req, got, c.want)
		}
	}

	// New frame -> old peer: the legacy decoder ignores the flag byte.
	for _, req := range []HelloReq{
		{ByID: true}, {Tenant: "acme", ByID: true}, {Trace: tc, ByID: true}, {Tenant: "acme", Trace: tc, ByID: true},
	} {
		tenant, gotTC, err := legacyDecodeHello(EncodeHello(req))
		if err != nil || tenant != req.Tenant || gotTC != req.Trace {
			t.Fatalf("flagged hello %+v through legacy decoder: %q %+v %v", req, tenant, gotTC, err)
		}
	}
}

func TestExecuteTraceVersionTolerance(t *testing.T) {
	sc, err := core.NewScan("sales", datagen.SalesSchema())
	if err != nil {
		t.Fatal(err)
	}
	want := testTraceCtx()

	id, plan, tc, err := DecodeExecuteTrace(EncodeExecuteTrace(7, sc, want))
	if err != nil || id != 7 || plan == nil || tc != want {
		t.Fatalf("traced execute round trip: id=%d plan=%v tc=%+v err=%v", id, plan, tc, err)
	}

	id, plan, tc, err = DecodeExecuteTrace(EncodeExecute(7, sc))
	if err != nil || id != 7 || plan == nil || tc.Valid() {
		t.Fatalf("legacy execute through new decoder: id=%d tc=%+v err=%v", id, tc, err)
	}

	id, plan, err = DecodeExecute(EncodeExecuteTrace(7, sc, want))
	if err != nil || id != 7 || plan == nil {
		t.Fatalf("traced execute through legacy decoder: id=%d err=%v", id, err)
	}
}

func TestStoreTraceVersionTolerance(t *testing.T) {
	tbl := datagen.Sales(1, 8, 4, 2)
	want := testTraceCtx()

	name, got, tc, err := DecodeStoreTrace(EncodeStoreTrace("sales", tbl, want))
	if err != nil || name != "sales" || got.NumRows() != tbl.NumRows() || tc != want {
		t.Fatalf("traced store round trip: %q rows=%d tc=%+v err=%v", name, got.NumRows(), tc, err)
	}

	name, got, tc, err = DecodeStoreTrace(EncodeStore("sales", tbl))
	if err != nil || name != "sales" || got.NumRows() != tbl.NumRows() || tc.Valid() {
		t.Fatalf("legacy store through new decoder: %q tc=%+v err=%v", name, tc, err)
	}

	name, got, err = DecodeStore(EncodeStoreTrace("sales", tbl, want))
	if err != nil || name != "sales" || got.NumRows() != tbl.NumRows() {
		t.Fatalf("traced store through legacy decoder: %q err=%v", name, err)
	}
}

func TestSubscribeStreamCarriesTrace(t *testing.T) {
	sch := testEventSchema()
	sub := StreamSub{
		ID:         3,
		SourceKind: StreamSrcDataset,
		Dataset:    "events",
		TimeCol:    "ts",
		Spec:       streamSpecForTest(t, sch),
		Credit:     4,
		Durable:    "job",
		Trace:      testTraceCtx(),
	}
	got, err := DecodeSubscribeStream(EncodeSubscribeStream(sub))
	if err != nil || got.Trace != sub.Trace {
		t.Fatalf("subscribe trace round trip: %+v %v", got.Trace, err)
	}
	reencodeSub(t, sub)

	sub.Trace = TraceCtx{}
	got, err = DecodeSubscribeStream(EncodeSubscribeStream(sub))
	if err != nil || got.Trace.Valid() {
		t.Fatalf("untraced subscribe grew a trace: %+v %v", got.Trace, err)
	}
}
