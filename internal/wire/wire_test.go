package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/graph"
	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []value.Value{
		value.Null,
		value.NewBool(true),
		value.NewBool(false),
		value.NewInt(-42),
		value.NewInt(math.MaxInt64),
		value.NewFloat(3.14159),
		value.NewFloat(math.Inf(1)),
		value.NewString(""),
		value.NewString("héllo, wörld"),
	}
	for _, v := range vals {
		var e Encoder
		PutValue(&e, v)
		d := NewDecoder(e.Bytes())
		got := GetValue(d)
		if d.Err() != nil {
			t.Fatalf("%v: %v", v, d.Err())
		}
		if got.Kind() != v.Kind() || !value.Equal(got, v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
}

func TestValueRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, pick uint8) bool {
		var v value.Value
		switch pick % 5 {
		case 0:
			v = value.Null
		case 1:
			v = value.NewBool(b)
		case 2:
			v = value.NewInt(i)
		case 3:
			v = value.NewFloat(fl)
		case 4:
			v = value.NewString(s)
		}
		var e Encoder
		PutValue(&e, v)
		d := NewDecoder(e.Bytes())
		got := GetValue(d)
		if d.Err() != nil {
			return false
		}
		if v.Kind() == value.KindFloat64 && math.IsNaN(fl) {
			return got.Kind() == value.KindFloat64 && math.IsNaN(got.Float())
		}
		return got.Kind() == v.Kind() && value.Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := schema.New(
		schema.Attribute{Name: "i", Kind: value.KindInt64, Dim: true},
		schema.Attribute{Name: "name", Kind: value.KindString},
		schema.Attribute{Name: "ok", Kind: value.KindBool},
		schema.Attribute{Name: "w", Kind: value.KindFloat64},
	)
	var e Encoder
	PutSchema(&e, s)
	d := NewDecoder(e.Bytes())
	got := GetSchema(d)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if !got.Equal(s) {
		t.Fatalf("schema round trip: %v -> %v", s, got)
	}
}

func TestTableRoundTrip(t *testing.T) {
	tables := []*table.Table{
		datagen.Sales(1, 500, 20, 10),
		datagen.Matrix(2, 8, 9, "i", "j"),
		datagen.UniformGraph(3, 20, 50),
		table.Empty(datagen.SalesSchema()),
	}
	for _, tab := range tables {
		got, err := DecodeTable(EncodeTable(tab))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Schema().Equal(tab.Schema()) {
			t.Fatalf("schema mismatch: %v vs %v", got.Schema(), tab.Schema())
		}
		if !table.EqualRows(got, tab) {
			t.Fatal("table rows changed across the wire")
		}
	}
}

func TestTableWithNullsRoundTrip(t *testing.T) {
	sch := schema.New(
		schema.Attribute{Name: "a", Kind: value.KindInt64},
		schema.Attribute{Name: "b", Kind: value.KindString},
	)
	b := table.NewBuilder(sch, 4)
	b.MustAppend(value.NewInt(1), value.NewString("x"))
	b.MustAppend(value.Null, value.NewString("y"))
	b.MustAppend(value.NewInt(3), value.Null)
	b.MustAppend(value.Null, value.Null)
	tab := b.Build()
	got, err := DecodeTable(EncodeTable(tab))
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualRows(got, tab) {
		t.Fatal("nulls lost across the wire")
	}
	if !got.Col(0).IsNull(1) || !got.Col(1).IsNull(2) {
		t.Fatal("null positions wrong")
	}
}

func TestExprRoundTrip(t *testing.T) {
	exprs := []expr.Expr{
		expr.CInt(5),
		expr.Column("price"),
		expr.And(expr.Gt(expr.Column("a"), expr.CInt(1)), expr.IsNull(expr.Column("b"))),
		expr.NewCall("coalesce", expr.Column("x"), expr.CFloat(0)),
		expr.Mul(expr.Add(expr.Column("p"), expr.CFloat(1.5)), expr.Neg(expr.Column("q"))),
		nil,
	}
	for _, x := range exprs {
		var e Encoder
		PutExpr(&e, x)
		d := NewDecoder(e.Bytes())
		got := GetExpr(d)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		if !expr.Equal(got, x) {
			t.Fatalf("expr round trip: %v -> %v", x, got)
		}
	}
}

// Plan round trip across representative operators; decode re-runs schema
// inference so equality means full reconstruction.
func TestPlanRoundTrip(t *testing.T) {
	sales := datagen.Sales(4, 50, 10, 5)
	customers := datagen.Customers(5, 10)
	scanS, _ := core.NewScan("sales", sales.Schema())
	scanC, _ := core.NewScan("customers", customers.Schema())

	f, _ := core.NewFilter(scanS, expr.Gt(expr.Column("qty"), expr.CInt(3)))
	j, _ := core.NewJoin(f, scanC, core.JoinLeft, []string{"cust_id"}, []string{"cust_id"}, expr.Ne(expr.Column("region"), expr.CStr("EU")))
	ga, _ := core.NewGroupAgg(j, []string{"segment"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
		{Func: core.AggCount, As: "n"},
	})
	s, _ := core.NewSort(ga, []core.SortSpec{{Col: "rev", Desc: true}})
	l, _ := core.NewLimit(s, 3, 1)

	grid := datagen.Grid(6, 4, 4)
	scanG, _ := core.NewScan("grid", grid.Schema())
	w, _ := core.NewWindow(scanG, []core.DimExtent{{Dim: "x", Before: 1, After: 1}}, core.AggAvg, "v", "m")
	lit, _ := core.NewLiteral(datagen.Matrix(7, 3, 3, "i", "k"))
	litB, _ := core.NewLiteral(datagen.Matrix(8, 3, 3, "k", "j"))
	mm, _ := core.NewMatMul(lit, litB, "v")

	pr, err := graph.PageRankPlan("edges", datagen.EdgeSchema(), "vertices", graph.VerticesSchema(), 10, 0.85, 20, 1e-6)
	if err != nil {
		t.Fatal(err)
	}

	for _, plan := range []core.Node{l, w, mm, pr} {
		b := EncodePlan(plan)
		got, err := DecodePlan(b)
		if err != nil {
			t.Fatalf("%s: %v", plan.Describe(), err)
		}
		if !core.Equal(got, plan) {
			t.Fatalf("plan round trip changed the tree:\n%s\nvs\n%s", core.Explain(plan), core.Explain(got))
		}
		if !got.Schema().Equal(plan.Schema()) {
			t.Fatalf("plan round trip changed the schema: %v vs %v", got.Schema(), plan.Schema())
		}
	}
}

func TestPlanDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodePlan([]byte{0xff, 0x00, 0x01}); err == nil {
		t.Fatal("garbage accepted as plan")
	}
	if _, err := DecodePlan(nil); err == nil {
		t.Fatal("empty input accepted as plan")
	}
	// Truncated valid prefix.
	sales := datagen.Sales(9, 5, 3, 2)
	scan, _ := core.NewScan("s", sales.Schema())
	f, _ := core.NewFilter(scan, expr.Gt(expr.Column("qty"), expr.CInt(1)))
	b := EncodePlan(f)
	for _, cut := range []int{1, 3, len(b) / 2, len(b) - 1} {
		if _, err := DecodePlan(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the payload")
	wrote, err := WriteFrame(&buf, MsgExecute, payload)
	if err != nil {
		t.Fatal(err)
	}
	typ, got, read, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgExecute || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: %v %q", typ, got)
	}
	if wrote != read {
		t.Fatalf("byte accounting differs: wrote %d read %d", wrote, read)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 1})
	if _, _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// Property: arbitrary int tables survive the wire byte-for-byte.
func TestTableRoundTripProperty(t *testing.T) {
	f := func(a []int64, s []string) bool {
		n := len(a)
		if len(s) < n {
			n = len(s)
		}
		sch := schema.New(
			schema.Attribute{Name: "a", Kind: value.KindInt64},
			schema.Attribute{Name: "s", Kind: value.KindString},
		)
		tab := table.MustNew(sch, []*table.Column{
			table.IntColumn(a[:n]),
			table.StringColumn(s[:n]),
		})
		got, err := DecodeTable(EncodeTable(tab))
		return err == nil && table.EqualRows(got, tab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSliceKernelsMatchScalars pins the slice-at-a-time encoders to the
// bytes the scalar methods write one element at a time, the decoders to
// the values the scalar methods read, and a count the input cannot hold
// to a decoder error rather than an allocation.
func TestSliceKernelsMatchScalars(t *testing.T) {
	ints := []int64{0, -1, math.MinInt64, math.MaxInt64, 1 << 53}
	floats := []float64{0, math.Copysign(0, -1), -1.5, math.Inf(-1), math.MaxFloat64}
	u32s := []uint32{0, 1, 1 << 31, math.MaxUint32}
	bools := []bool{true, false, false, true, true}
	strs := []string{"", "a", "héllo", "\x00"}

	var bulk, scalar Encoder
	bulk.I64s(ints)
	bulk.F64s(floats)
	bulk.U32s(u32s)
	bulk.Bools(bools)
	bulk.Strs(strs)
	for _, v := range ints {
		scalar.I64(v)
	}
	for _, v := range floats {
		scalar.F64(v)
	}
	for _, v := range u32s {
		scalar.U32(v)
	}
	for _, v := range bools {
		scalar.Bool(v)
	}
	for _, v := range strs {
		scalar.Str(v)
	}
	if !bytes.Equal(bulk.Bytes(), scalar.Bytes()) {
		t.Fatal("slice encoders wrote different bytes than the scalar encoders")
	}

	d := NewDecoder(bulk.Bytes())
	gotInts, gotFloats := d.I64s(len(ints)), d.F64s(len(floats))
	for range u32s {
		d.U32()
	}
	gotBools, gotStrs := d.Bools(len(bools)), d.Strs(len(strs))
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("decode: err=%v, %d bytes left", d.Err(), d.Remaining())
	}
	for i := range ints {
		if gotInts[i] != ints[i] || math.Float64bits(gotFloats[i]) != math.Float64bits(floats[i]) || gotBools[i] != bools[i] {
			t.Fatalf("element %d: got %d %v %v", i, gotInts[i], gotFloats[i], gotBools[i])
		}
	}
	for i := range strs {
		if gotStrs[i] != strs[i] {
			t.Fatalf("string %d: got %q", i, gotStrs[i])
		}
	}

	for name, read := range map[string]func(*Decoder, int){
		"I64s":  func(d *Decoder, n int) { d.I64s(n) },
		"F64s":  func(d *Decoder, n int) { d.F64s(n) },
		"Bools": func(d *Decoder, n int) { d.Bools(n) },
		"Strs":  func(d *Decoder, n int) { d.Strs(n) },
	} {
		for _, n := range []int{-1, 33, 1 << 40, 1 << 61} {
			d := NewDecoder(make([]byte, 32))
			read(d, n)
			if d.Err() == nil {
				t.Fatalf("%s(%d) over 32 bytes did not fail", name, n)
			}
		}
	}
}
