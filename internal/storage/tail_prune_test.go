package storage

import (
	"bytes"
	"math"
	"testing"

	"nexus/internal/core"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/planner"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// TestTailPruningDifferential extends the encoded differentials to the
// unflushed tail, whose parts scans and aggregates now skip by zone map
// like segments: parts with NULL keys, NaN and ±Inf floats, keys out of
// order and an all-NULL key part sit behind two flushed segments, and
// every filtered scan and grouped aggregate must equal the in-memory
// engine byte for byte — whichever parts the predicates keep or skip.
func TestTailPruningDifferential(t *testing.T) {
	sch := schema.New(
		schema.Attribute{Name: "k", Kind: value.KindInt64},
		schema.Attribute{Name: "x", Kind: value.KindFloat64},
		schema.Attribute{Name: "s", Kind: value.KindString},
	)
	null, i, f, s := value.Null, value.NewInt, value.NewFloat, value.NewString
	rows := func(vals ...[3]value.Value) *table.Table {
		b := table.NewBuilder(sch, len(vals))
		for _, r := range vals {
			b.MustAppend(r[0], r[1], r[2])
		}
		return b.Build()
	}
	seq := func(lo, hi int64) *table.Table {
		b := table.NewBuilder(sch, int(hi-lo))
		for k := lo; k < hi; k++ {
			b.MustAppend(i(k), f(float64(k)/4), s([]string{"a", "b", "c"}[k%3]))
		}
		return b.Build()
	}
	segments := []*table.Table{seq(0, 100), seq(100, 200)}
	tail := []*table.Table{
		seq(200, 260),
		rows([3]value.Value{i(900), f(1), s("z")}, [3]value.Value{i(3), f(-1), s("a")}, [3]value.Value{i(450), null, s("m")}),
		rows([3]value.Value{null, f(2), s("b")}, [3]value.Value{i(600), f(math.NaN()), null}, [3]value.Value{i(601), f(math.Inf(1)), s("c")}),
		rows([3]value.Value{null, f(math.Inf(-1)), null}, [3]value.Value{null, null, s("q")}),
		rows([3]value.Value{i(-5), f(math.Copysign(0, -1)), s("")}, [3]value.Value{i(700), f(0), s("b")}),
	}
	eng, err := OpenEngine("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, p := range segments {
		if err := eng.Append("d", p); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range tail {
		if err := eng.Append("d", p); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := table.Empty(sch).Concat(append(append([]*table.Table(nil), segments...), tail...)...)
	if err != nil {
		t.Fatal(err)
	}
	mem := relational.New("mem")
	if err := mem.Store("d", whole); err != nil {
		t.Fatal(err)
	}

	nullC := &expr.Const{Val: value.Null}
	preds := []expr.Expr{
		expr.Ge(expr.Column("k"), expr.CInt(400)), // keeps the out-of-order parts only
		expr.And(expr.Ge(expr.Column("k"), expr.CInt(240)), expr.Lt(expr.Column("k"), expr.CInt(250))),
		expr.Eq(expr.Column("k"), expr.CInt(3)),        // one out-of-order row
		expr.Gt(expr.Column("k"), expr.CInt(10_000)),   // skips every part
		expr.Le(expr.Column("k"), nullC),               // NULL keys sort first
		expr.Lt(expr.Column("k"), expr.CInt(0)),        // NULL and -5
		expr.Lt(expr.Column("x"), expr.CFloat(-1e300)), // NaN and -Inf sort below
		expr.Gt(expr.Column("x"), expr.CFloat(1e300)),  // +Inf only
		expr.Eq(expr.Column("x"), expr.CFloat(0)),      // -0 == +0
		expr.And(expr.Ge(expr.Column("s"), expr.CStr("m")), expr.Ne(expr.Column("k"), expr.CInt(900))),
		expr.Lt(expr.Column("s"), expr.CStr("a")), // NULL and ""
	}
	kept, skipped := 0, 0
	for pi, pred := range preds {
		filter := func() core.Node {
			sc, _ := core.NewScan("d", sch)
			n, err := core.NewFilter(sc, pred)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		acc, ok := planner.AnalyzeScanAccess(filter())
		if !ok {
			t.Fatalf("pred %d: not a prunable scan", pi)
		}
		_, parts, _ := eng.Backing().snapshot("d")
		for _, p := range parts {
			if segMayMatch(sch, p.zones, acc.Preds) {
				kept++
			} else {
				skipped++
			}
		}

		plans := []core.Node{filter()}
		if p, err := core.NewProject(filter(), []string{"x", "k"}); err == nil {
			plans = append(plans, p)
		}
		for _, keys := range [][]string{nil, {"s"}, {"k"}} {
			g, err := core.NewGroupAgg(filter(), keys, []core.AggSpec{
				{Func: core.AggCount, As: "n"},
				{Func: core.AggSum, Arg: expr.Column("x"), As: "sx"},
				{Func: core.AggMin, Arg: expr.Column("k"), As: "lo"},
			})
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, g)
		}
		for qi, plan := range plans {
			want, err := mem.Execute(plan)
			if err != nil {
				t.Fatalf("pred %d plan %d: mem: %v", pi, qi, err)
			}
			eng.DropCache()
			got, err := eng.Execute(plan)
			if err != nil {
				t.Fatalf("pred %d plan %d: disk: %v", pi, qi, err)
			}
			if !bytes.Equal(wire.EncodeTable(want), wire.EncodeTable(got)) {
				t.Fatalf("pred %d plan %d: differs from the memory oracle\nwant %v\ngot  %v", pi, qi, want, got)
			}
		}
	}
	if kept == 0 || skipped == 0 {
		t.Fatalf("zone maps kept %d and skipped %d tail parts — the differential needs both", kept, skipped)
	}
	if eng.EncodedAggs() == 0 {
		t.Fatal("the encoded aggregate never served — the differential ran vacuously")
	}
}
