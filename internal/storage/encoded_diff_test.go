package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nexus/internal/core"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// The encoded-vs-decoded differential suite: every result the encoded
// kernels produce must be byte-identical to materialize-then-evaluate.
// Three layers:
//
//   - page level: AndMatches / Materialize / MaterializeRows against a
//     row-at-a-time oracle over the decoded column, for every encoding a
//     column admits (plain, RLE, dict, shared dict), across NULLs, row
//     counts straddling the encoder thresholds, and all six operators;
//   - engine level: filtered+projected scans vs the in-memory relational
//     engine;
//   - aggregate level: GroupAgg plans served by the encoded fold vs the
//     generic runtime.

// diffSchema is the column mix the differential tables use: something
// for every encoding to win on.
func diffSchema() schema.Schema {
	return schema.New(
		schema.Attribute{Name: "id", Kind: value.KindInt64},      // unique: plain
		schema.Attribute{Name: "bucket", Kind: value.KindInt64},  // long runs: RLE
		schema.Attribute{Name: "tier", Kind: value.KindString},   // few distinct + NULLs: dict/shared
		schema.Attribute{Name: "score", Kind: value.KindFloat64}, // few distinct + NULLs
		schema.Attribute{Name: "wide", Kind: value.KindString},   // unique: plain
		schema.Attribute{Name: "flag", Kind: value.KindBool},
	)
}

var diffTiers = []string{"gold", "silver", "bronze", "iron"}

// genDiffTable generates rows rows of diffSchema. next numbers rows
// across calls so "id"/"wide" stay unique across batches.
func genDiffTable(rng *rand.Rand, rows int, next *int64) *table.Table {
	b := table.NewBuilder(diffSchema(), rows)
	for i := 0; i < rows; i++ {
		id := *next
		*next++
		tier := value.Value(value.Null)
		if rng.Intn(8) != 0 {
			tier = value.NewString(diffTiers[rng.Intn(len(diffTiers))])
		}
		score := value.Value(value.Null)
		if rng.Intn(8) != 0 {
			score = value.NewFloat(float64(rng.Intn(5)) + 0.25)
		}
		b.MustAppend(
			value.NewInt(id),
			value.NewInt(id/17), // runs of 17: RLE wins at >=68 rows
			tier,
			score,
			value.NewString(fmt.Sprintf("w-%06d", id)),
			value.NewBool(id%3 == 0),
		)
	}
	return b.Build()
}

// opHolds is the test's own spelling of the comparison semantics, kept
// deliberately independent of cmpHoldsEnc.
func opHolds(op value.BinOp, l, r value.Value) bool {
	c := value.Compare(l, r)
	switch op {
	case value.OpEq:
		return c == 0
	case value.OpNe:
		return c != 0
	case value.OpLt:
		return c < 0
	case value.OpLe:
		return c <= 0
	case value.OpGt:
		return c > 0
	case value.OpGe:
		return c >= 0
	}
	return false
}

func colEq(t *testing.T, want, got *table.Column, what string) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
	}
	for r := 0; r < want.Len(); r++ {
		if value.Compare(want.Value(r), got.Value(r)) != 0 {
			t.Fatalf("%s: row %d = %v, want %v", what, r, got.Value(r), want.Value(r))
		}
	}
}

var diffOps = []value.BinOp{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}

// TestEncodedPageDifferential drives every page encoding a column
// admits through parse/filter/materialize and compares row by row
// against the decoded column. Row counts straddle the encoder
// thresholds (64-row plain floor, run-density and distinct-count
// cutoffs) so run boundaries land on and around batch edges.
func TestEncodedPageDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var next int64
	for _, rows := range []int{1, 2, 63, 64, 65, 127, 128, 200, 256} {
		tbl := genDiffTable(rng, rows, &next)
		for c := 0; c < tbl.NumCols(); c++ {
			col := tbl.Col(c)
			name := tbl.Schema().At(c).Name
			kind := col.Kind()

			encs := []uint8{PageEncPlain, PageEncRLE}
			if kind != value.KindBool {
				encs = append(encs, PageEncDict)
			}
			var dict *SharedDict
			if kind == value.KindString {
				dict = &SharedDict{Col: name, Epoch: dictEpochFirst}
				full := true
				for r := 0; r < col.Len(); r++ {
					v := col.Value(r)
					if v.IsNull() {
						continue
					}
					if _, ok := dict.Add(v.Str()); !ok {
						full = false
						break
					}
				}
				if full {
					encs = append(encs, PageEncDictShared)
				}
			}

			for _, enc := range encs {
				ctx := pageCtx{col: name, dict: dict}
				page := encodePage(col, enc, dict)
				dec, err := pageColumn(page, kind, ctx)
				if err != nil {
					t.Fatalf("%s/%s rows=%d: decode: %v", name, encodingName(enc), rows, err)
				}
				ec, err := parsePageEncoded(page, kind, ctx)
				if err != nil {
					t.Fatalf("%s/%s rows=%d: parse encoded: %v", name, encodingName(enc), rows, err)
				}
				if ec.Encoding() != enc || ec.Rows() != rows {
					t.Fatalf("%s/%s: parsed enc=%d rows=%d", name, encodingName(enc), ec.Encoding(), ec.Rows())
				}

				mat, err := ec.Materialize()
				if err != nil {
					t.Fatalf("%s/%s: materialize: %v", name, encodingName(enc), err)
				}
				colEq(t, dec, mat, name+"/"+encodingName(enc)+" materialize")

				// Constants: present values, absent values, NULL, and
				// cross-kind (numeric columns vs a string constant and
				// vice versa — the total order must agree everywhere).
				consts := []value.Value{value.Null, col.Value(rng.Intn(rows))}
				switch kind {
				case value.KindInt64:
					consts = append(consts, value.NewInt(-1), value.NewFloat(2.5), value.NewString("x"))
				case value.KindFloat64:
					consts = append(consts, value.NewFloat(-1.5), value.NewInt(2), value.NewString("x"))
				case value.KindString:
					consts = append(consts, value.NewString("zzz"), value.NewString(""), value.NewInt(3))
				case value.KindBool:
					consts = append(consts, value.NewBool(true), value.NewInt(0))
				}
				for _, cv := range consts {
					for _, op := range diffOps {
						// Random pre-mask: AndMatches may only clear bits.
						pre := make([]bool, rows)
						for i := range pre {
							pre[i] = rng.Intn(4) != 0
						}
						got := append([]bool(nil), pre...)
						ec.AndMatches(op, cv, got)
						for r := 0; r < rows; r++ {
							want := pre[r] && opHolds(op, dec.Value(r), cv)
							if got[r] != want {
								t.Fatalf("%s/%s: row %d (%v %v %v) = %v, want %v",
									name, encodingName(enc), r, dec.Value(r), op, cv, got[r], want)
							}
						}
						checkMorsels(t, ec, op, cv, pre, got, rng, name+"/"+encodingName(enc))
					}
				}

				// Selective materialization: empty, full, and random
				// ascending subsets.
				sels := [][]int{{}, allRows(rows)}
				for trial := 0; trial < 3; trial++ {
					var sel []int
					for r := 0; r < rows; r++ {
						if rng.Intn(3) == 0 {
							sel = append(sel, r)
						}
					}
					sels = append(sels, sel)
				}
				for _, sel := range sels {
					got, err := ec.MaterializeRows(sel)
					if err != nil {
						t.Fatalf("%s/%s: materialize rows: %v", name, encodingName(enc), err)
					}
					if got.Len() != len(sel) {
						t.Fatalf("%s/%s: materialized %d of %d selected", name, encodingName(enc), got.Len(), len(sel))
					}
					for i, r := range sel {
						if value.Compare(dec.Value(r), got.Value(i)) != 0 {
							t.Fatalf("%s/%s: sel[%d]=row %d = %v, want %v",
								name, encodingName(enc), i, r, got.Value(i), dec.Value(r))
						}
					}
				}
			}
		}
	}
}

// TestEncodedLazyEagerDifferential pins the typed filter loops and the
// selective decode at the edges of value.Compare's order. Every page
// encoding a numeric or string column admits is parsed into its lazy
// view (fixed-width payloads left as bytes) and, separately, decoded and
// wrapped as an eager view (typed loops over slices); both must agree
// with the boxed row-at-a-time oracle for all six operators, with NULL
// rows present, against NULL, NaN, ±Inf, integers beyond 2^53 (where
// int-vs-float comparison rounds) and cross-kind constants.
func TestEncodedLazyEagerDifferential(t *testing.T) {
	const big = int64(1) << 53
	ints := []int64{math.MinInt64, -big - 1, -big, -1, 0, 1, 2, 3, big - 1, big, big + 1, math.MaxInt64 - 1, math.MaxInt64}
	floats := []float64{math.NaN(), math.Inf(-1), -float64(big), -1.5, math.Copysign(0, -1), 0, 0.5, 2, 2.5,
		float64(big), float64(big) * 2, math.MaxFloat64, math.Inf(1)}
	strs := []string{"", "a", "b", "ba", "z"}
	consts := []value.Value{value.Null, value.NewBool(true), value.NewString("b"), value.NewString("")}
	for _, v := range ints {
		consts = append(consts, value.NewInt(v))
	}
	for _, v := range floats {
		consts = append(consts, value.NewFloat(v))
	}

	const rows = 96 // above the encoder's 64-row plain floor
	rng := rand.New(rand.NewSource(17))
	build := func(kind value.Kind, nulls bool, pick func(i int) value.Value) *table.Column {
		col := table.NewColumn(kind, rows)
		for i := 0; i < rows; i++ {
			v := pick(i)
			if nulls && rng.Intn(5) == 0 {
				v = value.Null
			}
			if err := col.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		return col
	}
	type colCase struct {
		name string
		col  *table.Column
	}
	var cases []colCase
	for _, nulls := range []bool{false, true} {
		tag := fmt.Sprintf("nulls=%v", nulls)
		cases = append(cases,
			colCase{"int/" + tag, build(value.KindInt64, nulls, func(i int) value.Value { return value.NewInt(ints[(i/3)%len(ints)]) })},
			colCase{"float/" + tag, build(value.KindFloat64, nulls, func(i int) value.Value { return value.NewFloat(floats[(i/3)%len(floats)]) })},
			colCase{"string/" + tag, build(value.KindString, nulls, func(i int) value.Value { return value.NewString(strs[(i/3)%len(strs)]) })},
		)
	}

	for _, cc := range cases {
		kind := cc.col.Kind()
		encs := []uint8{PageEncPlain, PageEncRLE, PageEncDict}
		var dict *SharedDict
		if kind == value.KindString {
			dict = &SharedDict{Col: "c", Epoch: dictEpochFirst}
			for _, s := range strs {
				dict.Add(s)
			}
			encs = append(encs, PageEncDictShared)
		}
		for _, enc := range encs {
			what := cc.name + "/" + encodingName(enc)
			ctx := pageCtx{col: "c", dict: dict}
			page := encodePage(cc.col, enc, dict)
			dec, err := pageColumn(page, kind, ctx)
			if err != nil {
				t.Fatalf("%s: decode: %v", what, err)
			}
			lazy, err := parsePageEncoded(page, kind, ctx)
			if err != nil {
				t.Fatalf("%s: parse: %v", what, err)
			}
			if fixed := kind != value.KindString; enc == PageEncPlain && (lazy.raw != nil) != fixed {
				t.Fatalf("%s: plain page lazy=%v, want %v", what, lazy.raw != nil, fixed)
			}
			views := map[string]*EncodedColumn{"lazy": lazy, "eager": encodedFromColumn(dec)}
			for vname, ec := range views {
				for _, cv := range consts {
					for _, op := range diffOps {
						pre := make([]bool, rows)
						for i := range pre {
							pre[i] = rng.Intn(4) != 0
						}
						got := append([]bool(nil), pre...)
						ec.AndMatches(op, cv, got)
						for r := 0; r < rows; r++ {
							if want := pre[r] && opHolds(op, cc.col.Value(r), cv); got[r] != want {
								t.Fatalf("%s %s: row %d (%v %v %v) = %v, want %v",
									what, vname, r, cc.col.Value(r), op, cv, got[r], want)
							}
						}
						checkMorsels(t, ec, op, cv, pre, got, rng, what+" "+vname)
					}
				}
				var sel []int
				for r := 0; r < rows; r++ {
					if rng.Intn(3) == 0 {
						sel = append(sel, r)
					}
				}
				for _, sel := range [][]int{nil, {}, sel, allRows(rows)} {
					got, err := ec.MaterializeRows(sel)
					if err != nil {
						t.Fatalf("%s %s: materialize rows: %v", what, vname, err)
					}
					colEq(t, cc.col.Gather(sel), got, what+" "+vname+" selected rows")
				}
				full, err := ec.Materialize()
				if err != nil {
					t.Fatalf("%s %s: materialize: %v", what, vname, err)
				}
				colEq(t, cc.col, full, what+" "+vname+" materialize")
			}
		}
	}
}

// checkMorsels requires the page's verdicts to come out the same when
// its rows are tested as two morsels split at a random row, as the
// pre-filter's work group tests them.
func checkMorsels(t *testing.T, ec *EncodedColumn, op value.BinOp, cv value.Value, pre, want []bool, rng *rand.Rand, what string) {
	t.Helper()
	got := append([]bool(nil), pre...)
	and, k := ec.matcher(op, cv), rng.Intn(len(got)+1)
	and(0, got[:k])
	and(k, got[k:])
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %v %v split at row %d differs from the whole page", what, op, cv, k)
	}
}

func allRows(n int) []int {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// buildDiffDataset appends batches sized to hit every encoder
// threshold — and one whose pages the pre-filter tests in several row
// morsels — flushing between them (one segment per batch, so v3
// shared-dict pages appear and the dictionary grows across flushes) and
// leaving the last batch in the unflushed tail. Returns the
// concatenated whole for the in-memory oracle.
func buildDiffDataset(t *testing.T, eng *Engine, rng *rand.Rand) *table.Table {
	t.Helper()
	var next int64
	batches := []int{63, 80, 64, 130, 40000, 5}
	var parts []*table.Table
	for i, n := range batches {
		p := genDiffTable(rng, n, &next)
		parts = append(parts, p)
		if err := eng.Append("d", p); err != nil {
			t.Fatal(err)
		}
		if i < len(batches)-1 {
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	whole, err := parts[0].Concat(parts[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	return whole
}

func diffPreds() []expr.Expr {
	nullConst := &expr.Const{Val: value.Null}
	return []expr.Expr{
		expr.Eq(expr.Column("tier"), expr.CStr("gold")),
		expr.Ne(expr.Column("tier"), expr.CStr("iron")),
		expr.Lt(expr.Column("tier"), expr.CStr("gold")), // NULL sorts first: NULL rows match
		expr.Ge(expr.Column("tier"), nullConst),         // everything matches
		expr.Gt(expr.Column("bucket"), expr.CInt(3)),
		expr.Le(expr.Column("bucket"), expr.CInt(1)),
		expr.Eq(expr.Column("bucket"), expr.CFloat(2)), // cross-kind numeric
		expr.Lt(expr.Column("score"), expr.CFloat(2.0)),
		expr.Gt(expr.Column("score"), nullConst),
		expr.Gt(expr.Column("id"), expr.CInt(200)), // zone-prunes early segments
		expr.Eq(expr.Column("flag"), expr.CBool(true)),
		expr.And(
			expr.Eq(expr.Column("tier"), expr.CStr("silver")),
			expr.Gt(expr.Column("bucket"), expr.CInt(2))),
		expr.And(
			expr.Ge(expr.Column("id"), expr.CInt(64)),
			expr.And(
				expr.Lt(expr.Column("id"), expr.CInt(208)),
				expr.Ne(expr.Column("tier"), nullConst))),
		// Not an exact conjunction: the encoded pre-filter may only use
		// the captured half, the residual must still re-run.
		expr.And(
			expr.Gt(expr.Column("bucket"), expr.CInt(1)),
			expr.Or(
				expr.Eq(expr.Column("tier"), expr.CStr("gold")),
				expr.Lt(expr.Column("score"), expr.CFloat(1.0)))),
	}
}

// TestEncodedScanDifferential holds filtered+projected cold scans (the
// encoded pre-filter) byte-identical to the in-memory relational engine.
func TestEncodedScanDifferential(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(11))
	whole := buildDiffDataset(t, eng, rng)
	mem := relational.New("mem")
	if err := mem.Store("d", whole); err != nil {
		t.Fatal(err)
	}

	projections := [][]string{
		{"id", "tier"},
		{"tier", "score", "bucket"},
		{"wide"},
		nil, // full width
	}
	for pi, pred := range diffPreds() {
		for ci, cols := range projections {
			mkPlan := func() core.Node {
				sc, _ := core.NewScan("d", whole.Schema())
				f, err := core.NewFilter(sc, pred)
				if err != nil {
					t.Fatal(err)
				}
				if cols == nil {
					return f
				}
				p, err := core.NewProject(f, cols)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			want, err := mem.Execute(mkPlan())
			if err != nil {
				t.Fatalf("pred %d proj %d: mem: %v", pi, ci, err)
			}
			eng.DropCache()
			got, err := eng.Execute(mkPlan())
			if err != nil {
				t.Fatalf("pred %d proj %d: disk: %v", pi, ci, err)
			}
			if !table.EqualRows(want, got) {
				t.Fatalf("pred %d proj %d: cold scan differs from memory oracle", pi, ci)
			}
		}
	}
	if eng.EncodedScans() == 0 {
		t.Fatal("encoded pre-filter never served a segment — the differential ran vacuously")
	}
}

// TestEncodedAggDifferential holds grouped aggregations over cold scans
// byte-identical to the in-memory engine, whether the encoded fold or
// the generic runtime serves them — global and keyed, filtered and not, every
// aggregate function, keys on dict, RLE and plain columns.
func TestEncodedAggDifferential(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(13))
	whole := buildDiffDataset(t, eng, rng)
	mem := relational.New("mem")
	if err := mem.Store("d", whole); err != nil {
		t.Fatal(err)
	}

	aggSets := [][]core.AggSpec{
		{{Func: core.AggCount, As: "n"}},
		{
			{Func: core.AggCount, As: "n"},
			{Func: core.AggSum, Arg: expr.Column("bucket"), As: "sb"},
			{Func: core.AggSum, Arg: expr.Column("score"), As: "ss"},
			{Func: core.AggAvg, Arg: expr.Column("score"), As: "avg"},
		},
		{
			{Func: core.AggMin, Arg: expr.Column("tier"), As: "lo"},
			{Func: core.AggMax, Arg: expr.Column("wide"), As: "hi"},
			{Func: core.AggCountDistinct, Arg: expr.Column("tier"), As: "dt"},
			{Func: core.AggCount, Arg: expr.Column("score"), As: "ns"},
		},
	}
	keySets := [][]string{nil, {"tier"}, {"bucket"}, {"id"}}
	filters := []expr.Expr{
		nil,
		expr.Gt(expr.Column("bucket"), expr.CInt(2)),
		expr.And(
			expr.Ne(expr.Column("tier"), expr.CStr("iron")),
			expr.Lt(expr.Column("id"), expr.CInt(250))),
		expr.Eq(expr.Column("tier"), expr.CStr("no-such-tier")), // empty result
	}

	for ki, keys := range keySets {
		for ai, aggs := range aggSets {
			for fi, pred := range filters {
				mkPlan := func() core.Node {
					sc, _ := core.NewScan("d", whole.Schema())
					var child core.Node = sc
					if pred != nil {
						f, err := core.NewFilter(child, pred)
						if err != nil {
							t.Fatal(err)
						}
						child = f
					}
					g, err := core.NewGroupAgg(child, keys, aggs)
					if err != nil {
						t.Fatal(err)
					}
					return g
				}
				want, err := mem.Execute(mkPlan())
				if err != nil {
					t.Fatalf("keys %d aggs %d filter %d: mem: %v", ki, ai, fi, err)
				}
				eng.DropCache()
				got, err := eng.Execute(mkPlan())
				if err != nil {
					t.Fatalf("keys %d aggs %d filter %d: disk: %v", ki, ai, fi, err)
				}
				if !table.EqualRows(want, got) {
					t.Fatalf("keys %d aggs %d filter %d: cold aggregate differs from memory oracle", ki, ai, fi)
				}
			}
		}
	}
	if eng.EncodedAggs() == 0 {
		t.Fatal("encoded aggregate kernel never served — the differential ran vacuously")
	}
}

// TestEncodedAggDifferentialRemap holds the encoded fold's per-part
// grouping byte-identical to the in-memory engine on data built to
// break it: an int64 key under per-page dictionary codes that differ
// between segments (each segment meets the keys in another order), a
// key that survives the filter first in a later segment and one that
// exists only in the unflushed tail, a key on RLE pages whose values
// recur across runs, float sums over a plain page with NULLs and over
// RLE runs with NULL runs, and an int64 sum over a dictionary page.
func TestEncodedAggDifferentialRemap(t *testing.T) {
	sch := schema.New(
		schema.Attribute{Name: "k", Kind: value.KindInt64},   // dict, codes differ per segment
		schema.Attribute{Name: "f", Kind: value.KindInt64},   // filter column: plain
		schema.Attribute{Name: "x", Kind: value.KindFloat64}, // plain floats with NULLs
		schema.Attribute{Name: "r", Kind: value.KindFloat64}, // RLE floats with NULL runs
		schema.Attribute{Name: "q", Kind: value.KindInt64},   // dict ints with NULLs
		schema.Attribute{Name: "b", Kind: value.KindInt64},   // RLE, values recur across runs
	)
	wantEnc := []uint8{PageEncDict, PageEncPlain, PageEncPlain, PageEncRLE, PageEncDict, PageEncRLE}
	eng, err := OpenEngine("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(29))
	gen := func(seg, rows int, keys []int64) *table.Table {
		b := table.NewBuilder(sch, rows)
		rv := value.Value(value.Null)
		for i := 0; i < rows; i++ {
			k := keys[rng.Intn(len(keys))]
			if i < len(keys) {
				k = keys[i] // first occurrences in this segment's order
			}
			f := int64(rng.Intn(900))
			if seg == 0 && k == 7 {
				f = 900 + int64(rng.Intn(100)) // key 7 never passes `f < 900` in segment 0
			}
			x, q := value.Value(value.Null), value.Value(value.Null)
			if rng.Intn(6) != 0 {
				x = value.NewFloat(rng.Float64() * 100)
			}
			if rng.Intn(6) != 0 {
				q = value.NewInt(int64(1 + rng.Intn(10)))
			}
			if i%20 == 0 {
				rv = value.Null
				if rng.Intn(4) != 0 {
					rv = value.NewFloat(rng.Float64() * 10)
				}
			}
			b.MustAppend(value.NewInt(k), value.NewInt(f), x, rv, q, value.NewInt(int64(i/25%3)))
		}
		return b.Build()
	}
	segKeys := [][]int64{{3, 1, 2, 7}, {2, 7, 3, 1}, {7, 1, 2, 3}, {1, 3, 2}}
	var parts []*table.Table
	for s, keys := range segKeys {
		p := gen(s, 400, keys)
		for c, want := range wantEnc {
			if got := choosePageEncoding(p.Col(c)); got != want {
				t.Fatalf("segment %d column %q encodes as %s, the test needs %s", s, sch.At(c).Name, encodingName(got), encodingName(want))
			}
		}
		parts = append(parts, p)
	}
	parts = append(parts, gen(len(segKeys), 50, []int64{8, 1, 8}))
	for i, p := range parts {
		if err := eng.Append("d", p); err != nil {
			t.Fatal(err)
		}
		if i < len(segKeys) {
			if err := eng.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	whole, err := parts[0].Concat(parts[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	mem := relational.New("mem")
	if err := mem.Store("d", whole); err != nil {
		t.Fatal(err)
	}

	aggs := []core.AggSpec{
		{Func: core.AggCount, As: "n"},
		{Func: core.AggSum, Arg: expr.Column("x"), As: "sx"},
		{Func: core.AggAvg, Arg: expr.Column("x"), As: "ax"},
		{Func: core.AggSum, Arg: expr.Column("r"), As: "sr"},
		{Func: core.AggAvg, Arg: expr.Column("r"), As: "ar"},
		{Func: core.AggSum, Arg: expr.Column("q"), As: "sq"},
		{Func: core.AggAvg, Arg: expr.Column("q"), As: "aq"},
		{Func: core.AggCount, Arg: expr.Column("x"), As: "nx"},
		{Func: core.AggCount, Arg: expr.Column("r"), As: "nr"},
		{Func: core.AggMin, Arg: expr.Column("r"), As: "lo"},
		{Func: core.AggMax, Arg: expr.Column("q"), As: "hi"},
	}
	filters := []expr.Expr{
		nil,
		expr.Lt(expr.Column("f"), expr.CInt(900)),
		expr.And(expr.Lt(expr.Column("f"), expr.CInt(900)), expr.Gt(expr.Column("q"), expr.CInt(3))),
		expr.Gt(expr.Column("r"), expr.CFloat(4)),
	}
	for _, keys := range [][]string{nil, {"k"}, {"b"}, {"q"}, {"x"}} {
		for fi, pred := range filters {
			mkPlan := func() core.Node {
				var n core.Node
				n, _ = core.NewScan("d", sch)
				if pred != nil {
					if n, err = core.NewFilter(n, pred); err != nil {
						t.Fatal(err)
					}
				}
				if n, err = core.NewGroupAgg(n, keys, aggs); err != nil {
					t.Fatal(err)
				}
				return n
			}
			want, err := mem.Execute(mkPlan())
			if err != nil {
				t.Fatalf("keys %v filter %d: mem: %v", keys, fi, err)
			}
			eng.DropCache()
			served := eng.EncodedAggs()
			got, err := eng.Execute(mkPlan())
			if err != nil {
				t.Fatalf("keys %v filter %d: disk: %v", keys, fi, err)
			}
			if eng.EncodedAggs() == served {
				t.Fatalf("keys %v filter %d: the encoded kernel did not serve the plan", keys, fi)
			}
			if !bytes.Equal(wire.EncodeTable(want), wire.EncodeTable(got)) {
				t.Fatalf("keys %v filter %d: cold aggregate differs from memory oracle\nwant %v\ngot  %v", keys, fi, want, got)
			}
		}
	}
}

// TestParallelReadMatchesSingleWorker runs the engine's three read
// paths — filtered scan (accessTable), grouped aggregate (aggTable) and
// whole-dataset load — with one worker and with several, and requires
// the encoded results to be byte-identical: same rows in the same
// order, groups in first-occurrence order, float sums bit for bit.
func TestParallelReadMatchesSingleWorker(t *testing.T) {
	eng, err := OpenEngine("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	whole := buildDiffDataset(t, eng, rand.New(rand.NewSource(23)))

	var plans []core.Node
	scan := func() core.Node {
		sc, _ := core.NewScan("d", whole.Schema())
		return sc
	}
	plans = append(plans, scan())
	for _, pred := range diffPreds() {
		f, err := core.NewFilter(scan(), pred)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProject(f, []string{"id", "tier", "score"})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, f, p)
	}
	aggs := []core.AggSpec{
		{Func: core.AggCount, As: "n"},
		{Func: core.AggSum, Arg: expr.Column("score"), As: "ss"},
		{Func: core.AggAvg, Arg: expr.Column("score"), As: "avg"},
		{Func: core.AggMax, Arg: expr.Column("wide"), As: "hi"},
	}
	for _, keys := range [][]string{nil, {"tier"}, {"bucket"}, {"score"}} {
		f, err := core.NewFilter(scan(), expr.Gt(expr.Column("bucket"), expr.CInt(1)))
		if err != nil {
			t.Fatal(err)
		}
		g, err := core.NewGroupAgg(f, keys, aggs)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, g)
	}

	run := func(procs int) [][]byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make([][]byte, len(plans))
		for i, plan := range plans {
			eng.DropCache()
			res, err := eng.Execute(plan)
			if err != nil {
				t.Fatalf("plan %d with %d workers: %v", i, procs, err)
			}
			out[i] = wire.EncodeTable(res)
		}
		return out
	}
	single := run(1)
	for _, procs := range []int{2, 4, 16} {
		for i, got := range run(procs) {
			if !bytes.Equal(single[i], got) {
				t.Fatalf("plan %d: result with %d workers differs from the single-worker result", i, procs)
			}
		}
	}
	if eng.EncodedScans() == 0 || eng.EncodedAggs() == 0 {
		t.Fatal("the encoded scan or aggregate path never ran — the comparison is vacuous")
	}
}

// TestEncodedReadV1Fallback pins the encoded read's v1 path: a legacy
// segment has no pages to stay encoded in, so it decodes whole and
// wraps — and must still answer identically.
func TestEncodedReadV1Fallback(t *testing.T) {
	tbl := rowsTable(0, 50)
	positions := []int{2, 0}
	es, err := readSegmentEncoded(bytes.NewReader(encodeSegmentV1(tbl)), positions, nil, newWorkGroup())
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.Project(positions)
	for i, ec := range es.Cols {
		mat, err := ec.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		colEq(t, want.Col(i), mat, "v1 fallback col")
	}
}
