package storage

import (
	"math/rand"
	"testing"

	"nexus/internal/core"
	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// The per-page and per-scan costs of the cold read path, reproducible
// without the repository benchmark:
//
//	go test -run '^$' -bench 'PageParse|ColdScan|ColdAgg' -benchmem ./internal/storage
//
// Pages are the size the repository benchmark's cold_selective workload
// reads (125,000 rows).

const benchPageRows = 125_000

var benchSink int

// benchPage encodes one column and checks the writer picked enc.
func benchPage(b *testing.B, col *table.Column, enc uint8) []byte {
	b.Helper()
	if got := choosePageEncoding(col); got != enc {
		b.Fatalf("writer chose %s, benchmark wants %s", encodingName(got), encodingName(enc))
	}
	return encodePage(col, enc, nil)
}

// benchPageSteps times the three things a scan does to a page: parse
// (CRC, framing, bounds), filter one conjunct keeping ~2 % of rows, and
// materialize the survivors.
func benchPageSteps(b *testing.B, page []byte, op value.BinOp, cv value.Value) {
	ec, err := parsePageEncoded(page, value.KindInt64, pageCtx{})
	if err != nil {
		b.Fatal(err)
	}
	match := make([]bool, ec.Rows())
	filter := func() {
		for i := range match {
			match[i] = true
		}
		ec.AndMatches(op, cv, match)
	}
	filter()
	var sel []int
	for r, m := range match {
		if m {
			sel = append(sel, r)
		}
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(page)))
		for i := 0; i < b.N; i++ {
			ec, err := parsePageEncoded(page, value.KindInt64, pageCtx{})
			if err != nil {
				b.Fatal(err)
			}
			benchSink += ec.Rows()
		}
	})
	b.Run("filter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			filter()
		}
	})
	b.Run("materialize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			col, err := ec.MaterializeRows(sel)
			if err != nil {
				b.Fatal(err)
			}
			benchSink += col.Len()
		}
	})
}

func BenchmarkPageParsePlain(b *testing.B) {
	vals := make([]int64, benchPageRows)
	for i := range vals {
		vals[i] = int64(i)
	}
	page := benchPage(b, table.IntColumn(vals), PageEncPlain)
	benchPageSteps(b, page, value.OpLt, value.NewInt(benchPageRows/50))
}

func BenchmarkPageParseDict(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, benchPageRows)
	for i := range vals {
		vals[i] = int64(rng.Intn(50))
	}
	page := benchPage(b, table.IntColumn(vals), PageEncDict)
	benchPageSteps(b, page, value.OpEq, value.NewInt(7))
}

// benchSales opens an engine holding segments segments of segRows
// random sales rows each (the repository benchmark's fact table shape,
// unclustered), one flush per segment.
func benchSales(b *testing.B, segments, segRows int) (*Engine, schema.Schema) {
	sch := schema.New(
		schema.Attribute{Name: "id", Kind: value.KindInt64},
		schema.Attribute{Name: "cust", Kind: value.KindInt64}, // never read: the scan is projected
		schema.Attribute{Name: "qty", Kind: value.KindInt64},
		schema.Attribute{Name: "price", Kind: value.KindFloat64},
		schema.Attribute{Name: "region", Kind: value.KindString},
	)
	eng, err := OpenEngine("bench", b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { eng.Close() })
	rng := rand.New(rand.NewSource(1))
	regions := []string{"EU", "NA", "APAC", "LATAM", "MEA", "ANZ", "CEE", "DACH", "NORD", "SSA"}
	for s := 0; s < segments; s++ {
		ids, cust, qty := make([]int64, segRows), make([]int64, segRows), make([]int64, segRows)
		price, region := make([]float64, segRows), make([]string, segRows)
		for i := range ids {
			ids[i] = int64(s*segRows + i)
			cust[i] = int64(rng.Intn(5000))
			qty[i] = int64(1 + rng.Intn(10))
			price[i] = float64(400+rng.Intn(39600)) / 4
			region[i] = regions[rng.Intn(len(regions))]
		}
		t := table.MustNew(sch, []*table.Column{
			table.IntColumn(ids), table.IntColumn(cust), table.IntColumn(qty), table.FloatColumn(price), table.StringColumn(region)})
		if err := eng.Append("sales", t); err != nil {
			b.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	return eng, sch
}

// BenchmarkColdScanSelective is the repository benchmark's Q2 shape in
// miniature: four segments, caches dropped before every scan, two
// conjuncts over dictionary pages keeping ~2 % of rows, three columns
// materialized — two of them plain fixed-width pages that stay
// undecoded except for the survivors.
func BenchmarkColdScanSelective(b *testing.B) {
	eng, sch := benchSales(b, 4, 50_000)
	scan, _ := core.NewScan("sales", sch)
	filter, err := core.NewFilter(scan, expr.And(
		expr.Eq(expr.Column("region"), expr.CStr("APAC")),
		expr.Gt(expr.Column("qty"), expr.CInt(8))))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.NewProject(filter, []string{"id", "qty", "price"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.DropCache()
		out, err := eng.Execute(plan)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += out.NumRows()
	}
	if eng.EncodedScans() == 0 {
		b.Fatal("encoded pre-filter never served a segment")
	}
}

// BenchmarkColdAggGrouped is the repository benchmark's Q3 shape: four
// 125k-row segments, caches dropped before every query, `qty > 6`
// keeping ~40 % of rows, grouped by a shared-dictionary string column,
// a float sum over a plain page, an int sum over a dictionary page and
// count(*). The sub-benchmarks make the same call beneath 0, 64 and
// 512 extra bytes of caller frame: a fold whose speed depends on stack
// layout shows as a spread between them.
func BenchmarkColdAggGrouped(b *testing.B) {
	eng, sch := benchSales(b, 4, benchPageRows)
	scan, _ := core.NewScan("sales", sch)
	filter, err := core.NewFilter(scan, expr.Gt(expr.Column("qty"), expr.CInt(6)))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.NewGroupAgg(filter, []string{"region"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Column("price"), As: "revenue"},
		{Func: core.AggSum, Arg: expr.Column("qty"), As: "units"},
		{Func: core.AggCount, As: "n"},
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		eng.DropCache()
		out, err := eng.Execute(plan)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += out.NumRows()
	}
	for _, f := range []struct {
		name  string
		frame func(func())
	}{{"frame=0", frame0}, {"frame=64", frame64}, {"frame=512", frame512}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				f.frame(run)
			}
		})
	}
	if eng.EncodedAggs() == 0 {
		b.Fatal("encoded aggregate kernel never served the query")
	}
}

// frame0, frame64 and frame512 call f beneath that many extra bytes of
// their own stack frame.
//
//go:noinline
func frame0(f func()) { f() }

//go:noinline
func frame64(f func()) {
	var pad [64]byte
	keepFrame(pad[:])
	f()
}

//go:noinline
func frame512(f func()) {
	var pad [512]byte
	keepFrame(pad[:])
	f()
}

// keepFrame keeps a padding array live on its caller's stack.
//
//go:noinline
func keepFrame(pad []byte) { benchSink += len(pad) }
