// Benchmarks regenerating every experiment of internal/experiments (one
// bench family per experiment id), plus micro-benchmarks of the engine kernels
// the experiments rest on. Run with:
//
//	go test -bench=. -benchmem
package nexus_test

import (
	"context"
	"fmt"
	"testing"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/array"
	"nexus/internal/engines/exec"
	"nexus/internal/engines/graph"
	"nexus/internal/engines/linalg"
	"nexus/internal/engines/relational"
	"nexus/internal/experiments"
	"nexus/internal/expr"
	"nexus/internal/federation"
	"nexus/internal/planner"
	"nexus/internal/provider"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// --- E1: coverage (plan building + classification + verification) -------

func BenchmarkE1Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E1Coverage(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: translatability matrix -----------------------------------------

func BenchmarkE2Translate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2Translatability(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: intent preservation --------------------------------------------

func BenchmarkE3IntentMatMul(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		rel := relational.New("rel")
		la := linalg.New("la")
		a := datagen.Matrix(int64(n), n, n, "i", "k")
		bm := datagen.Matrix(int64(n)+1, n, n, "k", "j")
		for _, eng := range []provider.Provider{rel, la} {
			if err := eng.Store("A", a); err != nil {
				b.Fatal(err)
			}
			if err := eng.Store("B", bm); err != nil {
				b.Fatal(err)
			}
		}
		joinAgg := func() core.Node {
			as, _ := core.NewScan("A", a.Schema().DropDims())
			bs, _ := core.NewScan("B", bm.Schema().DropDims())
			j, _ := core.NewJoin(as, bs, core.JoinInner, []string{"k"}, []string{"k"}, nil)
			ga, err := core.NewGroupAgg(j, []string{"i", "j"}, []core.AggSpec{
				{Func: core.AggSum, Arg: expr.Mul(expr.Column("v"), expr.Column("v_r")), As: "c"},
			})
			if err != nil {
				b.Fatal(err)
			}
			return ga
		}
		b.Run(fmt.Sprintf("JoinAgg/n=%d", n), func(b *testing.B) {
			plan := joinAgg()
			for i := 0; i < b.N; i++ {
				if _, err := rel.Execute(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Recognized/n=%d", n), func(b *testing.B) {
			plan, err := planner.Optimize(joinAgg(), planner.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := la.Execute(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: server interoperation --------------------------------------------

func BenchmarkE4Interop(b *testing.B) {
	const rows = 50000
	siteA := relational.New("siteA")
	if err := siteA.Store("sales", datagen.Sales(1, rows, rows/10, 50)); err != nil {
		b.Fatal(err)
	}
	siteB := relational.New("siteB")
	if err := siteB.Store("customers", datagen.Customers(2, rows/10)); err != nil {
		b.Fatal(err)
	}
	reg := provider.NewRegistry()
	if err := reg.Add(siteA); err != nil {
		b.Fatal(err)
	}
	if err := reg.Add(siteB); err != nil {
		b.Fatal(err)
	}
	sales, _ := core.NewScan("sales", datagen.SalesSchema())
	cust, _ := core.NewScan("customers", datagen.CustomersSchema())
	f, _ := core.NewFilter(sales, expr.Gt(expr.Column("qty"), expr.CInt(3)))
	j, _ := core.NewJoin(cust, f, core.JoinInner, []string{"cust_id"}, []string{"cust_id"}, nil)
	ga, err := core.NewGroupAgg(j, []string{"segment"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
	})
	if err != nil {
		b.Fatal(err)
	}
	opt, err := planner.Optimize(ga, planner.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	pp, err := planner.Partition(opt, reg, planner.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	trA, trB := federation.NewInProc(siteA), federation.NewInProc(siteB)
	defer trA.Close()
	defer trB.Close()
	coord := federation.NewCoordinator(trA, trB)
	for _, mode := range []federation.Mode{federation.ModeDirect, federation.ModeRouted} {
		b.Run(mode.String(), func(b *testing.B) {
			var via int64
			for i := 0; i < b.N; i++ {
				_, m, err := coord.Run(pp, mode)
				if err != nil {
					b.Fatal(err)
				}
				via = m.IntermediateViaClient
			}
			b.ReportMetric(float64(via), "intermediate-bytes-via-client")
		})
	}
}

// --- E5: control iteration ------------------------------------------------

func BenchmarkE5Iterate(b *testing.B) {
	const (
		n, m, iters = 2000, 10000, 10
		damping     = 0.85
	)
	edges := datagen.ZipfGraph(3, n, m)
	plan, err := graph.PageRankPlan("edges", datagen.EdgeSchema(), "vertices", graph.VerticesSchema(), n, damping, iters, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("InEngineGeneric", func(b *testing.B) {
		rel := relational.New("rel")
		if err := rel.Store("edges", edges); err != nil {
			b.Fatal(err)
		}
		if err := rel.Store("vertices", graph.VerticesTable(n)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rel.Execute(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NativeKernel", func(b *testing.B) {
		gr := graph.New("gr")
		if err := gr.Store("edges", edges); err != nil {
			b.Fatal(err)
		}
		if err := gr.Store("vertices", graph.VerticesTable(n)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gr.Execute(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E6: portability --------------------------------------------------------

func BenchmarkE6Portability(b *testing.B) {
	sales := datagen.Sales(4, 20000, 500, 50)
	plan := func() core.Node {
		s, _ := core.NewScan("sales", sales.Schema())
		ga, err := core.NewGroupAgg(s, []string{"region"}, []core.AggSpec{
			{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
		})
		if err != nil {
			b.Fatal(err)
		}
		return ga
	}()
	engines := map[string]provider.Provider{
		"Relational": relational.New("r"),
		"Array":      array.New("a"),
	}
	for name, eng := range engines {
		if err := eng.Store("sales", sales); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7: expression-tree shipping -------------------------------------------

func BenchmarkE7Shipping(b *testing.B) {
	for _, depth := range []int{4, 16} {
		b.Run(fmt.Sprintf("Tree/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.E7Shipping([]int{depth}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: optimizer ablation ---------------------------------------------------

func BenchmarkE8Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Ablation(20000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine micro-benchmarks (the kernels the experiments stand on) ---------

func BenchmarkHashJoin(b *testing.B) {
	for _, rows := range []int{10000, 100000} {
		sales := datagen.Sales(5, rows, rows/10, 50)
		cust := datagen.Customers(6, rows/10)
		sc, _ := core.NewScan("sales", sales.Schema())
		cc, _ := core.NewScan("customers", cust.Schema())
		j, err := core.NewJoin(sc, cc, core.JoinInner, []string{"cust_id"}, []string{"cust_id"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		rt := &exec.Runtime{Datasets: func(n string) (*table.Table, bool) {
			switch n {
			case "sales":
				return sales, true
			case "customers":
				return cust, true
			}
			return nil, false
		}}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rt.Run(j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHashAggregate(b *testing.B) {
	sales := datagen.Sales(7, 100000, 1000, 100)
	sc, _ := core.NewScan("sales", sales.Schema())
	ga, err := core.NewGroupAgg(sc, []string{"cust_id"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
		{Func: core.AggCount, As: "n"},
	})
	if err != nil {
		b.Fatal(err)
	}
	rt := &exec.Runtime{Datasets: func(string) (*table.Table, bool) { return sales, true }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(ga); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterVectorized measures a compound predicate through the
// vectorized selection path: two comparisons and a conjunction per row,
// with one gather for the surviving rows.
func BenchmarkFilterVectorized(b *testing.B) {
	for _, rows := range []int{100000, 1000000} {
		sales := datagen.Sales(21, rows, rows/10, 50)
		sc, _ := core.NewScan("sales", sales.Schema())
		f, err := core.NewFilter(sc, expr.And(
			expr.Gt(expr.Column("qty"), expr.CInt(3)),
			expr.Lt(expr.Column("price"), expr.CFloat(40)),
		))
		if err != nil {
			b.Fatal(err)
		}
		rt := &exec.Runtime{Datasets: func(string) (*table.Table, bool) { return sales, true }}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := rt.Run(f)
				if err != nil {
					b.Fatal(err)
				}
				if out.NumRows() == 0 {
					b.Fatal("empty filter result")
				}
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkExtendParallel measures computed-column evaluation through the
// morsel pool (Parallelism 0 = one worker per CPU).
func BenchmarkExtendParallel(b *testing.B) {
	const rows = 1000000
	sales := datagen.Sales(22, rows, rows/10, 50)
	sc, _ := core.NewScan("sales", sales.Schema())
	e, err := core.NewExtend(sc, []core.ColDef{
		{Name: "notional", E: expr.Mul(expr.Column("price"), expr.Column("qty"))},
		{Name: "rebate", E: expr.Mul(expr.Sub(expr.Column("price"), expr.CFloat(1)), expr.CFloat(0.05))},
	})
	if err != nil {
		b.Fatal(err)
	}
	rt := &exec.Runtime{Datasets: func(string) (*table.Table, bool) { return sales, true }}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Run(e); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkMatMulKernel(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		da, err := array.FromTable(datagen.Matrix(8, n, n, "i", "k"))
		if err != nil {
			b.Fatal(err)
		}
		db, err := array.FromTable(datagen.Matrix(9, n, n, "k", "j"))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := linalg.MatMulDense(da, db, "v"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDenseWindow(b *testing.B) {
	grid := datagen.Grid(10, 256, 256)
	ae := array.New("a")
	if err := ae.Store("grid", grid); err != nil {
		b.Fatal(err)
	}
	sc, _ := core.NewScan("grid", grid.Schema())
	w, err := core.NewWindow(sc, []core.DimExtent{
		{Dim: "x", Before: 1, After: 1}, {Dim: "y", Before: 1, After: 1},
	}, core.AggSum, "v", "s")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ae.Execute(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRankKernel(b *testing.B) {
	edges := datagen.ZipfGraph(11, 10000, 50000)
	csr, err := graph.BuildCSR(edges, 10000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.PageRankNative(csr, 0.85, 20, 0)
	}
}

func BenchmarkWireTableRoundTrip(b *testing.B) {
	sales := datagen.Sales(12, 50000, 1000, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := wire.EncodeTable(sales)
		if _, err := wire.DecodeTable(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWirePlanRoundTrip(b *testing.B) {
	plan, err := graph.PageRankPlan("edges", datagen.EdgeSchema(), "vertices", graph.VerticesSchema(), 1000, 0.85, 20, 1e-9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := wire.EncodePlan(plan)
		if _, err := wire.DecodePlan(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSurfaceCompile(b *testing.B) {
	s := nexus.NewSession()
	if _, err := s.AddEngine(nexus.Relational, "db"); err != nil {
		b.Fatal(err)
	}
	if err := s.Demo(); err != nil {
		b.Fatal(err)
	}
	const src = `load sales | where qty > 3 | join (load customers) on cust_id == cust_id | group by segment agg rev = sum(price*qty) | sort rev desc | limit 5`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Query(src).Err(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizer(b *testing.B) {
	sales := datagen.Sales(13, 100, 10, 5)
	cust := datagen.Customers(14, 10)
	sc, _ := core.NewScan("sales", sales.Schema())
	cc, _ := core.NewScan("customers", cust.Schema())
	j, _ := core.NewJoin(sc, cc, core.JoinInner, []string{"cust_id"}, []string{"cust_id"}, nil)
	f, _ := core.NewFilter(j, expr.And(
		expr.Gt(expr.Column("qty"), expr.CInt(2)),
		expr.Eq(expr.Column("segment"), expr.CStr("consumer")),
	))
	ga, err := core.NewGroupAgg(f, []string{"region"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.Optimize(ga, planner.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- data in motion: streaming micro-benchmarks ---------------------------

// streamSource synthesizes n trade events with event time i (so tumbling
// windows of w events per window size w).
func streamSource(b *testing.B, n int64) nexus.StreamSource {
	b.Helper()
	syms := []string{"AAA", "BBB", "CCC", "DDD"}
	src, err := nexus.GenerateSource("ts", n, func(i int64) []any {
		return []any{i, syms[i%4], i % 100, float64(i%50) + 0.5}
	},
		nexus.ColumnDef{Name: "ts", Type: nexus.Int64},
		nexus.ColumnDef{Name: "sym", Type: nexus.String},
		nexus.ColumnDef{Name: "vol", Type: nexus.Int64},
		nexus.ColumnDef{Name: "price", Type: nexus.Float64},
	)
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// BenchmarkStreamThroughput measures end-to-end rows/s of a windowed
// per-symbol aggregation over a generated event stream.
func BenchmarkStreamThroughput(b *testing.B) {
	const n = 100_000
	s := nexus.NewSession()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := s.StreamFrom(streamSource(b, n)).
			Window(nexus.Tumbling(10_000)).
			GroupBy("sym").
			Agg(nexus.Sum("notional", nexus.Mul(nexus.Col("price"), nexus.Col("vol"))), nexus.Count("trades")).
			Collect(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() != 40 { // 10 windows x 4 symbols
			b.Fatalf("rows = %d", res.NumRows())
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStreamStateless measures the micro-batch pipeline without
// windows: filter + computed column, emitted batch by batch.
func BenchmarkStreamStateless(b *testing.B) {
	const n = 100_000
	s := nexus.NewSession()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var rows int
		_, err := s.StreamFrom(streamSource(b, n)).
			Where(nexus.Gt(nexus.Col("vol"), nexus.Int(50))).
			Extend("notional", nexus.Mul(nexus.Col("price"), nexus.Col("vol"))).
			Subscribe(context.Background(), func(t *nexus.Table) error {
				rows += t.NumRows()
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		if rows == 0 {
			b.Fatal("no rows emitted")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkStreamSlidingWindows stresses multi-window assignment: each
// event lands in four overlapping sliding windows.
func BenchmarkStreamSlidingWindows(b *testing.B) {
	const n = 50_000
	s := nexus.NewSession()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := s.StreamFrom(streamSource(b, n)).
			Window(nexus.Sliding(4_000, 1_000)).
			GroupBy("sym").
			Agg(nexus.Avg("avg_price", nexus.Col("price"))).
			Collect(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
