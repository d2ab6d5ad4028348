package planner

import (
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/exec"
	"nexus/internal/engines/graph"
	"nexus/internal/engines/linalg"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/provider"
	"nexus/internal/table"
	"nexus/internal/value"
)

// testData builds a shared dataset map and a raw runtime to evaluate
// plans without capability checks — the semantics oracle for rewrites.
func testData() map[string]*table.Table {
	return map[string]*table.Table{
		"sales":     datagen.Sales(1, 2000, 50, 20),
		"customers": datagen.Customers(2, 50),
		"products":  datagen.Products(3, 20),
		"A":         datagen.Matrix(4, 20, 15, "i", "k"),
		"B":         datagen.Matrix(5, 15, 18, "k", "j"),
	}
}

func rawRun(t *testing.T, ds map[string]*table.Table, plan core.Node) *table.Table {
	t.Helper()
	rt := &exec.Runtime{Datasets: func(n string) (*table.Table, bool) {
		tab, ok := ds[n]
		return tab, ok
	}}
	out, err := rt.Run(plan)
	if err != nil {
		t.Fatalf("raw run: %v", err)
	}
	return out
}

func scan(t *testing.T, ds map[string]*table.Table, name string) *core.Scan {
	t.Helper()
	s, err := core.NewScan(name, ds[name].Schema())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assertSameResults optimizes the plan under every option combination of
// interest and checks result equivalence against the unoptimized plan.
func assertSameResults(t *testing.T, ds map[string]*table.Table, plan core.Node, ordered bool) {
	t.Helper()
	want := rawRun(t, ds, plan)
	for _, opts := range []Options{
		{Fold: true},
		{Pushdown: true},
		{Prune: true},
		{PushLimit: true},
		{Fold: true, Pushdown: true, Prune: true, PushLimit: true},
		DefaultOptions(),
	} {
		opt, err := Optimize(plan, opts)
		if err != nil {
			t.Fatalf("optimize %+v: %v", opts, err)
		}
		got := rawRun(t, ds, opt)
		if ordered {
			if got.OrderedChecksum() != want.OrderedChecksum() {
				t.Fatalf("opts %+v changed ordered result\noriginal:\n%s\noptimized:\n%s", opts, core.Explain(plan), core.Explain(opt))
			}
		} else if !table.EqualUnordered(got, want) {
			t.Fatalf("opts %+v changed result\noriginal:\n%s\noptimized:\n%s", opts, core.Explain(plan), core.Explain(opt))
		}
	}
}

func TestPushdownThroughJoinPreservesSemantics(t *testing.T) {
	ds := testData()
	j, err := core.NewJoin(scan(t, ds, "sales"), scan(t, ds, "customers"),
		core.JoinInner, []string{"cust_id"}, []string{"cust_id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Conjuncts: one left-side, one right-side (suffixed), one mixed.
	pred := expr.AndAll(
		expr.Gt(expr.Column("qty"), expr.CInt(2)),
		expr.Eq(expr.Column("segment"), expr.CStr("consumer")),
		expr.Ne(expr.Column("region"), expr.Column("region_r")),
	)
	f, err := core.NewFilter(j, pred)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ds, f, false)

	// The pushdown must actually fire: after optimization some filter
	// sits below the join.
	opt, _ := Optimize(f, Options{Pushdown: true})
	foundBelow := false
	core.Walk(opt, func(n core.Node) bool {
		if jn, ok := n.(*core.Join); ok {
			for _, c := range jn.Children() {
				if _, isF := c.(*core.Filter); isF {
					foundBelow = true
				}
			}
		}
		return true
	})
	if !foundBelow {
		t.Fatalf("pushdown did not move filters below the join:\n%s", core.Explain(opt))
	}
}

func TestPushdownLeftJoinOnlyPushesLeft(t *testing.T) {
	ds := testData()
	j, err := core.NewJoin(scan(t, ds, "sales"), scan(t, ds, "customers"),
		core.JoinLeft, []string{"cust_id"}, []string{"cust_id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A right-side predicate over a left join cannot be pushed; row
	// counts must stay identical either way.
	pred := expr.AndAll(
		expr.Gt(expr.Column("qty"), expr.CInt(5)),
		expr.Eq(expr.Column("segment"), expr.CStr("corporate")),
	)
	f, err := core.NewFilter(j, pred)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ds, f, false)
}

func TestPushdownThroughGroupAggKeysOnly(t *testing.T) {
	ds := testData()
	ga, err := core.NewGroupAgg(scan(t, ds, "sales"), []string{"region", "cust_id"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
	})
	if err != nil {
		t.Fatal(err)
	}
	pred := expr.AndAll(
		expr.Eq(expr.Column("region"), expr.CStr("EU")), // key: pushable
		expr.Gt(expr.Column("rev"), expr.CFloat(100)),   // aggregate: not pushable
	)
	f, err := core.NewFilter(ga, pred)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, ds, f, false)

	opt, _ := Optimize(f, Options{Pushdown: true})
	// The region predicate must appear below the aggregate.
	pushed := false
	core.Walk(opt, func(n core.Node) bool {
		if g, ok := n.(*core.GroupAgg); ok {
			if _, isF := g.Children()[0].(*core.Filter); isF {
				pushed = true
			}
		}
		return true
	})
	if !pushed {
		t.Fatalf("key predicate not pushed below groupagg:\n%s", core.Explain(opt))
	}
}

func TestFoldRemovesTrueFilter(t *testing.T) {
	ds := testData()
	f, err := core.NewFilter(scan(t, ds, "sales"), expr.Or(expr.CBool(true), expr.Gt(expr.Column("qty"), expr.CInt(100))))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(f, Options{Fold: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, stillFilter := opt.(*core.Filter); stillFilter {
		t.Fatalf("tautological filter not removed:\n%s", core.Explain(opt))
	}
	assertSameResults(t, ds, f, false)
}

func TestPruneInsertsProjectAboveScan(t *testing.T) {
	ds := testData()
	ga, err := core.NewGroupAgg(scan(t, ds, "sales"), []string{"region"}, []core.AggSpec{
		{Func: core.AggCount, As: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(ga, Options{Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	narrowed := false
	core.Walk(opt, func(n core.Node) bool {
		if p, ok := n.(*core.Project); ok {
			if _, isScan := p.Children()[0].(*core.Scan); isScan && len(p.Cols) < ds["sales"].NumCols() {
				narrowed = true
			}
		}
		return true
	})
	if !narrowed {
		t.Fatalf("prune did not narrow the scan:\n%s", core.Explain(opt))
	}
	assertSameResults(t, ds, ga, false)
}

func TestPruneComplexPlanPreservesSemantics(t *testing.T) {
	ds := testData()
	j, _ := core.NewJoin(scan(t, ds, "sales"), scan(t, ds, "customers"),
		core.JoinInner, []string{"cust_id"}, []string{"cust_id"}, nil)
	ext, _ := core.NewExtend(j, []core.ColDef{
		{Name: "rev", E: expr.Mul(expr.Column("price"), expr.Column("qty"))},
		{Name: "unused", E: expr.Add(expr.Column("qty"), expr.CInt(1))},
	})
	ga, _ := core.NewGroupAgg(ext, []string{"segment"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Column("rev"), As: "total"},
	})
	s, _ := core.NewSort(ga, []core.SortSpec{{Col: "total", Desc: true}})
	assertSameResults(t, ds, s, true)
}

func TestMatMulIntentRecognized(t *testing.T) {
	ds := testData()
	// Matrix multiply in pure relational form.
	j, err := core.NewJoin(scan(t, ds, "A"), scan(t, ds, "B"),
		core.JoinInner, []string{"k"}, []string{"k"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := core.NewGroupAgg(j, []string{"i", "j"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("v"), expr.Column("v_r")), As: "c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(ga, Options{IntentMatMul: true})
	if err != nil {
		t.Fatal(err)
	}
	hasMM := false
	core.Walk(opt, func(n core.Node) bool {
		if n.Kind() == core.KMatMul {
			hasMM = true
		}
		return true
	})
	if !hasMM {
		t.Fatalf("matmul intent not recognized:\n%s", core.Explain(opt))
	}
	if !opt.Schema().Equal(ga.Schema()) {
		t.Fatalf("intent rewrite changed schema: %v vs %v", opt.Schema(), ga.Schema())
	}
	want := rawRun(t, ds, ga)
	got := rawRun(t, ds, opt)
	if !tablesApproxEqual(got, want) {
		t.Fatal("intent rewrite changed the result")
	}
}

// tablesApproxEqual compares (i, j, v) tables cell-wise with a small
// float tolerance (sparse and dense summation orders differ).
func tablesApproxEqual(a, b *table.Table) bool {
	if a.NumRows() != b.NumRows() {
		return false
	}
	am := map[[2]int64]float64{}
	for r := 0; r < a.NumRows(); r++ {
		i, _ := a.Value(r, 0).AsInt()
		j, _ := a.Value(r, 1).AsInt()
		v, _ := a.Value(r, 2).AsFloat()
		am[[2]int64{i, j}] = v
	}
	for r := 0; r < b.NumRows(); r++ {
		i, _ := b.Value(r, 0).AsInt()
		j, _ := b.Value(r, 1).AsInt()
		v, _ := b.Value(r, 2).AsFloat()
		d := am[[2]int64{i, j}] - v
		if d > 1e-9 || d < -1e-9 {
			return false
		}
	}
	return true
}

func TestMatMulIntentNotOverTriggered(t *testing.T) {
	ds := testData()
	// A join+sum that is NOT a matmul: aggregate is not a product of one
	// column per side.
	j, _ := core.NewJoin(scan(t, ds, "A"), scan(t, ds, "B"),
		core.JoinInner, []string{"k"}, []string{"k"}, nil)
	ga, _ := core.NewGroupAgg(j, []string{"i", "j"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Add(expr.Column("v"), expr.Column("v_r")), As: "c"},
	})
	opt, err := Optimize(ga, Options{IntentMatMul: true})
	if err != nil {
		t.Fatal(err)
	}
	core.Walk(opt, func(n core.Node) bool {
		if n.Kind() == core.KMatMul {
			t.Fatal("sum-of-sums misrecognized as matmul")
		}
		return true
	})
}

// registryWith builds a three-provider registry with data spread across
// engines.
func registryWith(t *testing.T, ds map[string]*table.Table) *provider.Registry {
	t.Helper()
	rel := relational.New("rel")
	la := linalg.New("la")
	gr := graph.New("gr")
	for _, name := range []string{"sales", "customers", "products"} {
		if err := rel.Store(name, ds[name]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"A", "B"} {
		if err := la.Store(name, ds[name]); err != nil {
			t.Fatal(err)
		}
	}
	reg := provider.NewRegistry()
	for _, p := range []provider.Provider{rel, la, gr} {
		if err := reg.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestPartitionSingleProviderPlan(t *testing.T) {
	ds := testData()
	reg := registryWith(t, ds)
	ga, _ := core.NewGroupAgg(scan(t, ds, "sales"), []string{"region"}, []core.AggSpec{
		{Func: core.AggCount, As: "n"},
	})
	pp, err := Partition(ga, reg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Fragments) != 1 {
		t.Fatalf("expected 1 fragment, got %d:\n%s", len(pp.Fragments), pp)
	}
	if pp.Root().Provider != "rel" {
		t.Fatalf("fragment placed on %s, want rel", pp.Root().Provider)
	}
}

func TestPartitionMatMulRoutesToLinalg(t *testing.T) {
	ds := testData()
	reg := registryWith(t, ds)
	a, _ := core.NewScan("A", ds["A"].Schema())
	b, _ := core.NewScan("B", ds["B"].Schema())
	mm, err := core.NewMatMul(a, b, "v")
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Partition(mm, reg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pp.Root().Provider != "la" {
		t.Fatalf("matmul placed on %s, want la:\n%s", pp.Root().Provider, pp)
	}
	if len(pp.Fragments) != 1 {
		t.Fatalf("A and B live on la; expected 1 fragment, got %d", len(pp.Fragments))
	}
}

func TestPartitionCrossProviderJoinShips(t *testing.T) {
	ds := testData()
	reg := registryWith(t, ds)
	// Join sales (rel) with matrix A (la): the planner must ship one side.
	a, _ := core.NewScan("A", ds["A"].Schema())
	dd, _ := core.NewDropDims(a)
	j, err := core.NewJoin(scan(t, ds, "sales"), dd,
		core.JoinInner, []string{"cust_id"}, []string{"i"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Partition(j, reg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Fragments) != 2 {
		t.Fatalf("expected 2 fragments, got %d:\n%s", len(pp.Fragments), pp)
	}
	root := pp.Root()
	if root.Provider != "rel" {
		t.Fatalf("join should run on rel (bigger side), got %s", root.Provider)
	}
	if len(root.Inputs) != 1 {
		t.Fatalf("root should have 1 ship edge, got %d", len(root.Inputs))
	}
	if !strings.HasPrefix(root.Inputs[0].StoreAs, "__ship_") {
		t.Fatalf("ship edge name %q", root.Inputs[0].StoreAs)
	}
}

func TestPartitionKernelPreference(t *testing.T) {
	ds := testData()
	reg := registryWith(t, ds)
	// Graph data lives on rel, but the graph engine advertises the
	// pagerank kernel — with IntentKernels the iterate must go to gr.
	edges := datagen.UniformGraph(9, 50, 200)
	rel, _ := reg.Get("rel")
	if err := rel.Store("edges", edges); err != nil {
		t.Fatal(err)
	}
	if err := rel.Store("vertices", graph.VerticesTable(50)); err != nil {
		t.Fatal(err)
	}
	plan, err := graph.PageRankPlan("edges", datagen.EdgeSchema(), "vertices", graph.VerticesSchema(), 50, 0.85, 30, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Partition(plan, reg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pp.Root().Provider != "gr" {
		t.Fatalf("pagerank placed on %s, want gr:\n%s", pp.Root().Provider, pp)
	}
	// Both datasets must be shipped in.
	if len(pp.Root().Inputs) != 2 {
		t.Fatalf("expected 2 dataset ship edges, got %d", len(pp.Root().Inputs))
	}

	// Without kernel preference it stays on rel with the data.
	pp2, err := Partition(plan, reg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pp2.Root().Provider != "rel" {
		t.Fatalf("without intent, pagerank placed on %s, want rel", pp2.Root().Provider)
	}
}

// Every intermediate is named by one per-partitioning random id: the
// atomic path ships datasets under such names and its scans read them,
// and a second partitioning of the same plan names its edges apart.
func TestShipNamesAreQueryScoped(t *testing.T) {
	ds := testData()
	reg := registryWith(t, ds)
	rel, _ := reg.Get("rel")
	if err := rel.Store("edges", datagen.UniformGraph(9, 50, 200)); err != nil {
		t.Fatal(err)
	}
	if err := rel.Store("vertices", graph.VerticesTable(50)); err != nil {
		t.Fatal(err)
	}
	plan, err := graph.PageRankPlan("edges", datagen.EdgeSchema(), "vertices", graph.VerticesSchema(), 50, 0.85, 30, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^__ship_([0-9a-f]{16})_[0-9]+$`)
	ids := map[string]bool{}
	for i := 0; i < 2; i++ {
		pp, err := Partition(plan, reg, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		root := pp.Root()
		var shipped []string
		for _, in := range root.Inputs {
			m := name.FindStringSubmatch(in.StoreAs)
			if m == nil {
				t.Fatalf("ship edge name %q is not query-scoped", in.StoreAs)
			}
			ids[m[1]] = true
			shipped = append(shipped, in.StoreAs)
		}
		sort.Strings(shipped)
		if got := core.DatasetNames(root.Plan); !reflect.DeepEqual(got, shipped) {
			t.Fatalf("iterate scans %v, want the shipped names %v", got, shipped)
		}
	}
	if len(ids) != 2 {
		t.Fatalf("two partitionings drew query ids %v, want one each", ids)
	}
}

func TestEstimatorMonotonicity(t *testing.T) {
	ds := testData()
	reg := registryWith(t, ds)
	est := NewEstimator(reg)
	sc := scan(t, ds, "sales")
	f, _ := core.NewFilter(sc, expr.Gt(expr.Column("qty"), expr.CInt(5)))
	if est.Rows(f) >= est.Rows(sc) {
		t.Fatal("filter estimate must shrink input")
	}
	l, _ := core.NewLimit(sc, 10, 0)
	if est.Rows(l) != 10 {
		t.Fatalf("limit estimate = %g", est.Rows(l))
	}
	if est.Bytes(sc) <= 0 {
		t.Fatal("bytes estimate must be positive")
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	ds := testData()
	j, _ := core.NewJoin(scan(t, ds, "sales"), scan(t, ds, "customers"),
		core.JoinInner, []string{"cust_id"}, []string{"cust_id"}, nil)
	f, _ := core.NewFilter(j, expr.Gt(expr.Column("qty"), expr.CInt(3)))
	once, err := Optimize(f, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	twice, err := Optimize(once, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !core.Equal(once, twice) {
		t.Fatalf("optimize not idempotent:\n%s\nvs\n%s", core.Explain(once), core.Explain(twice))
	}
	_ = value.Null // keep value import for the helper below
}
