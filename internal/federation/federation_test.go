package federation

import (
	"testing"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/graph"
	"nexus/internal/engines/linalg"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/planner"
	"nexus/internal/provider"
	"nexus/internal/server"
	"nexus/internal/table"
)

// twoSiteSetup spreads the star schema across two relational providers:
// site A holds the fact table, site B the dimensions. It also returns a
// single-engine oracle holding everything.
func twoSiteSetup(t *testing.T, rows int) (a, b *relational.Engine, oracle *relational.Engine, reg *provider.Registry) {
	t.Helper()
	sales := datagen.Sales(1, rows, 100, 30)
	customers := datagen.Customers(2, 100)
	a = relational.New("siteA")
	b = relational.New("siteB")
	oracle = relational.New("oracle")
	if err := a.Store("sales", sales); err != nil {
		t.Fatal(err)
	}
	if err := b.Store("customers", customers); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Store("sales", sales); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Store("customers", customers); err != nil {
		t.Fatal(err)
	}
	reg = provider.NewRegistry()
	if err := reg.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(b); err != nil {
		t.Fatal(err)
	}
	return a, b, oracle, reg
}

// crossSitePlan builds: sales ⋈ customers, filter, aggregate by segment.
func crossSitePlan(t *testing.T, reg *provider.Registry) core.Node {
	t.Helper()
	_, salesSchema, _ := reg.FindDataset("sales")
	_, custSchema, _ := reg.FindDataset("customers")
	ss, err := core.NewScan("sales", salesSchema)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.NewScan("customers", custSchema)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.NewFilter(ss, expr.Gt(expr.Column("qty"), expr.CInt(3)))
	if err != nil {
		t.Fatal(err)
	}
	j, err := core.NewJoin(f, cs, core.JoinInner, []string{"cust_id"}, []string{"cust_id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ga, err := core.NewGroupAgg(j, []string{"segment"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
		{Func: core.AggCount, As: "n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ga
}

func TestFederatedJoinInProcBothModes(t *testing.T) {
	a, b, oracle, reg := twoSiteSetup(t, 3000)
	_ = a
	_ = b
	plan := crossSitePlan(t, reg)
	opt, err := planner.Optimize(plan, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pp, err := planner.Partition(opt, reg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pp.Fragments) < 2 {
		t.Fatalf("expected a multi-fragment plan, got %d fragments", len(pp.Fragments))
	}
	coord := NewCoordinator(NewInProc(a), NewInProc(b))

	want, err := oracle.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}

	direct, md, err := coord.Run(pp, ModeDirect)
	if err != nil {
		t.Fatal(err)
	}
	routed, mr, err := coord.Run(pp, ModeRouted)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualUnordered(direct, want) || !table.EqualUnordered(routed, want) {
		t.Fatal("federated results differ from single-engine oracle")
	}

	// The whole point: direct mode moves zero intermediate bytes through
	// the client; routed mode moves them all.
	if md.IntermediateViaClient != 0 {
		t.Fatalf("direct mode moved %d intermediate bytes via client", md.IntermediateViaClient)
	}
	if mr.IntermediateViaClient == 0 {
		t.Fatal("routed mode should move intermediates via client")
	}
	if md.PeerBytes == 0 {
		t.Fatal("direct mode should move bytes peer-to-peer")
	}
	if mr.ClientBytesIn <= md.ClientBytesIn {
		t.Fatalf("routed mode should receive more at the client (routed %d vs direct %d)", mr.ClientBytesIn, md.ClientBytesIn)
	}
}

func TestFederatedJoinOverTCP(t *testing.T) {
	a, b, oracle, reg := twoSiteSetup(t, 1500)
	sa, err := server.Serve(a, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := server.Serve(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	sa.Logf = t.Logf
	sb.Logf = t.Logf

	ta, err := DialMux(sa.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer ta.Close()
	tb, err := DialMux(sb.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	if ta.ProviderName() != "siteA" || tb.ProviderName() != "siteB" {
		t.Fatalf("hello exchange returned %q and %q", ta.ProviderName(), tb.ProviderName())
	}
	if !ta.Capabilities().Supports(core.KJoin) {
		t.Fatal("capabilities lost in hello exchange")
	}

	plan := crossSitePlan(t, reg)
	opt, err := planner.Optimize(plan, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pp, err := planner.Partition(opt, reg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(ta, tb)

	want, err := oracle.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeDirect, ModeRouted} {
		got, m, err := coord.Run(pp, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !table.EqualUnordered(got, want) {
			t.Fatalf("%v: result differs from oracle", mode)
		}
		if mode == ModeDirect && m.IntermediateViaClient != 0 {
			t.Fatalf("direct over TCP moved %d bytes via client", m.IntermediateViaClient)
		}
		if mode == ModeRouted && m.IntermediateViaClient == 0 {
			t.Fatal("routed over TCP moved no bytes via client")
		}
	}
}

func TestTCPServerRejectsBadPlan(t *testing.T) {
	e := relational.New("r")
	if err := e.Store("sales", datagen.Sales(3, 100, 10, 5)); err != nil {
		t.Fatal(err)
	}
	s, err := server.Serve(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Logf = t.Logf
	tr, err := DialMux(s.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	// A scan of a dataset the server does not host must produce a server
	// error, not a broken connection.
	missing, _ := core.NewScan("nope", datagen.SalesSchema())
	if _, err := tr.Execute(missing, nil); err == nil {
		t.Fatal("expected execution error for unknown dataset")
	}
	// The connection must remain usable afterwards.
	ok, _ := core.NewScan("sales", datagen.SalesSchema())
	res, err := tr.Execute(ok, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 100 {
		t.Fatalf("got %d rows", res.NumRows())
	}
}

func TestTCPStoreAndDrop(t *testing.T) {
	e := relational.New("r")
	s, err := server.Serve(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Logf = t.Logf
	tr, err := DialMux(s.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	tab := datagen.Customers(4, 25)
	var m Metrics
	if err := tr.Store("c", tab, &m); err != nil {
		t.Fatal(err)
	}
	if m.ClientBytesOut == 0 {
		t.Fatal("store bytes not accounted")
	}
	got, ok := e.Dataset("c")
	if !ok || got.NumRows() != 25 {
		t.Fatal("store did not reach the provider")
	}
	tr.Drop("c", &m)
	if _, ok := e.Dataset("c"); ok {
		t.Fatal("drop did not remove the dataset")
	}
}

// Federated PageRank: edges live on a relational site; the planner ships
// them to the graph engine which runs the native kernel.
func TestFederatedPageRankKernelRouting(t *testing.T) {
	const n = 100
	edges := datagen.UniformGraph(5, n, 400)
	rel := relational.New("rel")
	if err := rel.Store("edges", edges); err != nil {
		t.Fatal(err)
	}
	if err := rel.Store("vertices", graph.VerticesTable(n)); err != nil {
		t.Fatal(err)
	}
	gr := graph.New("gr")
	la := linalg.New("la")
	reg := provider.NewRegistry()
	for _, p := range []provider.Provider{rel, gr, la} {
		if err := reg.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := graph.PageRankPlan("edges", datagen.EdgeSchema(), "vertices", graph.VerticesSchema(), n, 0.85, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := planner.Partition(plan, reg, planner.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pp.Root().Provider != "gr" {
		t.Fatalf("pagerank routed to %s", pp.Root().Provider)
	}
	coord := NewCoordinator(NewInProc(rel), NewInProc(gr), NewInProc(la))
	got, m, err := coord.Run(pp, ModeDirect)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != n {
		t.Fatalf("pagerank produced %d rows", got.NumRows())
	}
	if gr.KernelCalls() == 0 {
		t.Fatal("native kernel not used after federated routing")
	}
	if m.IntermediateViaClient != 0 {
		t.Fatal("dataset shipping crossed the client in direct mode")
	}
	// Cleanup must remove the shipped datasets from the graph engine.
	if _, ok := gr.Dataset("edges"); ok {
		t.Fatal("shipped edges not cleaned up")
	}
}
