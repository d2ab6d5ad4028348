package nexus_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"nexus"
	"nexus/internal/datagen"
	"nexus/internal/engines/array"
	"nexus/internal/engines/graph"
	"nexus/internal/engines/relational"
	"nexus/internal/provider"
	"nexus/internal/server"
	"nexus/internal/table"
)

// serve hosts a provider on a loopback server for the test's lifetime.
func serve(t *testing.T, p provider.Provider) string {
	t.Helper()
	srv, err := server.Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = t.Logf
	t.Cleanup(srv.Close)
	return srv.Addr()
}

// connect opens a session over the given server addresses.
func connect(t *testing.T, addrs ...string) *nexus.Session {
	t.Helper()
	s := nexus.NewSession()
	for _, a := range addrs {
		if _, err := s.ConnectTCP(a); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(s.Close)
	return s
}

// Two clients federating over the same two servers at once, each with
// its own filter so their intermediates differ: every answer must be
// the client's own. When ship edges share catalog names, one client's
// join reads — or loses to a Drop — the other's filtered customers.
func TestConcurrentFederatedSessionsKeepTheirIntermediates(t *testing.T) {
	const rounds = 150
	sales := datagen.Sales(5, 4000, 200, 40)
	customers := datagen.Customers(6, 200)
	rel := relational.New("rel")
	if err := rel.Store("sales", sales); err != nil {
		t.Fatal(err)
	}
	arr := array.New("arr")
	if err := arr.Store("customers", customers); err != nil {
		t.Fatal(err)
	}
	relAddr, arrAddr := serve(t, rel), serve(t, arr)

	// The oracle: one local engine holding both tables.
	oracle := relational.New("oracle")
	for name, tab := range map[string]*table.Table{"sales": sales, "customers": customers} {
		if err := oracle.Store(name, tab); err != nil {
			t.Fatal(err)
		}
	}
	query := func(s *nexus.Session, client int) *nexus.Query {
		var keep nexus.Expr = nexus.Lt(nexus.Col("cust_id"), nexus.Int(80))
		if client == 1 {
			keep = nexus.Ge(nexus.Col("cust_id"), nexus.Int(120))
		}
		return s.Scan("sales").
			Join(s.Scan("customers").Where(keep), nexus.Inner, nexus.On("cust_id", "cust_id")).
			GroupBy("segment").
			Agg(nexus.Count("n"), nexus.Sum("q", nexus.Col("qty")))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	for client := 0; client < 2; client++ {
		s := connect(t, relAddr, arrAddr)
		want := oracleRun(t, oracle, query(s, client))
		if plan, err := query(s, client).Explain(); err != nil {
			t.Fatal(err)
		} else if n := countFragments(plan); n < 2 {
			t.Fatalf("client %d: want a federated plan, got %d fragment(s):\n%s", client, n, plan)
		}
		wg.Add(1)
		go func(client int, s *nexus.Session, want uint64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := query(s, client).Collect()
				switch {
				case err != nil:
					errs <- fmt.Errorf("client %d round %d: %w", client, r, err)
				case got.Checksum() != want:
					errs <- fmt.Errorf("client %d round %d: wrong answer (%d rows)", client, r, got.NumRows())
				}
			}
		}(client, s, want)
	}
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		if n < 5 {
			t.Error(err)
		}
		n++
	}
	if n > 0 {
		t.Fatalf("%d of %d federated results wrong or failed", n, 2*rounds)
	}
	for _, p := range []provider.Provider{rel, arr} {
		for _, ds := range p.Datasets() {
			if ds.Name != "sales" && ds.Name != "customers" {
				t.Errorf("intermediate %q left on %s", ds.Name, p.Name())
			}
		}
	}
}

// A client's Iterate that needs a dataset its chosen provider lacks
// ships that dataset in under an intermediate name: another client's
// dataset of the same name on that provider is neither overwritten nor
// dropped, and the answer is computed from the shipped rows.
func TestAtomicShipKeepsOtherClientsDataset(t *testing.T) {
	const nv = 1000 // vertices outweigh edges, so the iterate runs on G
	edges := datagen.UniformGraph(9, nv, 300)
	rel := relational.New("R")
	if err := rel.Store("edges", edges); err != nil {
		t.Fatal(err)
	}
	gr := graph.New("G")
	vertices := table.MustNew(graph.VerticesSchema(), []*table.Column{table.IntColumn(seq(nv))})
	if err := gr.Store("vertices", vertices); err != nil {
		t.Fatal(err)
	}
	relAddr, grAddr := serve(t, rel), serve(t, gr)

	a := connect(t, relAddr, grAddr)
	// Client B stores its own edges on G after A connected: A's catalog
	// still says G lacks them.
	b := connect(t, grAddr)
	bEdges := nexus.NewTableBuilder(
		nexus.ColumnDef{Name: "src", Type: nexus.Int64},
		nexus.ColumnDef{Name: "dst", Type: nexus.Int64},
	)
	for i := int64(0); i < 777; i++ {
		bEdges.Append(i%nv, (i*7)%nv)
	}
	bt, err := bEdges.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Store("G", "edges", bt); err != nil {
		t.Fatal(err)
	}

	// Three rounds of adding each vertex's out-degree.
	degreeSum := func(s *nexus.Session) *nexus.Query {
		init := s.Scan("vertices").Extend("d", nexus.Int(0))
		return s.Iterate("state", init, func(loop *nexus.Query) *nexus.Query {
			deg := s.Scan("edges").GroupBy("src").Agg(nexus.Count("deg"))
			return loop.Join(deg, nexus.Left, nexus.On("v", "src")).
				Extend("d2", nexus.Add(nexus.Col("d"), nexus.Call("coalesce", nexus.Col("deg"), nexus.Int(0)))).
				Select("v", "d2").
				Rename("d2", "d")
		}, 3, nil)
	}
	plan, err := degreeSum(a).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if countFragments(plan) != 2 {
		t.Fatalf("want the scan of edges shipped into the iterate on G:\n%s", plan)
	}
	got, err := degreeSum(a).Collect()
	if err != nil {
		t.Fatal(err)
	}

	if kept, ok := gr.Dataset("edges"); !ok || kept.NumRows() != 777 {
		t.Fatalf("client B's edges on G: present %v, want 777 rows", ok)
	}
	oracle := relational.New("oracle")
	for name, tab := range map[string]*table.Table{"edges": edges, "vertices": vertices} {
		if err := oracle.Store(name, tab); err != nil {
			t.Fatal(err)
		}
	}
	want := oracleRun(t, oracle, degreeSum(a))
	if got.NumRows() != nv || got.Checksum() != want {
		t.Fatalf("answer differs from the relational engine's (%d rows, want %d)", got.NumRows(), nv)
	}
	for _, ds := range gr.Datasets() {
		if ds.Name != "edges" && ds.Name != "vertices" {
			t.Errorf("intermediate %q left on G", ds.Name)
		}
	}
}

// countFragments counts the fragment lines of an Explain rendering.
func countFragments(explain string) int {
	return strings.Count(explain, "\nfragment ")
}

func seq(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// oracleRun executes a query's plan on one local engine holding every
// dataset, returning the result's checksum.
func oracleRun(t *testing.T, oracle *relational.Engine, q *nexus.Query) uint64 {
	t.Helper()
	plan, err := q.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	return want.Checksum()
}
