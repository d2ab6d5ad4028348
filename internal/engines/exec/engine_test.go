package exec_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/array"
	"nexus/internal/engines/exec"
	"nexus/internal/engines/graph"
	"nexus/internal/engines/linalg"
	"nexus/internal/engines/relational"
	"nexus/internal/provider"
	"nexus/internal/storage"
	"nexus/internal/table"
)

// shellEngine is a provider whose Name, Capabilities, Execute and
// ExecuteTraced come from the shell.
type shellEngine interface {
	provider.Provider
	exec.TracedExecutor
}

// memEngine is an in-memory engine: the shell over an exec.Tables.
type memEngine interface {
	shellEngine
	Dataset(name string) (*table.Table, bool)
}

// TestShellConformance checks, on all five engines, what the shell and
// the providers' dataset methods promise: the default name, the
// capability gate and its error, Execute agreeing with ExecuteTraced,
// Store's argument checks, a sorted catalog, Append and Drop.
func TestShellConformance(t *testing.T) {
	durable, err := storage.OpenEngine("", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	cases := []struct {
		kind, name  string
		e           shellEngine
		unsupported core.OpKind
	}{
		{"relational", "relational", relational.New(""), core.KMatMul},
		{"array", "array", array.New(""), core.KMatMul},
		{"graph", "graph", graph.New(""), core.KMatMul},
		{"linalg", "linalg", linalg.New(""), core.KDistinct},
		{"storage", "durable", durable, core.KMatMul},
	}
	a := datagen.Matrix(1, 4, 4, "i", "k")
	b := datagen.Matrix(2, 4, 4, "k", "j")
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			e := c.e
			if e.Name() != c.name {
				t.Fatalf("default name %q, want %q", e.Name(), c.name)
			}
			if err := e.Store("", a); err == nil {
				t.Fatal("empty name accepted")
			}
			if err := e.Store("A", nil); err == nil {
				t.Fatal("nil table accepted")
			}
			for _, ds := range []struct {
				name string
				t    *table.Table
			}{{"B", b}, {"A", a}, {"C", b}} {
				if err := e.Store(ds.name, ds.t); err != nil {
					t.Fatal(err)
				}
			}
			infos := e.Datasets()
			if len(infos) != 3 || infos[0].Name != "A" || infos[0].Rows != 16 ||
				!sort.SliceIsSorted(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name }) {
				t.Fatalf("datasets = %+v", infos)
			}

			sa, _ := core.NewScan("A", a.Schema())
			sb, _ := core.NewScan("B", b.Schema())
			var bad core.Node
			if c.unsupported == core.KMatMul {
				bad, err = core.NewMatMul(sa, sb, "v")
			} else {
				bad, err = core.NewDistinct(sa)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%s %q: operator %v not supported", c.kind, c.name, c.unsupported)
			for _, run := range []func() (*table.Table, error){
				func() (*table.Table, error) { return e.Execute(bad) },
				func() (*table.Table, error) { return e.ExecuteTraced(bad, exec.NewTrace()) },
			} {
				if _, err := run(); err == nil || err.Error() != want {
					t.Fatalf("unsupported plan: err %v, want %q", err, want)
				}
			}
			// The gate is the shell's: the raw runtime runs the same plan.
			if m, ok := e.(memEngine); ok {
				rt := &exec.Runtime{Datasets: m.Dataset}
				out, err := rt.Run(bad)
				if err != nil || out.NumRows() == 0 || rt.Stats.NodesExecuted == 0 {
					t.Fatalf("raw runtime: rows=%v stats=%+v err=%v", out, rt.Stats, err)
				}
			}

			sch, ok := e.DatasetSchema("A")
			if !ok {
				t.Fatal("schema lookup failed")
			}
			scan, _ := core.NewScan("A", sch)
			plan, err := core.NewProject(scan, []string{"i", "v"})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := e.Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			tr := exec.NewTrace()
			traced, err := e.ExecuteTraced(plan, tr)
			if err != nil {
				t.Fatal(err)
			}
			if plain.NumRows() != 16 || plain.Checksum() != traced.Checksum() {
				t.Fatalf("Execute rows=%d checksum %x, ExecuteTraced checksum %x",
					plain.NumRows(), plain.Checksum(), traced.Checksum())
			}
			if st, ok := tr.Get(plan); !ok || st.Calls == 0 || st.RowsOut != 16 {
				t.Fatalf("root stats %+v ok=%v", st, ok)
			}

			if err := e.Append("A", b); err == nil {
				t.Fatal("append with another schema accepted")
			}
			if err := e.Append("A", a); err != nil {
				t.Fatal(err)
			}
			if rows := e.Datasets()[0].Rows; rows != 32 {
				t.Fatalf("rows after append = %d, want 32", rows)
			}
			e.Drop("C")
			if _, ok := e.DatasetSchema("C"); ok || len(e.Datasets()) != 2 {
				t.Fatal("drop ignored")
			}
		})
	}
}

// TestConcurrentStoreAppend races Store("d", X) against Append("d", Y)
// on a dataset that already holds other rows. Each call is atomic, so
// the dataset must end as X (the append ran first) or X+Y (the store
// did); the old rows plus Y would mean the Store was lost.
func TestConcurrentStoreAppend(t *testing.T) {
	const runs = 2000
	old, x, y := datagen.Sales(1, 3, 5, 5), datagen.Sales(2, 5, 5, 5), datagen.Sales(3, 7, 5, 5)
	for _, e := range []memEngine{relational.New(""), array.New(""), graph.New(""), linalg.New("")} {
		t.Run(e.Name(), func(t *testing.T) {
			wrong := 0
			for i := 0; i < runs; i++ {
				if err := e.Store("d", old); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				var storeErr, appendErr error
				start := make(chan struct{})
				wg.Add(2)
				go func() {
					defer wg.Done()
					<-start
					storeErr = e.Store("d", x)
				}()
				go func() {
					defer wg.Done()
					<-start
					appendErr = e.Append("d", y)
				}()
				close(start)
				wg.Wait()
				if storeErr != nil || appendErr != nil {
					t.Fatalf("store: %v, append: %v", storeErr, appendErr)
				}
				got, _ := e.Dataset("d")
				if n := got.NumRows(); n != x.NumRows() && n != x.NumRows()+y.NumRows() {
					wrong++
				}
			}
			if wrong > 0 {
				t.Fatalf("%d of %d runs lost the Store (want %d or %d rows)",
					wrong, runs, x.NumRows(), x.NumRows()+y.NumRows())
			}
		})
	}
}
