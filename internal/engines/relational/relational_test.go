package relational

import (
	"sync"
	"testing"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/exec"
	"nexus/internal/expr"
)

func TestStoreAndCatalog(t *testing.T) {
	e := New("")
	if e.Name() != "relational" {
		t.Fatalf("default name %q", e.Name())
	}
	if err := e.Store("", datagen.Sales(1, 10, 5, 5)); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := e.Store("sales", nil); err == nil {
		t.Fatal("nil table accepted")
	}
	if err := e.Store("sales", datagen.Sales(1, 100, 10, 5)); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.DatasetSchema("sales"); !ok {
		t.Fatal("schema lookup failed")
	}
	infos := e.Datasets()
	if len(infos) != 1 || infos[0].Rows != 100 {
		t.Fatalf("datasets = %+v", infos)
	}
	e.Drop("sales")
	if _, ok := e.Dataset("sales"); ok {
		t.Fatal("drop ignored")
	}
}

func TestExecuteEnforcesCapabilities(t *testing.T) {
	e := New("r")
	a := datagen.Matrix(1, 4, 4, "i", "k")
	b := datagen.Matrix(2, 4, 4, "k", "j")
	if err := e.Store("A", a); err != nil {
		t.Fatal(err)
	}
	if err := e.Store("B", b); err != nil {
		t.Fatal(err)
	}
	sa, _ := core.NewScan("A", a.Schema())
	sb, _ := core.NewScan("B", b.Schema())
	mm, err := core.NewMatMul(sa, sb, "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(mm); err == nil {
		t.Fatal("relational engine must reject MatMul per its advertised capabilities")
	}
	// The raw runtime over the engine's datasets bypasses the capability gate.
	rt := &exec.Runtime{Datasets: e.Dataset}
	out, err := rt.Run(mm)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 16 || rt.Stats.NodesExecuted == 0 {
		t.Fatalf("rows=%d stats=%+v", out.NumRows(), rt.Stats)
	}
}

func TestConcurrentExecute(t *testing.T) {
	e := New("r")
	if err := e.Store("sales", datagen.Sales(3, 2000, 100, 20)); err != nil {
		t.Fatal(err)
	}
	sch, _ := e.DatasetSchema("sales")
	scan, _ := core.NewScan("sales", sch)
	ga, err := core.NewGroupAgg(scan, []string{"region"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("price"), expr.Column("qty")), As: "rev"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Execute(ga)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.Execute(ga)
			if err != nil {
				errs <- err
				return
			}
			if got.Checksum() != want.Checksum() {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
