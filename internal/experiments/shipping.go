package experiments

import (
	"fmt"
	"time"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/federation"
	"nexus/internal/schema"
)

// E7 — Expression-tree shipping (the LINQ property the paper carries
// over): "It can pass queries to Providers in the form of an expression
// tree, rather than as a series of remote function calls. This capability
// obviously cuts down on communication between client and Provider."
//
// A pipeline of depth d (alternating extend/filter stages over the sales
// table) executes two ways:
//
//	tree    — the whole pipeline ships as ONE encoded plan; one round trip;
//	op-call — cursor/RPC style: each stage is a separate remote call whose
//	          intermediate result returns to the client and is re-uploaded
//	          for the next stage (2d round trips, all intermediates
//	          through the client).
func E7Shipping(depths []int) (*Result, error) {
	if len(depths) == 0 {
		depths = []int{1, 2, 4, 8, 16}
	}
	const rows = 20000
	res := &Result{
		ID:     "E7",
		Title:  "query shipping: one expression tree vs per-operator remote calls",
		Claim:  "passing queries as expression trees cuts down on communication between client and Provider",
		Header: []string{"depth", "mode", "latency", "round trips", "bytes via client"},
	}
	for _, d := range depths {
		eng := relational.New("srv")
		if err := eng.Store("sales", datagen.Sales(31, rows, 500, 50)); err != nil {
			return nil, err
		}
		tr := federation.NewInProc(eng)
		defer tr.Close()

		// Tree mode.
		plan, err := pipelinePlan("sales", d)
		if err != nil {
			return nil, err
		}
		var mt federation.Metrics
		t0 := time.Now()
		treeOut, err := tr.Execute(plan, &mt)
		if err != nil {
			return nil, fmt.Errorf("E7 tree d=%d: %w", d, err)
		}
		treeTime := time.Since(t0)
		res.AddRow(fmt.Sprintf("%d", d), "tree", fmtDur(treeTime),
			fmt.Sprintf("%d", mt.RoundTrips), fmtBytes(mt.ClientBytesIn+mt.ClientBytesOut))

		// Per-operator calls.
		var mo federation.Metrics
		t1 := time.Now()
		cur := "sales"
		for stage := 0; stage < d; stage++ {
			step, err := pipelineStage(cur, stage, eng)
			if err != nil {
				return nil, err
			}
			out, err := tr.Execute(step, &mo)
			if err != nil {
				return nil, fmt.Errorf("E7 op-call d=%d stage %d: %w", d, stage, err)
			}
			next := fmt.Sprintf("__cursor_%d", stage)
			if err := tr.Store(next, out, &mo); err != nil {
				return nil, err
			}
			cur = next
		}
		final, err := core.NewScan(cur, mustSchema(eng, cur))
		if err != nil {
			return nil, err
		}
		opOut, err := tr.Execute(final, &mo)
		if err != nil {
			return nil, err
		}
		opTime := time.Since(t1)
		res.AddRow(fmt.Sprintf("%d", d), "op-call", fmtDur(opTime),
			fmt.Sprintf("%d", mo.RoundTrips), fmtBytes(mo.ClientBytesIn+mo.ClientBytesOut))

		if treeOut.Checksum() != opOut.Checksum() {
			return nil, fmt.Errorf("E7 d=%d: modes disagree", d)
		}
	}
	res.Note("tree mode holds round trips at 1 regardless of depth; op-call mode pays 2 round trips and a full intermediate transfer per stage")
	return res, nil
}

// pipelinePlan builds d alternating extend/filter stages over the input.
func pipelinePlan(dataset string, depth int) (core.Node, error) {
	var n core.Node
	n, err := core.NewScan(dataset, datagen.SalesSchema())
	if err != nil {
		return nil, err
	}
	for stage := 0; stage < depth; stage++ {
		n, err = applyStage(n, stage)
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

// applyStage adds one pipeline stage; stages alternate between a column
// derivation and a mild filter so intermediates stay large.
func applyStage(n core.Node, stage int) (core.Node, error) {
	if stage%2 == 0 {
		return core.NewExtend(n, []core.ColDef{{
			Name: fmt.Sprintf("d%d", stage),
			E:    expr.Add(expr.Column("price"), expr.CFloat(float64(stage))),
		}})
	}
	return core.NewFilter(n, expr.Gt(expr.Column("qty"), expr.CInt(0)))
}

// pipelineStage builds stage k as a standalone plan over the cursor
// dataset.
func pipelineStage(dataset string, stage int, eng *relational.Engine) (core.Node, error) {
	sch := mustSchema(eng, dataset)
	n, err := core.NewScan(dataset, sch)
	if err != nil {
		return nil, err
	}
	return applyStage(n, stage)
}

func mustSchema(eng *relational.Engine, name string) schema.Schema {
	sch, ok := eng.DatasetSchema(name)
	if !ok {
		panic("E7: missing dataset " + name)
	}
	return sch
}
