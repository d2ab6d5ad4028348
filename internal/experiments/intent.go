package experiments

import (
	"fmt"
	"time"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/linalg"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/federation"
	"nexus/internal/planner"
	"nexus/internal/provider"
)

// E3 — Intent Preservation (desideratum D3): "if the original function is
// matrix multiply, it should be recognizable as such at a server that has
// a direct implementation of matrix multiply."
//
// The client writes n×n matrix multiplication as join+group-sum. Without
// intent recognition it runs as a hash join + hash aggregate on the
// relational engine; with it, the planner recovers MatMul and routes it
// to the linalg provider's blocked dense kernel. The experiment sweeps n
// and reports both times and the speedup — the figure's shape (speedup
// growing with n) matters, not the absolute numbers.

// E3Intent runs the sweep.
func E3Intent(sizes []int) (*Result, error) {
	if len(sizes) == 0 {
		sizes = []int{32, 64, 96, 128, 192}
	}
	res := &Result{
		ID:     "E3",
		Title:  "matrix multiply: join+aggregate vs recognized MatMul",
		Claim:  "matrix multiply written relationally should be recognizable at a server with a native implementation",
		Header: []string{"n", "join+agg (relational)", "recognized (linalg)", "speedup", "plans agree"},
	}
	for _, n := range sizes {
		rel := relational.New("rel")
		la := linalg.New("la")
		a := datagen.Matrix(int64(n), n, n, "i", "k")
		b := datagen.Matrix(int64(n)+1, n, n, "k", "j")
		// The relational engine sees the matrices as plain tables (no
		// dimension tags) — exactly how a client limited to a relational
		// API would store them.
		if err := rel.Store("A", mustDropDims(a)); err != nil {
			return nil, err
		}
		if err := rel.Store("B", mustDropDims(b)); err != nil {
			return nil, err
		}
		if err := la.Store("A", mustDropDims(a)); err != nil {
			return nil, err
		}
		if err := la.Store("B", mustDropDims(b)); err != nil {
			return nil, err
		}
		reg := provider.NewRegistry()
		if err := reg.Add(rel); err != nil {
			return nil, err
		}
		if err := reg.Add(la); err != nil {
			return nil, err
		}

		plan, err := joinAggMatMulPlan()
		if err != nil {
			return nil, err
		}

		// Baseline: no intent; the plan stays join+agg on the relational
		// engine.
		baseOpts := planner.Options{Fold: true, Pushdown: true, Prune: true}
		basePlan, err := planner.Optimize(plan, baseOpts)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		baseOut, err := rel.Execute(basePlan)
		if err != nil {
			return nil, fmt.Errorf("E3 baseline n=%d: %w", n, err)
		}
		baseTime := time.Since(t0)

		// Intent on: recognized, partitioned to linalg.
		intentOpts := planner.DefaultOptions()
		intentPlan, err := planner.Optimize(plan, intentOpts)
		if err != nil {
			return nil, err
		}
		pp, err := planner.Partition(intentPlan, reg, intentOpts)
		if err != nil {
			return nil, err
		}
		if pp.Root().Provider != "la" {
			return nil, fmt.Errorf("E3 n=%d: intent plan routed to %s, want la", n, pp.Root().Provider)
		}
		trRel, trLA := federation.NewInProc(rel), federation.NewInProc(la)
		coord := federation.NewCoordinator(trRel, trLA)
		t1 := time.Now()
		fastOut, _, err := coord.Run(pp, federation.ModeDirect)
		trRel.Close()
		trLA.Close()
		if err != nil {
			return nil, fmt.Errorf("E3 intent n=%d: %w", n, err)
		}
		fastTime := time.Since(t1)

		agree := approxSameTable(baseOut, fastOut)
		res.AddRow(
			fmt.Sprintf("%d", n),
			fmtDur(baseTime),
			fmtDur(fastTime),
			fmt.Sprintf("%.1fx", float64(baseTime)/float64(fastTime)),
			mark(agree),
		)
	}
	res.Note("both sides compute identical cells; the baseline is denied only the intent rewrite (folding/pushdown/pruning stay on)")
	return res, nil
}

func joinAggMatMulPlan() (core.Node, error) {
	a, err := core.NewScan("A", datagen.MatrixSchema("i", "k").DropDims())
	if err != nil {
		return nil, err
	}
	b, err := core.NewScan("B", datagen.MatrixSchema("k", "j").DropDims())
	if err != nil {
		return nil, err
	}
	j, err := core.NewJoin(a, b, core.JoinInner, []string{"k"}, []string{"k"}, nil)
	if err != nil {
		return nil, err
	}
	return core.NewGroupAgg(j, []string{"i", "j"}, []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Mul(expr.Column("v"), expr.Column("v_r")), As: "c"},
	})
}
