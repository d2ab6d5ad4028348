package experiments

import (
	"fmt"
	"math"
	"time"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/graph"
	"nexus/internal/engines/relational"
	"nexus/internal/federation"
	"nexus/internal/ref"
	"nexus/internal/table"
)

// E5 — Control iteration: "many areas, such as graph analytics and data
// mining, require repeated execution of an expression until some
// convergence criterion is met."
//
// PageRank on a power-law graph runs under three strategies:
//
//	client-loop — the application issues one algebra query per iteration
//	              and holds the state (the world without control
//	              iteration in the algebra);
//	in-engine   — one shipped Iterate tree; a relational engine runs the
//	              generic loop internally;
//	kernel      — the same tree routed to the graph engine, whose
//	              recognizer swaps in the native CSR kernel.
//
// The table reports wall time, client round trips, and bytes through the
// client for each strategy, plus agreement against the textbook oracle.
func E5Iteration(nVertices, nEdges, iters int) (*Result, error) {
	if nVertices == 0 {
		nVertices, nEdges, iters = 3000, 15000, 10
	}
	const damping = 0.85
	res := &Result{
		ID:     "E5",
		Title:  fmt.Sprintf("PageRank strategies (n=%d, m=%d, %d iterations)", nVertices, nEdges, iters),
		Claim:  "the algebra should support repeated execution of an expression until a convergence criterion is met",
		Header: []string{"strategy", "latency", "client round trips", "bytes via client", "max |Δ| vs oracle"},
	}
	edges := datagen.ZipfGraph(11, nVertices, nEdges)
	vertices := graph.VerticesTable(nVertices)
	oracle := ref.PageRank(datagen.AdjacencyList(edges, nVertices), nVertices, damping, iters)

	plan, err := graph.PageRankPlan("edges", datagen.EdgeSchema(), "vertices", graph.VerticesSchema(), nVertices, damping, iters, 0)
	if err != nil {
		return nil, err
	}

	// --- client-loop ------------------------------------------------------
	relC := relational.New("rel")
	if err := relC.Store("edges", edges); err != nil {
		return nil, err
	}
	if err := relC.Store("vertices", vertices); err != nil {
		return nil, err
	}
	trC := federation.NewInProc(relC)
	defer trC.Close()
	var mC federation.Metrics
	t0 := time.Now()
	state, err := clientLoopPageRank(trC, &mC, nVertices, damping, iters)
	if err != nil {
		return nil, fmt.Errorf("E5 client-loop: %w", err)
	}
	clientTime := time.Since(t0)
	res.AddRow("client-loop", fmtDur(clientTime),
		fmt.Sprintf("%d", mC.RoundTrips),
		fmtBytes(mC.ClientBytesIn+mC.ClientBytesOut),
		fmtDelta(state, oracle))

	// --- in-engine generic iterate ----------------------------------------
	relE := relational.New("rel")
	if err := relE.Store("edges", edges); err != nil {
		return nil, err
	}
	if err := relE.Store("vertices", vertices); err != nil {
		return nil, err
	}
	trE := federation.NewInProc(relE)
	defer trE.Close()
	var mE federation.Metrics
	t1 := time.Now()
	out, err := trE.Execute(plan, &mE)
	if err != nil {
		return nil, fmt.Errorf("E5 in-engine: %w", err)
	}
	engineTime := time.Since(t1)
	res.AddRow("in-engine iterate", fmtDur(engineTime),
		fmt.Sprintf("%d", mE.RoundTrips),
		fmtBytes(mE.ClientBytesIn+mE.ClientBytesOut),
		fmtDelta(out, oracle))

	// --- native kernel ------------------------------------------------------
	gr := graph.New("graph")
	if err := gr.Store("edges", edges); err != nil {
		return nil, err
	}
	if err := gr.Store("vertices", vertices); err != nil {
		return nil, err
	}
	trG := federation.NewInProc(gr)
	defer trG.Close()
	var mG federation.Metrics
	t2 := time.Now()
	out2, err := trG.Execute(plan, &mG)
	if err != nil {
		return nil, fmt.Errorf("E5 kernel: %w", err)
	}
	kernelTime := time.Since(t2)
	if gr.KernelCalls() == 0 {
		return nil, fmt.Errorf("E5: native kernel was not used")
	}
	res.AddRow("native kernel (intent)", fmtDur(kernelTime),
		fmt.Sprintf("%d", mG.RoundTrips),
		fmtBytes(mG.ClientBytesIn+mG.ClientBytesOut),
		fmtDelta(out2, oracle))

	res.Note("one shipped Iterate replaces %d client round trips; the recognized kernel additionally beats the generic loop %.1fx",
		mC.RoundTrips, float64(engineTime)/float64(kernelTime))
	return res, nil
}

// clientLoopPageRank mirrors the canonical loop but drives every
// iteration from the client: materialize state, upload it, run one step,
// download the result.
func clientLoopPageRank(tr federation.Transport, m *federation.Metrics, n int, damping float64, iters int) (*table.Table, error) {
	init, body, err := pageRankStepPlans(n, damping)
	if err != nil {
		return nil, err
	}
	state, err := tr.Execute(init, m)
	if err != nil {
		return nil, err
	}
	for i := 0; i < iters; i++ {
		if err := tr.Store("state", state, m); err != nil {
			return nil, err
		}
		state, err = tr.Execute(body, m)
		if err != nil {
			return nil, err
		}
	}
	tr.Drop("state", m)
	return state, nil
}

// pageRankStepPlans builds the init plan and a single-step plan reading
// the materialized state from the dataset "state".
func pageRankStepPlans(n int, damping float64) (core.Node, core.Node, error) {
	full, err := graph.PageRankPlan("edges", datagen.EdgeSchema(), "vertices", graph.VerticesSchema(), n, damping, 2, 0)
	if err != nil {
		return nil, nil, err
	}
	let := full.(*core.Let)
	it := let.In().(*core.Iterate)
	init := it.Init()

	// Rewrite the body: Var("state") → Scan("state"); keep Var("deg")
	// bound by wrapping the step in the same Let.
	stateScan, err := core.NewScan("state", init.Schema().DropDims())
	if err != nil {
		return nil, nil, err
	}
	body, err := core.Rewrite(it.Body(), func(nd core.Node) (core.Node, error) {
		if v, ok := nd.(*core.Var); ok && v.Name == it.LoopVar {
			return stateScan, nil
		}
		return nd, nil
	})
	if err != nil {
		return nil, nil, err
	}
	step, err := core.NewLet(let.Name, let.Bound(), body)
	if err != nil {
		return nil, nil, err
	}
	return init, step, nil
}

func fmtDelta(t *table.Table, oracle []float64) string {
	vs := t.ColByName("v").Ints()
	rs := t.ColByName("rank").Floats()
	worst := 0.0
	for i := range vs {
		d := math.Abs(rs[i] - oracle[vs[i]])
		if d > worst {
			worst = d
		}
	}
	return fmt.Sprintf("%.1e", worst)
}
