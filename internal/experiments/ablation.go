package experiments

import (
	"fmt"
	"time"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/federation"
	"nexus/internal/planner"
	"nexus/internal/provider"
)

// E8 — Optimizer ablation: the rewrites are the plumbing every
// desideratum rests on (a federated plan that ships unfiltered, unpruned
// intermediates makes D4's direct shipping pointless). The cross-site
// join of E4 runs with rewrite sets toggled; the table reports what each
// rewrite buys in shipped bytes and latency.
func E8Ablation(rows int) (*Result, error) {
	if rows == 0 {
		rows = 100000
	}
	res := &Result{
		ID:     "E8",
		Title:  fmt.Sprintf("optimizer ablation on the federated join (%d fact rows)", rows),
		Claim:  "rewrites shrink the intermediates that multi-server plans must ship",
		Header: []string{"configuration", "latency", "peer bytes shipped", "client bytes", "result ok"},
	}
	configs := []struct {
		name string
		opts planner.Options
	}{
		{"none", planner.NoOptions()},
		{"+fold", planner.Options{Fold: true}},
		{"+pushdown", planner.Options{Fold: true, Pushdown: true}},
		{"+prune", planner.Options{Fold: true, Pushdown: true, Prune: true}},
		{"all (default)", planner.DefaultOptions()},
	}

	var wantChecksum uint64
	for i, cfg := range configs {
		siteA := relational.New("siteA")
		if err := siteA.Store("sales", datagen.Sales(41, rows, rows/10+1, 50)); err != nil {
			return nil, err
		}
		siteB := relational.New("siteB")
		if err := siteB.Store("customers", datagen.Customers(42, rows/10+1)); err != nil {
			return nil, err
		}
		reg := provider.NewRegistry()
		if err := reg.Add(siteA); err != nil {
			return nil, err
		}
		if err := reg.Add(siteB); err != nil {
			return nil, err
		}
		plan, err := ablationPlan()
		if err != nil {
			return nil, err
		}
		opt, err := planner.Optimize(plan, cfg.opts)
		if err != nil {
			return nil, err
		}
		pp, err := planner.Partition(opt, reg, cfg.opts)
		if err != nil {
			return nil, err
		}
		trA, trB := federation.NewInProc(siteA), federation.NewInProc(siteB)
		coord := federation.NewCoordinator(trA, trB)
		t0 := time.Now()
		out, m, err := coord.Run(pp, federation.ModeDirect)
		trA.Close()
		trB.Close()
		if err != nil {
			return nil, fmt.Errorf("E8 %s: %w", cfg.name, err)
		}
		elapsed := time.Since(t0)
		sum := out.Checksum()
		if i == 0 {
			wantChecksum = sum
		}
		res.AddRow(cfg.name, fmtDur(elapsed), fmtBytes(m.PeerBytes),
			fmtBytes(m.ClientBytesIn+m.ClientBytesOut), mark(sum == wantChecksum))
	}
	res.Note("every configuration returns the same result; rewrites only change what must move between servers")
	res.Note("pushdown moves the segment predicate into the shipped dimension fragment; prune strips its unused columns")
	return res, nil
}

// ablationPlan is the E4 cross-site join with the selective predicate
// placed ABOVE the join, referencing the shipped side's column — exactly
// the shape where pushdown pays off in a federated setting: without it
// the whole dimension table ships, with it only the matching third does.
func ablationPlan() (core.Node, error) {
	base, err := crossSiteJoinPlan()
	if err != nil {
		return nil, err
	}
	ga := base.(*core.GroupAgg)
	join := ga.Children()[0]
	f, err := core.NewFilter(join, expr.Eq(expr.Column("segment"), expr.CStr("consumer")))
	if err != nil {
		return nil, err
	}
	return core.NewGroupAgg(f, ga.Keys, ga.Aggs)
}
