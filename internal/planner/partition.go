package planner

import (
	"fmt"
	"math/rand/v2"

	"nexus/internal/core"
	"nexus/internal/provider"
	"nexus/internal/schema"
)

// ShipEdge says: before a fragment runs, store the producing fragment's
// result on the consuming fragment's provider under StoreAs. The
// federation layer realizes edges either directly (producer's server
// pushes to consumer's server) or routed through the client — the
// difference measured by the interop experiment (E4).
type ShipEdge struct {
	FromFragment int
	StoreAs      string
}

// Fragment is a maximal subtree of the plan assigned to one provider.
type Fragment struct {
	ID       int
	Provider string
	Plan     core.Node
	Inputs   []ShipEdge
	// Temp reports whether the fragment's output is an intermediate
	// (true) or the query result (false, root only).
	Temp bool
}

// PartitionedPlan is the fragment DAG in topological order; the last
// fragment is the root whose result returns to the client.
type PartitionedPlan struct {
	Fragments []*Fragment
}

// Root returns the final fragment.
func (p *PartitionedPlan) Root() *Fragment {
	return p.Fragments[len(p.Fragments)-1]
}

// String renders the fragment DAG for diagnostics.
func (p *PartitionedPlan) String() string {
	s := ""
	for _, f := range p.Fragments {
		s += fmt.Sprintf("fragment %d on %s", f.ID, f.Provider)
		for _, in := range f.Inputs {
			s += fmt.Sprintf(" <-[%s]- %d", in.StoreAs, in.FromFragment)
		}
		s += ":\n" + core.Explain(f.Plan)
	}
	return s
}

// Partition splits an optimized plan into per-provider fragments using
// the providers' capability sets and data locality, preferring providers
// with native kernels for recognized iterate subtrees when
// opts.IntentKernels is set.
func Partition(plan core.Node, reg *provider.Registry, opts Options) (*PartitionedPlan, error) {
	if len(reg.Names()) == 0 {
		return nil, fmt.Errorf("planner: no providers registered")
	}
	pt := &partitioner{reg: reg, est: NewEstimator(reg), opts: opts, queryID: rand.Uint64()}
	pend, err := pt.assign(plan)
	if err != nil {
		return nil, err
	}
	if pend.prov == "" {
		pend.prov = pt.anySupporter(pend.plan)
		if pend.prov == "" {
			return nil, fmt.Errorf("planner: no provider supports the plan")
		}
	}
	root := pt.finalize(pend)
	root.Temp = false
	return &PartitionedPlan{Fragments: pt.fragments}, nil
}

type pending struct {
	prov   string // "" = unpinned (literals/vars only)
	plan   core.Node
	inputs []ShipEdge
}

type partitioner struct {
	reg       *provider.Registry
	est       *Estimator
	opts      Options
	fragments []*Fragment
	// queryID scopes every intermediate name to this partitioning, so
	// concurrent queries over the same servers never store, read or
	// drop each other's intermediates.
	queryID uint64
	tempSeq int
}

func (pt *partitioner) finalize(p *pending) *Fragment {
	f := &Fragment{
		ID:       len(pt.fragments),
		Provider: p.prov,
		Plan:     p.plan,
		Inputs:   p.inputs,
		Temp:     true,
	}
	pt.fragments = append(pt.fragments, f)
	return f
}

func (pt *partitioner) tempName() string {
	pt.tempSeq++
	return fmt.Sprintf("__ship_%016x_%d", pt.queryID, pt.tempSeq)
}

// anySupporter returns the first registered provider that supports the
// whole plan.
func (pt *partitioner) anySupporter(plan core.Node) string {
	for _, p := range pt.reg.All() {
		if ok, _ := p.Capabilities().SupportsPlan(plan); ok {
			return p.Name()
		}
	}
	return ""
}

// supporters returns providers whose capabilities cover the operator.
func (pt *partitioner) supporters(kind core.OpKind) []provider.Provider {
	var out []provider.Provider
	for _, p := range pt.reg.All() {
		if p.Capabilities().Supports(kind) {
			out = append(out, p)
		}
	}
	return out
}

func (pt *partitioner) assign(n core.Node) (*pending, error) {
	switch x := n.(type) {
	case *core.Scan:
		host, _, ok := pt.reg.FindDataset(x.Dataset)
		if !ok {
			return nil, fmt.Errorf("planner: no provider hosts dataset %q", x.Dataset)
		}
		return &pending{prov: host.Name(), plan: n}, nil
	case *core.Literal, *core.Var:
		return &pending{prov: "", plan: n}, nil
	case *core.Iterate, *core.Let:
		return pt.assignAtomic(n)
	}
	return pt.assignOp(n)
}

// assignAtomic places a whole Iterate/Let subtree on a single provider:
// control iteration runs inside an engine, not across engines. Datasets
// the chosen provider does not host are shipped in under intermediate
// names, and the subtree's scans of them read those names — a dataset of
// the same name on the chosen provider is never overwritten or dropped.
func (pt *partitioner) assignAtomic(n core.Node) (*pending, error) {
	type candidate struct {
		p      provider.Provider
		kernel bool
		local  float64
	}
	datasets := core.DatasetNames(n)
	kernel, hasKernel := "", false
	if pt.opts.IntentKernels {
		kernel, hasKernel = RecognizedKernel(n)
	}
	var cands []candidate
	for _, p := range pt.reg.All() {
		ok, _ := p.Capabilities().SupportsPlan(n)
		if !ok {
			continue
		}
		local := 0.0
		for _, ds := range datasets {
			if _, hosted := p.DatasetSchema(ds); hosted {
				for _, info := range p.Datasets() {
					if info.Name == ds {
						local += float64(info.Rows) * RowWidth(info.Schema)
					}
				}
			}
		}
		cands = append(cands, candidate{
			p:      p,
			kernel: hasKernel && p.Capabilities().SupportsKernel(kernel),
			local:  local,
		})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("planner: no provider supports iterate subtree %q", n.Describe())
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.kernel != best.kernel {
			if c.kernel {
				best = c
			}
			continue
		}
		if c.local > best.local {
			best = c
		}
	}
	// Ship any dataset the chosen provider lacks, from its host, under
	// an intermediate name.
	var inputs []ShipEdge
	renames := map[string]string{}
	for _, ds := range datasets {
		if _, hosted := best.p.DatasetSchema(ds); hosted {
			continue
		}
		host, sch, ok := pt.reg.FindDataset(ds)
		if !ok {
			return nil, fmt.Errorf("planner: no provider hosts dataset %q", ds)
		}
		scan, err := core.NewScan(ds, sch)
		if err != nil {
			return nil, err
		}
		frag := pt.finalize(&pending{prov: host.Name(), plan: scan})
		renames[ds] = pt.tempName()
		inputs = append(inputs, ShipEdge{FromFragment: frag.ID, StoreAs: renames[ds]})
	}
	plan, err := core.Rewrite(n, func(x core.Node) (core.Node, error) {
		if s, ok := x.(*core.Scan); ok && renames[s.Dataset] != "" {
			return core.NewScan(renames[s.Dataset], s.Schema())
		}
		return x, nil
	})
	if err != nil {
		return nil, err
	}
	return &pending{prov: best.p.Name(), plan: plan, inputs: inputs}, nil
}

// assignOp handles ordinary operators: children are assigned first, then
// the operator is placed on the supporting provider holding the largest
// child (by estimated bytes); other children's results are shipped in.
func (pt *partitioner) assignOp(n core.Node) (*pending, error) {
	kids := n.Children()
	pends := make([]*pending, len(kids))
	for i, c := range kids {
		p, err := pt.assign(c)
		if err != nil {
			return nil, err
		}
		pends[i] = p
	}
	supp := pt.supporters(n.Kind())
	if len(supp) == 0 {
		return nil, fmt.Errorf("planner: no provider supports operator %v", n.Kind())
	}
	suppSet := map[string]bool{}
	for _, p := range supp {
		suppSet[p.Name()] = true
	}

	// Vote: each pinned child weighs its provider by estimated bytes.
	weights := map[string]float64{}
	for i, p := range pends {
		if p.prov != "" && suppSet[p.prov] {
			weights[p.prov] += pt.est.Bytes(kids[i])
		}
	}
	target := ""
	bestW := -1.0
	for _, p := range supp { // registry order breaks ties deterministically
		if w, ok := weights[p.Name()]; ok && w > bestW {
			target = p.Name()
			bestW = w
		}
	}
	if target == "" {
		// No pinned child's provider supports this op.
		allWild := true
		for _, p := range pends {
			if p.prov != "" {
				allWild = false
				break
			}
		}
		if allWild {
			// Stay unpinned only if the whole merged plan remains
			// executable somewhere; resolved at the root.
			merged, err := pt.merge(n, pends, "")
			if err == nil && merged != nil {
				return merged, nil
			}
		}
		target = supp[0].Name()
	}
	return pt.merge(n, pends, target)
}

// merge inlines children running on the target provider and converts the
// rest into ship edges + temp scans. target == "" keeps the pending
// unpinned (all children must be unpinned too).
func (pt *partitioner) merge(n core.Node, pends []*pending, target string) (*pending, error) {
	out := &pending{prov: target}
	newKids := make([]core.Node, len(pends))
	targetProv, _ := pt.reg.Get(target)
	for i, p := range pends {
		samePlace := p.prov == target
		if p.prov == "" && target != "" {
			// Wildcard child joins the target if the target can run it.
			if targetProv != nil {
				if ok, _ := targetProv.Capabilities().SupportsPlan(p.plan); ok {
					samePlace = true
				}
			}
		}
		if target == "" && p.prov == "" {
			samePlace = true
		}
		if samePlace {
			newKids[i] = p.plan
			out.inputs = append(out.inputs, p.inputs...)
			continue
		}
		// Ship: finalize the child as its own fragment and scan its
		// result under a temp name.
		if p.prov == "" {
			p.prov = pt.anySupporter(p.plan)
			if p.prov == "" {
				return nil, fmt.Errorf("planner: no provider supports subplan %q", p.plan.Describe())
			}
		}
		frag := pt.finalize(p)
		tmp := pt.tempName()
		scan, err := core.NewScan(tmp, stripDims(p.plan.Schema()))
		if err != nil {
			return nil, err
		}
		// Preserve dimension tags across the ship.
		var leaf core.Node = scan
		if dims := p.plan.Schema().DimNames(); len(dims) > 0 {
			leaf, err = core.NewAsArray(scan, dims)
			if err != nil {
				return nil, err
			}
		}
		newKids[i] = leaf
		out.inputs = append(out.inputs, ShipEdge{FromFragment: frag.ID, StoreAs: tmp})
	}
	plan, err := n.WithChildren(newKids)
	if err != nil {
		return nil, fmt.Errorf("planner: rebuild %v: %w", n.Kind(), err)
	}
	out.plan = plan
	return out, nil
}

// stripDims drops dimension tags for the shipped-table scan; tags are
// reapplied via AsArray so the receiving provider needs no catalog
// knowledge of the temp table.
func stripDims(s schema.Schema) schema.Schema {
	return s.DropDims()
}
