package graph

import (
	"fmt"
	"sync/atomic"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/provider"
	"nexus/internal/schema"
	"nexus/internal/table"
)

// Kernel names advertised in the provider's capability set and targeted
// by the planner's intent recognition.
const (
	KernelPageRank            = "pagerank"
	KernelConnectedComponents = "cc"
	KernelSSSP                = "sssp"
)

// Engine is the graph-analytics provider: relational core plus control
// iteration, with native kernels substituted for recognized iterate
// shapes.
type Engine struct {
	exec.Engine
	*exec.Tables

	// kernelCalls counts native-kernel substitutions, observable by the
	// intent-preservation experiment.
	kernelCalls atomic.Int64
}

var _ provider.Provider = (*Engine)(nil)

// New returns an empty graph engine. Its capabilities are the
// relational core and control iteration (no array operators, no
// matmul), plus the native kernels.
func New(name string) *Engine {
	e := &Engine{Tables: exec.NewTables("graph")}
	caps := provider.NewCapabilities(
		core.KScan, core.KLiteral, core.KVar, core.KLet,
		core.KFilter, core.KProject, core.KRename, core.KExtend,
		core.KJoin, core.KProduct, core.KGroupAgg, core.KDistinct,
		core.KSort, core.KLimit, core.KUnion,
		core.KIterate,
	).WithKernels(KernelPageRank, KernelConnectedComponents, KernelSSSP)
	e.Engine = exec.NewEngine("graph", name, caps, e.Dataset, e.override)
	return e
}

// KernelCalls returns how many plans were executed by native kernels.
func (e *Engine) KernelCalls() int64 { return e.kernelCalls.Load() }

// override substitutes native kernels for recognized plan shapes. The
// recognizers only fire on whole Let/Iterate subtrees, so partial matches
// fall through to the generic loop untouched.
func (e *Engine) override(n core.Node, env *exec.Env, rec exec.RecFunc) (*table.Table, bool, error) {
	switch n.Kind() {
	case core.KLet, core.KIterate:
	default:
		return nil, false, nil
	}
	if spec, ok := RecognizePageRank(n); ok {
		t, err := e.runPageRank(spec)
		if err != nil {
			return nil, false, err
		}
		e.kernelCalls.Add(1)
		return t, true, nil
	}
	if edges, vertices, ok := RecognizeConnectedComponents(n); ok {
		t, err := e.runCC(edges, vertices, n.Schema())
		if err != nil {
			return nil, false, err
		}
		e.kernelCalls.Add(1)
		return t, true, nil
	}
	if edges, vertices, src, ok := RecognizeSSSP(n); ok {
		t, err := e.runSSSP(edges, vertices, src)
		if err != nil {
			return nil, false, err
		}
		e.kernelCalls.Add(1)
		return t, true, nil
	}
	return nil, false, nil
}

func (e *Engine) csrFor(edgesName string, n int) (*CSR, error) {
	edges, ok := e.Dataset(edgesName)
	if !ok {
		return nil, fmt.Errorf("graph: unknown dataset %q", edgesName)
	}
	return BuildCSR(edges, n)
}

func (e *Engine) vertexCount(verticesName string) (int, error) {
	v, ok := e.Dataset(verticesName)
	if !ok {
		return 0, fmt.Errorf("graph: unknown dataset %q", verticesName)
	}
	return v.NumRows(), nil
}

func (e *Engine) runPageRank(spec *PageRankSpec) (*table.Table, error) {
	nv, err := e.vertexCount(spec.VerticesDataset)
	if err != nil {
		return nil, err
	}
	if nv != spec.N {
		return nil, fmt.Errorf("graph: pagerank plan says %d vertices, dataset has %d", spec.N, nv)
	}
	csr, err := e.csrFor(spec.EdgesDataset, spec.N)
	if err != nil {
		return nil, err
	}
	rank, _ := PageRankNative(csr, spec.Damping, spec.MaxIters, spec.Tol)
	return RankTable(rank), nil
}

func (e *Engine) runCC(edgesName, verticesName string, outSchema schema.Schema) (*table.Table, error) {
	n, err := e.vertexCount(verticesName)
	if err != nil {
		return nil, err
	}
	csr, err := e.csrFor(edgesName, n)
	if err != nil {
		return nil, err
	}
	labels := ConnectedComponentsNative(csr)
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i)
	}
	t := table.MustNew(LabelSchema(), []*table.Column{
		table.IntColumn(vs),
		table.IntColumn(labels),
	})
	if !t.Schema().EqualIgnoreDims(outSchema) {
		return nil, fmt.Errorf("graph: cc kernel schema %v does not match plan %v", t.Schema(), outSchema)
	}
	return t, nil
}

func (e *Engine) runSSSP(edgesName, verticesName string, src int64) (*table.Table, error) {
	n, err := e.vertexCount(verticesName)
	if err != nil {
		return nil, err
	}
	csr, err := e.csrFor(edgesName, n)
	if err != nil {
		return nil, err
	}
	dist := BFSNative(csr, int(src))
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i)
	}
	return table.MustNew(DistSchema(), []*table.Column{
		table.IntColumn(vs),
		table.FloatColumn(dist),
	}), nil
}
