package nexus

import (
	"fmt"
	"time"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/federation"
	"nexus/internal/obs/trace"
	"nexus/internal/planner"
	"nexus/internal/schema"
	"nexus/internal/server"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// Internal aliases keeping session.go readable without exposing the core
// package in public signatures.
type coreNode = core.Node

func coreScan(name string, sch schema.Schema) (core.Node, error) { return core.NewScan(name, sch) }
func coreLiteral(t *table.Table) (core.Node, error)              { return core.NewLiteral(t) }

func decodeSchema(b []byte) (schema.Schema, error) {
	d := wire.NewDecoder(b)
	s := wire.GetSchema(d)
	return s, d.Err()
}

// Query is an immutable, error-carrying query builder over the Big Data
// algebra. Every method returns a new Query; the first construction error
// sticks and is reported by Collect, so chains need a single check.
type Query struct {
	s      *Session
	node   core.Node
	err    error
	traced bool
}

func (q *Query) derive(n core.Node, err error) *Query {
	if q.err != nil {
		return q
	}
	if err != nil {
		return &Query{s: q.s, err: err, traced: q.traced}
	}
	return &Query{s: q.s, node: n, traced: q.traced}
}

// Trace marks the query for end-to-end distributed tracing: Collect
// opens a span — under the session's trace when a connection was made
// with ConnectOptions.Trace, else a fresh root — and propagates its
// context to every server a fragment runs on, so admission, exec
// kernels and storage scans there join this query's trace. The trace
// id is reported by Metrics.TraceID (CollectWithMetrics) and at each
// node's /debug/traces endpoint.
func (q *Query) Trace() *Query {
	nq := *q
	nq.traced = true
	return &nq
}

// Err returns the first construction error, if any.
func (q *Query) Err() error { return q.err }

// Plan returns the underlying algebra plan (for Explain-style tooling).
func (q *Query) Plan() (core.Node, error) {
	if q.err != nil {
		return nil, q.err
	}
	return q.node, nil
}

// Schema renders the query's output schema.
func (q *Query) Schema() (string, error) {
	if q.err != nil {
		return "", q.err
	}
	return q.node.Schema().String(), nil
}

// Where keeps rows satisfying the predicate.
func (q *Query) Where(pred Expr) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewFilter(q.node, pred))
}

// Select keeps the named columns.
func (q *Query) Select(cols ...string) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewProject(q.node, cols))
}

// Extend appends a computed column.
func (q *Query) Extend(name string, e Expr) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewExtend(q.node, []core.ColDef{{Name: name, E: e}}))
}

// Rename renames one column.
func (q *Query) Rename(from, to string) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewRename(q.node, []string{from}, []string{to}))
}

// Join equijoins with another query.
func (q *Query) Join(other *Query, typ JoinType, keys ...JoinKey) *Query {
	return q.JoinWhere(other, typ, nil, keys...)
}

// JoinWhere equijoins with an extra residual predicate over the combined
// schema.
func (q *Query) JoinWhere(other *Query, typ JoinType, residual Expr, keys ...JoinKey) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return &Query{s: q.s, err: other.err}
	}
	lk := make([]string, len(keys))
	rk := make([]string, len(keys))
	for i, k := range keys {
		lk[i] = k.Left
		rk[i] = k.Right
	}
	return q.derive(core.NewJoin(q.node, other.node, typ, lk, rk, residual))
}

// Product crosses with another query.
func (q *Query) Product(other *Query) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return &Query{s: q.s, err: other.err}
	}
	return q.derive(core.NewProduct(q.node, other.node))
}

// GroupedQuery is the intermediate state of a GroupBy; finish with Agg.
type GroupedQuery struct {
	q    *Query
	keys []string
}

// GroupBy starts a grouped aggregation; complete it with Agg.
func (q *Query) GroupBy(keys ...string) *GroupedQuery { return &GroupedQuery{q: q, keys: keys} }

// Agg finishes a grouped aggregation.
func (g *GroupedQuery) Agg(aggs ...AggSpec) *Query {
	if g.q.err != nil {
		return g.q
	}
	return g.q.derive(core.NewGroupAgg(g.q.node, g.keys, aggs))
}

// Agg aggregates the whole input to one row.
func (q *Query) Agg(aggs ...AggSpec) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewGroupAgg(q.node, nil, aggs))
}

// Distinct removes duplicate rows.
func (q *Query) Distinct() *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewDistinct(q.node))
}

// OrderBy sorts by the keys.
func (q *Query) OrderBy(keys ...SortKey) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewSort(q.node, keys))
}

// Limit keeps the first n rows.
func (q *Query) Limit(n int64) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewLimit(q.node, n, 0))
}

// LimitOffset keeps rows [offset, offset+n).
func (q *Query) LimitOffset(n, offset int64) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewLimit(q.node, n, offset))
}

// Union appends another query's rows (set semantics unless all).
func (q *Query) Union(other *Query, all bool) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return &Query{s: q.s, err: other.err}
	}
	return q.derive(core.NewUnion(q.node, other.node, all))
}

// Except removes rows present in the other query (set semantics).
func (q *Query) Except(other *Query) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return &Query{s: q.s, err: other.err}
	}
	return q.derive(core.NewExcept(q.node, other.node))
}

// Intersect keeps rows present in both queries (set semantics).
func (q *Query) Intersect(other *Query) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return &Query{s: q.s, err: other.err}
	}
	return q.derive(core.NewIntersect(q.node, other.node))
}

// AsArray tags the named int64 columns as dimensions.
func (q *Query) AsArray(dims ...string) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewAsArray(q.node, dims))
}

// DropDims clears all dimension tags.
func (q *Query) DropDims() *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewDropDims(q.node))
}

// Slice fixes a dimension at a coordinate, removing it.
func (q *Query) Slice(dim string, at int64) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewSliceDim(q.node, dim, at))
}

// Dice restricts dimensions to a box.
func (q *Query) Dice(bounds ...DimBound) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewDice(q.node, bounds))
}

// Transpose reorders the dimensions.
func (q *Query) Transpose(perm ...string) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewTranspose(q.node, perm))
}

// Window computes a moving-window aggregate over the dimension box.
func (q *Query) Window(extents []DimExtent, agg AggFunc, arg, as string) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewWindow(q.node, extents, agg, arg, as))
}

// ReduceDims aggregates away the listed dimensions.
func (q *Query) ReduceDims(over []string, aggs ...AggSpec) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewReduceDims(q.node, over, aggs))
}

// Fill densifies the dimension box with a default cell value (pass nil
// for NULL).
func (q *Query) Fill(def any) *Query {
	if q.err != nil {
		return q
	}
	v, err := goValue(def)
	if err != nil {
		return &Query{s: q.s, err: err}
	}
	return q.derive(core.NewFill(q.node, v))
}

// Shift translates a dimension's coordinates.
func (q *Query) Shift(dim string, offset int64) *Query {
	if q.err != nil {
		return q
	}
	return q.derive(core.NewShift(q.node, dim, offset))
}

// MatMul multiplies this 2-D array query with another; the result's value
// attribute is named as.
func (q *Query) MatMul(other *Query, as string) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return &Query{s: q.s, err: other.err}
	}
	return q.derive(core.NewMatMul(q.node, other.node, as))
}

// ElemWise aligns two arrays on their dimensions and combines their value
// attributes with +, -, * or /.
func (q *Query) ElemWise(other *Query, op string, as string) *Query {
	if q.err != nil {
		return q
	}
	if other.err != nil {
		return &Query{s: q.s, err: other.err}
	}
	var bop value.BinOp
	switch op {
	case "+":
		bop = value.OpAdd
	case "-":
		bop = value.OpSub
	case "*":
		bop = value.OpMul
	case "/":
		bop = value.OpDiv
	default:
		return &Query{s: q.s, err: fmt.Errorf("nexus: elemwise op must be one of + - * /, got %q", op)}
	}
	return q.derive(core.NewElemWise(q.node, other.node, bop, as))
}

// Iterate builds a control-iteration fixpoint: body receives a query
// denoting the previous iteration's state and returns the next state
// (same schema). A nil conv runs exactly maxIters iterations.
func (s *Session) Iterate(loopVar string, init *Query, body func(loop *Query) *Query, maxIters int, conv *Convergence) *Query {
	if init.err != nil {
		return init
	}
	v, err := core.NewVar(loopVar, init.node.Schema())
	if err != nil {
		return &Query{s: s, err: err}
	}
	bodyQ := body(&Query{s: s, node: v})
	if bodyQ.err != nil {
		return bodyQ
	}
	return init.derive(core.NewIterate(init.node, bodyQ.node, loopVar, maxIters, conv))
}

// Let binds a sub-query once and makes it available to the body as a
// variable reference (common subexpression).
func (s *Session) Let(name string, bound *Query, body func(ref *Query) *Query) *Query {
	if bound.err != nil {
		return bound
	}
	v, err := core.NewVar(name, bound.node.Schema())
	if err != nil {
		return &Query{s: s, err: err}
	}
	bodyQ := body(&Query{s: s, node: v})
	if bodyQ.err != nil {
		return bodyQ
	}
	return bound.derive(core.NewLet(name, bound.node, bodyQ.node))
}

func goValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.NewBool(x), nil
	case int:
		return value.NewInt(int64(x)), nil
	case int64:
		return value.NewInt(x), nil
	case float64:
		return value.NewFloat(x), nil
	case string:
		return value.NewString(x), nil
	}
	return value.Null, fmt.Errorf("nexus: unsupported value type %T", v)
}

// Explain returns the optimized plan and its fragment assignment as text.
func (q *Query) Explain() (string, error) {
	if q.err != nil {
		return "", q.err
	}
	opt, err := planner.Optimize(q.node, q.s.opts)
	if err != nil {
		return "", err
	}
	out := "plan:\n" + core.Explain(opt)
	pp, err := planner.Partition(opt, q.s.reg, q.s.opts)
	if err != nil {
		return out, nil // single-engine sessions may lack providers for parts
	}
	return out + "fragments:\n" + pp.String(), nil
}

// ExplainAnalyze executes the query with a per-operator trace and
// renders the plan annotated with each operator's observed calls,
// output rows and inclusive wall time. Plans that span fragments or run
// on remote providers fall back to whole-query timing — per-operator
// traces need a local runtime.
func (q *Query) ExplainAnalyze() (string, error) {
	if q.err != nil {
		return "", q.err
	}
	opt, err := planner.Optimize(q.node, q.s.opts)
	if err != nil {
		return "", err
	}
	pp, err := planner.Partition(opt, q.s.reg, q.s.opts)
	if err == nil && len(pp.Fragments) == 1 {
		frag := pp.Root()
		if p, ok := q.s.reg.Get(frag.Provider); ok {
			if te, ok := p.(exec.TracedExecutor); ok {
				tr := exec.NewTrace()
				start := time.Now()
				t, err := te.ExecuteTraced(frag.Plan, tr)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("plan (analyzed on %s):\n%stotal: %d rows in %s\n",
					frag.Provider, exec.ExplainAnalyze(frag.Plan, tr),
					t.NumRows(), time.Since(start).Round(time.Microsecond)), nil
			}
		}
	}
	start := time.Now()
	t, m, err := q.CollectWithMetrics()
	if err != nil {
		return "", err
	}
	out, err := q.Explain()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%stotal: %d rows in %s across %d fragments (per-operator timing needs a single local fragment)\n",
		out, t.NumRows(), time.Since(start).Round(time.Microsecond), m.Fragments), nil
}

// Collect optimizes, partitions and executes the query, returning the
// result collection.
func (q *Query) Collect() (*Table, error) {
	t, _, err := q.CollectWithMetrics()
	return t, err
}

// CollectWithMetrics is Collect plus traffic metrics for federated
// executions (zero-valued for single-fragment local plans).
func (q *Query) CollectWithMetrics() (*Table, *Metrics, error) {
	if q.err != nil {
		return nil, nil, q.err
	}
	opt, err := planner.Optimize(q.node, q.s.opts)
	if err != nil {
		return nil, nil, err
	}
	pp, err := planner.Partition(opt, q.s.reg, q.s.opts)
	if err != nil {
		return nil, nil, err
	}
	// A traced query gets a span under the session trace (or a fresh
	// root), whose context rides on every fragment request.
	var sp *trace.Span
	if q.traced {
		if q.s.root != nil {
			sp = q.s.root.Child("query")
		} else {
			sp = trace.Default.NewRoot("query")
		}
	}
	// Single local fragment: skip the coordinator (and its wire codec
	// round trip) entirely.
	if len(pp.Fragments) == 1 {
		frag := pp.Root()
		if p, ok := q.s.reg.Get(frag.Provider); ok {
			if _, isRemote := p.(*remoteProvider); !isRemote {
				var t *table.Table
				if te, ok := p.(exec.TracedExecutor); ok && sp != nil {
					// Trace the local execution the same way a server
					// traces a remote one: per-operator exec spans.
					tr := exec.NewTrace()
					start := time.Now()
					t, err = te.ExecuteTraced(frag.Plan, tr)
					server.EmitPlanSpans(sp.Context(), frag.Plan, tr, start)
				} else {
					t, err = p.Execute(frag.Plan)
				}
				sp.Set(trace.String("provider", frag.Provider))
				sp.End(err)
				if err != nil {
					return nil, nil, err
				}
				return wrapTable(t), &Metrics{Fragments: 1, Trace: toWireTrace(sp.Context())}, nil
			}
		}
	}
	coord := federation.NewCoordinator(q.s.transports...)
	t, m, err := coord.RunTraced(pp, q.s.mode, toWireTrace(sp.Context()))
	sp.End(err)
	if err != nil {
		return nil, m, err
	}
	return wrapTable(t), m, nil
}
