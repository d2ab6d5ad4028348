// Package exec implements the generic execution runtime shared by every
// nexus engine: a recursive evaluator for the full Big Data algebra over
// columnar tables. Engines specialize it through the Override hook — the
// array engine substitutes dense-array kernels, the linear-algebra engine
// substitutes blocked matmul, the graph engine substitutes native
// iterative kernels — and fall back to this runtime for everything else.
// That fallback is what makes every operator "translatable to a back-end
// system (or a combination of such systems)" (desideratum D2).
package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"nexus/internal/core"
	"nexus/internal/expr"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Env carries variable bindings (Iterate loop variables and Let
// bindings) during evaluation. Bindings shadow outward.
type Env struct {
	parent *Env
	name   string
	val    *table.Table
}

// Bind returns a child environment with one more binding.
func (e *Env) Bind(name string, t *table.Table) *Env {
	return &Env{parent: e, name: name, val: t}
}

// Lookup resolves a variable, innermost binding first.
func (e *Env) Lookup(name string) (*table.Table, bool) {
	for env := e; env != nil; env = env.parent {
		if env.name == name {
			return env.val, true
		}
	}
	return nil, false
}

// RecFunc recursively evaluates a sub-plan in an environment; Override
// implementations use it to evaluate their children.
type RecFunc func(n core.Node, env *Env) (*table.Table, error)

// OverrideFunc is an engine's native-kernel hook: consulted for every
// node, it may take over the node's evaluation (handled=true).
type OverrideFunc func(n core.Node, env *Env, rec RecFunc) (t *table.Table, handled bool, err error)

// Runtime executes algebra plans. Datasets resolves Scan leaves;
// Override, when non-nil, is consulted for every node.
type Runtime struct {
	Datasets func(name string) (*table.Table, bool)
	Override OverrideFunc

	// Parallelism caps the morsel worker pool used by filter, extend and
	// hash-join evaluation: 0 means one worker per available CPU, 1 runs
	// everything on the calling goroutine.
	Parallelism int

	// Cache memoizes compiled expressions across operators, micro-batches
	// and Iterate iterations. Nil means the runtime lazily creates a
	// private cache; engines inject a shared one to persist it across
	// plan executions.
	Cache *ExprCache

	// Trace, when non-nil, records per-node calls, output rows and
	// inclusive wall time — the data behind EXPLAIN ANALYZE. Tracing
	// costs a clock read and a map update per node evaluation, so it is
	// attached per-query, never left on.
	Trace *Trace

	// Stats accumulate across Run calls; callers may reset between runs.
	Stats Stats
}

// Stats counts work done by the runtime, reported by the benchmark
// harness. Counters are updated atomically, so a Runtime (or a shared
// Stats snapshot) stays consistent under parallel morsel execution.
type Stats struct {
	NodesExecuted int64
	RowsProduced  int64
	Iterations    int64
}

// Run evaluates a closed plan (no free variables).
func (r *Runtime) Run(plan core.Node) (*table.Table, error) {
	if fv := core.FreeVars(plan); len(fv) > 0 {
		return nil, fmt.Errorf("exec: plan has free variables %v", fv)
	}
	return r.Eval(plan, nil)
}

// Eval evaluates a plan in an environment.
func (r *Runtime) Eval(n core.Node, env *Env) (*table.Table, error) {
	if r.Trace == nil {
		return r.eval(n, env)
	}
	start := time.Now()
	t, err := r.eval(n, env)
	if err == nil && n != nil {
		rows := 0
		if t != nil {
			rows = t.NumRows()
		}
		r.Trace.record(n, rows, time.Since(start))
	}
	return t, err
}

func (r *Runtime) eval(n core.Node, env *Env) (*table.Table, error) {
	if n == nil {
		return nil, fmt.Errorf("exec: nil plan")
	}
	if r.Override != nil {
		t, handled, err := r.Override(n, env, r.Eval)
		if err != nil {
			return nil, err
		}
		if handled {
			atomic.AddInt64(&r.Stats.NodesExecuted, 1)
			if t != nil {
				atomic.AddInt64(&r.Stats.RowsProduced, int64(t.NumRows()))
			}
			countOp(n.Kind())
			return t, nil
		}
	}
	t, err := r.evalGeneric(n, env)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&r.Stats.NodesExecuted, 1)
	atomic.AddInt64(&r.Stats.RowsProduced, int64(t.NumRows()))
	countOp(n.Kind())
	return t, nil
}

func (r *Runtime) evalGeneric(n core.Node, env *Env) (*table.Table, error) {
	switch x := n.(type) {
	case *core.Scan:
		if r.Datasets == nil {
			return nil, fmt.Errorf("exec: no dataset resolver for scan %q", x.Dataset)
		}
		t, ok := r.Datasets(x.Dataset)
		if !ok {
			return nil, fmt.Errorf("exec: unknown dataset %q", x.Dataset)
		}
		if !t.Schema().EqualIgnoreDims(x.Schema()) {
			return nil, fmt.Errorf("exec: dataset %q schema %v does not match plan schema %v", x.Dataset, t.Schema(), x.Schema())
		}
		// Present the dataset under the plan's schema so dimension tags
		// declared in the plan apply.
		return t.WithSchema(x.Schema())
	case *core.Literal:
		return x.Table, nil
	case *core.Var:
		t, ok := env.Lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("exec: unbound variable %q", x.Name)
		}
		return t, nil
	case *core.Filter:
		return r.evalFilter(x, env)
	case *core.Project:
		return r.evalProject(x, env)
	case *core.Rename:
		in, err := r.Eval(x.Children()[0], env)
		if err != nil {
			return nil, err
		}
		return in.WithSchema(x.Schema())
	case *core.Extend:
		return r.evalExtend(x, env)
	case *core.Join:
		return r.evalJoin(x, env)
	case *core.Product:
		return r.evalProduct(x, env)
	case *core.GroupAgg:
		in, err := r.Eval(x.Children()[0], env)
		if err != nil {
			return nil, err
		}
		return groupAggregate(r, in, x.Keys, x.Aggs, x.Schema())
	case *core.Distinct:
		return r.evalDistinct(x, env)
	case *core.Sort:
		return r.evalSort(x, env)
	case *core.Limit:
		in, err := r.Eval(x.Children()[0], env)
		if err != nil {
			return nil, err
		}
		lo := int(x.Offset)
		hi := lo + int(x.N)
		return in.Slice(lo, hi), nil
	case *core.Union:
		return r.evalUnion(x, env)
	case *core.Except:
		return r.evalExcept(x, env)
	case *core.Intersect:
		return r.evalIntersect(x, env)
	case *core.AsArray, *core.DropDims:
		in, err := r.Eval(n.Children()[0], env)
		if err != nil {
			return nil, err
		}
		return in.WithSchema(n.Schema())
	case *core.SliceDim:
		return r.evalSliceDim(x, env)
	case *core.Dice:
		return r.evalDice(x, env)
	case *core.Transpose:
		return r.evalTranspose(x, env)
	case *core.Window:
		in, err := r.Eval(x.Children()[0], env)
		if err != nil {
			return nil, err
		}
		return windowAggregate(in, x)
	case *core.ReduceDims:
		in, err := r.Eval(x.Children()[0], env)
		if err != nil {
			return nil, err
		}
		// Desugar: group by the surviving dimensions.
		keys := x.Schema().DimNames()
		out, err := groupAggregate(r, in, keys, x.Aggs, x.Schema().DropDims())
		if err != nil {
			return nil, err
		}
		return out.WithSchema(x.Schema())
	case *core.Fill:
		in, err := r.Eval(x.Children()[0], env)
		if err != nil {
			return nil, err
		}
		return fillDense(in, x.Default)
	case *core.Shift:
		return r.evalShift(x, env)
	case *core.MatMul:
		return r.evalMatMulSparse(x, env)
	case *core.ElemWise:
		return r.evalElemWise(x, env)
	case *core.Iterate:
		return r.evalIterate(x, env)
	case *core.Let:
		bound, err := r.Eval(x.Bound(), env)
		if err != nil {
			return nil, err
		}
		return r.Eval(x.In(), env.Bind(x.Name, bound))
	}
	return nil, fmt.Errorf("exec: unsupported operator %v", n.Kind())
}

func (r *Runtime) evalFilter(x *core.Filter, env *Env) (*table.Table, error) {
	in, err := r.Eval(x.Children()[0], env)
	if err != nil {
		return nil, err
	}
	c, err := r.compile(x.Pred, in.Schema())
	if err != nil {
		return nil, fmt.Errorf("exec: filter: %w", err)
	}
	sel, err := r.selectRows(c, in)
	if err != nil {
		return nil, fmt.Errorf("exec: filter: %w", err)
	}
	return in.Gather(sel), nil
}

// selectRows evaluates a compiled predicate into a selection vector,
// chunking the input into morsels across the worker pool when it pays.
func (r *Runtime) selectRows(c *expr.Compiled, in *table.Table) ([]int, error) {
	n := in.NumRows()
	w := r.workers()
	if w <= 1 || n < 2*morselRows {
		return c.AppendSelected(make([]int, 0, n/2+1), in)
	}
	parts := make([][]int, morselCount(n))
	err := forEachMorsel(w, n, func(m, lo, hi int) error {
		sel, err := c.AppendSelected(nil, in.Slice(lo, hi))
		if err != nil {
			return err
		}
		for i := range sel {
			sel[i] += lo
		}
		parts[m] = sel
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	sel := make([]int, 0, total)
	for _, p := range parts {
		sel = append(sel, p...)
	}
	return sel, nil
}

// evalColumn evaluates a compiled expression over all rows, splitting into
// parallel morsels when it pays, and coerces the result to want (use
// value.KindNull to keep the runtime kind).
func (r *Runtime) evalColumn(c *expr.Compiled, in *table.Table, want value.Kind) (*table.Column, error) {
	n := in.NumRows()
	w := r.workers()
	if w <= 1 || n < 2*morselRows {
		col, err := c.EvalBatch(in)
		if err != nil {
			return nil, err
		}
		if want != value.KindNull {
			return coerceColumn(col, want)
		}
		return col, nil
	}
	parts := make([]*table.Column, morselCount(n))
	err := forEachMorsel(w, n, func(m, lo, hi int) error {
		col, err := c.EvalBatch(in.Slice(lo, hi))
		if err != nil {
			return err
		}
		if want != value.KindNull {
			if col, err = coerceColumn(col, want); err != nil {
				return err
			}
		}
		parts[m] = col
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := table.NewColumn(parts[0].Kind(), n)
	for _, p := range parts {
		if err := out.AppendColumn(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *Runtime) evalProject(x *core.Project, env *Env) (*table.Table, error) {
	in, err := r.Eval(x.Children()[0], env)
	if err != nil {
		return nil, err
	}
	positions := make([]int, len(x.Cols))
	for i, c := range x.Cols {
		p := in.Schema().IndexOf(c)
		if p < 0 {
			return nil, fmt.Errorf("exec: project: no column %q", c)
		}
		positions[i] = p
	}
	out := in.Project(positions)
	return out.WithSchema(x.Schema())
}

func (r *Runtime) evalExtend(x *core.Extend, env *Env) (*table.Table, error) {
	in, err := r.Eval(x.Children()[0], env)
	if err != nil {
		return nil, err
	}
	cols := make([]*table.Column, 0, in.NumCols()+len(x.Defs))
	for i := 0; i < in.NumCols(); i++ {
		cols = append(cols, in.Col(i))
	}
	for di, d := range x.Defs {
		c, err := r.compile(d.E, in.Schema())
		if err != nil {
			return nil, fmt.Errorf("exec: extend %q: %w", d.Name, err)
		}
		// The schema fixed the output kind at plan time; coerce numeric
		// columns if the runtime produced the other numeric kind.
		want := x.Schema().At(in.NumCols() + di).Kind
		col, err := r.evalColumn(c, in, want)
		if err != nil {
			return nil, fmt.Errorf("exec: extend %q: %w", d.Name, err)
		}
		cols = append(cols, col)
	}
	return table.New(x.Schema(), cols)
}

// coerceColumn converts between numeric column kinds when an expression's
// runtime kind differs from the statically inferred one (e.g. NULL
// literals typed as int64).
func coerceColumn(c *table.Column, want value.Kind) (*table.Column, error) {
	if c.Kind() == want {
		return c, nil
	}
	out := table.NewColumn(want, c.Len())
	for i := 0; i < c.Len(); i++ {
		v := c.Value(i)
		if v.IsNull() {
			if err := out.Append(value.Null); err != nil {
				return nil, err
			}
			continue
		}
		switch want {
		case value.KindFloat64:
			f, ok := v.AsFloat()
			if !ok {
				return nil, fmt.Errorf("exec: cannot coerce %v to float64", v.Kind())
			}
			if err := out.Append(value.NewFloat(f)); err != nil {
				return nil, err
			}
		case value.KindInt64:
			iv, ok := v.AsInt()
			if !ok {
				return nil, fmt.Errorf("exec: cannot coerce %v to int64", v.Kind())
			}
			if err := out.Append(value.NewInt(iv)); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("exec: cannot coerce %v to %v", v.Kind(), want)
		}
	}
	return out, nil
}

func (r *Runtime) evalSort(x *core.Sort, env *Env) (*table.Table, error) {
	in, err := r.Eval(x.Children()[0], env)
	if err != nil {
		return nil, err
	}
	keys := make([]table.SortKey, len(x.Specs))
	for i, s := range x.Specs {
		p := in.Schema().IndexOf(s.Col)
		if p < 0 {
			return nil, fmt.Errorf("exec: sort: no column %q", s.Col)
		}
		keys[i] = table.SortKey{Col: p, Desc: s.Desc}
	}
	return in.Sort(keys), nil
}

func (r *Runtime) evalDistinct(x *core.Distinct, env *Env) (*table.Table, error) {
	in, err := r.Eval(x.Children()[0], env)
	if err != nil {
		return nil, err
	}
	return distinctRows(in), nil
}

// rowKeyer encodes whole rows of a table into canonical key bytes through
// one reusable buffer, shared by the key-encoded operators (distinct,
// union, except, intersect) so each row costs zero steady-state
// allocations to encode.
type rowKeyer struct {
	t   *table.Table
	buf []byte
}

func newRowKeyer(t *table.Table) *rowKeyer {
	return &rowKeyer{t: t, buf: make([]byte, 0, 64)}
}

// key returns the canonical encoding of row i. The result aliases the
// keyer's buffer and is only valid until the next call; map operations
// on string(key) are safe because Go copies the bytes on conversion.
func (k *rowKeyer) key(i int) []byte {
	k.buf = k.buf[:0]
	for c := 0; c < k.t.NumCols(); c++ {
		k.buf = value.AppendKey(k.buf, k.t.Value(i, c))
	}
	return k.buf
}

func distinctRows(in *table.Table) *table.Table {
	seen := make(map[string]struct{}, in.NumRows())
	idx := make([]int, 0, in.NumRows())
	keyer := newRowKeyer(in)
	for i := 0; i < in.NumRows(); i++ {
		k := string(keyer.key(i))
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			idx = append(idx, i)
		}
	}
	return in.Gather(idx)
}

func (r *Runtime) evalUnion(x *core.Union, env *Env) (*table.Table, error) {
	l, err := r.Eval(x.Children()[0], env)
	if err != nil {
		return nil, err
	}
	rt, err := r.Eval(x.Children()[1], env)
	if err != nil {
		return nil, err
	}
	// Align the right input to the left schema (kinds already checked).
	rt, err = rt.WithSchema(l.Schema())
	if err != nil {
		return nil, fmt.Errorf("exec: union: %w", err)
	}
	out, err := l.Concat(rt)
	if err != nil {
		return nil, fmt.Errorf("exec: union: %w", err)
	}
	if !x.All {
		out = distinctRows(out)
	}
	return out.WithSchema(x.Schema())
}

func rowKeySet(t *table.Table) map[string]struct{} {
	set := make(map[string]struct{}, t.NumRows())
	keyer := newRowKeyer(t)
	for i := 0; i < t.NumRows(); i++ {
		set[string(keyer.key(i))] = struct{}{}
	}
	return set
}

func (r *Runtime) evalExcept(x *core.Except, env *Env) (*table.Table, error) {
	l, err := r.Eval(x.Children()[0], env)
	if err != nil {
		return nil, err
	}
	rt, err := r.Eval(x.Children()[1], env)
	if err != nil {
		return nil, err
	}
	right := rowKeySet(rt)
	ld := distinctRows(l)
	idx := make([]int, 0, ld.NumRows())
	keyer := newRowKeyer(ld)
	for i := 0; i < ld.NumRows(); i++ {
		if _, hit := right[string(keyer.key(i))]; !hit {
			idx = append(idx, i)
		}
	}
	return ld.Gather(idx).WithSchema(x.Schema())
}

func (r *Runtime) evalIntersect(x *core.Intersect, env *Env) (*table.Table, error) {
	l, err := r.Eval(x.Children()[0], env)
	if err != nil {
		return nil, err
	}
	rt, err := r.Eval(x.Children()[1], env)
	if err != nil {
		return nil, err
	}
	right := rowKeySet(rt)
	ld := distinctRows(l)
	idx := make([]int, 0, ld.NumRows())
	keyer := newRowKeyer(ld)
	for i := 0; i < ld.NumRows(); i++ {
		if _, hit := right[string(keyer.key(i))]; hit {
			idx = append(idx, i)
		}
	}
	return ld.Gather(idx).WithSchema(x.Schema())
}
