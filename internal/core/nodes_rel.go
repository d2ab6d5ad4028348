package core

import (
	"fmt"
	"strings"

	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// ---------------------------------------------------------------------------
// Leaves

// Scan reads a named dataset. The schema is bound at construction (the
// session resolves names against the provider catalog before building the
// plan), so a plan is self-contained when shipped.
type Scan struct {
	Dataset string
	sch     schema.Schema
}

// NewScan returns a scan of the named dataset with the given schema.
func NewScan(dataset string, sch schema.Schema) (*Scan, error) {
	if dataset == "" {
		return nil, fmt.Errorf("core: scan with empty dataset name")
	}
	return &Scan{Dataset: dataset, sch: sch}, nil
}

// Kind implements Node.
func (n *Scan) Kind() OpKind { return KScan }

// Schema implements Node.
func (n *Scan) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Scan) Children() []Node { return nil }

// WithChildren implements Node.
func (n *Scan) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KScan, len(c), 0); err != nil {
		return nil, err
	}
	return n, nil
}

// Describe implements Node.
func (n *Scan) Describe() string { return fmt.Sprintf("scan %s %v", n.Dataset, n.sch) }

// Literal is an inline table (the algebra's VALUES).
type Literal struct {
	Table *table.Table
}

// NewLiteral wraps a table as a leaf node.
func NewLiteral(t *table.Table) (*Literal, error) {
	if t == nil {
		return nil, fmt.Errorf("core: literal with nil table")
	}
	return &Literal{Table: t}, nil
}

// Kind implements Node.
func (n *Literal) Kind() OpKind { return KLiteral }

// Schema implements Node.
func (n *Literal) Schema() schema.Schema { return n.Table.Schema() }

// Children implements Node.
func (n *Literal) Children() []Node { return nil }

// WithChildren implements Node.
func (n *Literal) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KLiteral, len(c), 0); err != nil {
		return nil, err
	}
	return n, nil
}

// Describe implements Node.
func (n *Literal) Describe() string {
	return fmt.Sprintf("literal %d rows %v", n.Table.NumRows(), n.Table.Schema())
}

// Var references a bound plan: the loop variable of an Iterate or the
// binding of a Let. Its schema is fixed by the binder.
type Var struct {
	Name string
	sch  schema.Schema
}

// NewVar returns a variable reference with the binder-declared schema.
func NewVar(name string, sch schema.Schema) (*Var, error) {
	if name == "" {
		return nil, fmt.Errorf("core: var with empty name")
	}
	return &Var{Name: name, sch: sch}, nil
}

// Kind implements Node.
func (n *Var) Kind() OpKind { return KVar }

// Schema implements Node.
func (n *Var) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Var) Children() []Node { return nil }

// WithChildren implements Node.
func (n *Var) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KVar, len(c), 0); err != nil {
		return nil, err
	}
	return n, nil
}

// Describe implements Node.
func (n *Var) Describe() string { return fmt.Sprintf("var %s %v", n.Name, n.sch) }

// ---------------------------------------------------------------------------
// Relational operators

// Filter keeps rows satisfying a boolean predicate (relational selection;
// named Filter to avoid the LINQ/SQL "select" ambiguity).
type Filter struct {
	Pred  expr.Expr
	child Node
	sch   schema.Schema
}

// NewFilter type-checks the predicate against the child's schema.
func NewFilter(child Node, pred expr.Expr) (*Filter, error) {
	k, err := expr.InferKind(pred, child.Schema())
	if err != nil {
		return nil, fmt.Errorf("core: filter: %w", err)
	}
	if k != value.KindBool && k != value.KindNull {
		return nil, fmt.Errorf("core: filter predicate must be bool, got %v (%s)", k, pred)
	}
	return &Filter{Pred: pred, child: child, sch: child.Schema()}, nil
}

// Kind implements Node.
func (n *Filter) Kind() OpKind { return KFilter }

// Schema implements Node.
func (n *Filter) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Filter) Children() []Node { return []Node{n.child} }

// WithChildren implements Node.
func (n *Filter) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KFilter, len(c), 1); err != nil {
		return nil, err
	}
	return NewFilter(c[0], n.Pred)
}

// Describe implements Node.
func (n *Filter) Describe() string { return "filter " + n.Pred.String() }

// Project keeps the named columns, in the given order.
type Project struct {
	Cols  []string
	child Node
	sch   schema.Schema
}

// NewProject validates the column list against the child's schema.
func NewProject(child Node, cols []string) (*Project, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: project with no columns")
	}
	sch, err := child.Schema().ProjectNames(cols)
	if err != nil {
		return nil, fmt.Errorf("core: project: %w", err)
	}
	return &Project{Cols: append([]string(nil), cols...), child: child, sch: sch}, nil
}

// Kind implements Node.
func (n *Project) Kind() OpKind { return KProject }

// Schema implements Node.
func (n *Project) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Project) Children() []Node { return []Node{n.child} }

// WithChildren implements Node.
func (n *Project) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KProject, len(c), 1); err != nil {
		return nil, err
	}
	return NewProject(c[0], n.Cols)
}

// Describe implements Node.
func (n *Project) Describe() string { return "project " + strings.Join(n.Cols, ", ") }

// Rename renames columns. From and To are parallel slices (a map would
// not have a deterministic wire encoding).
type Rename struct {
	From, To []string
	child    Node
	sch      schema.Schema
}

// NewRename validates and applies the renaming to the schema.
func NewRename(child Node, from, to []string) (*Rename, error) {
	if len(from) != len(to) || len(from) == 0 {
		return nil, fmt.Errorf("core: rename with mismatched or empty name lists")
	}
	m := make(map[string]string, len(from))
	for i := range from {
		m[from[i]] = to[i]
	}
	sch, err := child.Schema().Rename(m)
	if err != nil {
		return nil, fmt.Errorf("core: rename: %w", err)
	}
	return &Rename{
		From:  append([]string(nil), from...),
		To:    append([]string(nil), to...),
		child: child, sch: sch,
	}, nil
}

// Mapping returns the renaming as a map.
func (n *Rename) Mapping() map[string]string {
	m := make(map[string]string, len(n.From))
	for i := range n.From {
		m[n.From[i]] = n.To[i]
	}
	return m
}

// Kind implements Node.
func (n *Rename) Kind() OpKind { return KRename }

// Schema implements Node.
func (n *Rename) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Rename) Children() []Node { return []Node{n.child} }

// WithChildren implements Node.
func (n *Rename) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KRename, len(c), 1); err != nil {
		return nil, err
	}
	return NewRename(c[0], n.From, n.To)
}

// Describe implements Node.
func (n *Rename) Describe() string {
	parts := make([]string, len(n.From))
	for i := range n.From {
		parts[i] = n.From[i] + "→" + n.To[i]
	}
	return "rename " + strings.Join(parts, ", ")
}

// ColDef names a computed column.
type ColDef struct {
	Name string
	E    expr.Expr
}

// Extend appends computed columns to the child's schema (the map/Select
// of LINQ, restricted to width-extension; combine with Project for
// arbitrary maps).
type Extend struct {
	Defs  []ColDef
	child Node
	sch   schema.Schema
}

// NewExtend type-checks each definition against the child's schema
// (definitions may not reference each other; they see only the child).
func NewExtend(child Node, defs []ColDef) (*Extend, error) {
	if len(defs) == 0 {
		return nil, fmt.Errorf("core: extend with no definitions")
	}
	attrs := child.Schema().Attrs()
	for _, d := range defs {
		k, err := expr.InferKind(d.E, child.Schema())
		if err != nil {
			return nil, fmt.Errorf("core: extend %q: %w", d.Name, err)
		}
		if k == value.KindNull {
			k = value.KindInt64
		}
		attrs = append(attrs, schema.Attribute{Name: d.Name, Kind: k})
	}
	sch, err := schema.TryNew(attrs...)
	if err != nil {
		return nil, fmt.Errorf("core: extend: %w", err)
	}
	return &Extend{Defs: append([]ColDef(nil), defs...), child: child, sch: sch}, nil
}

// Kind implements Node.
func (n *Extend) Kind() OpKind { return KExtend }

// Schema implements Node.
func (n *Extend) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Extend) Children() []Node { return []Node{n.child} }

// WithChildren implements Node.
func (n *Extend) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KExtend, len(c), 1); err != nil {
		return nil, err
	}
	return NewExtend(c[0], n.Defs)
}

// Describe implements Node.
func (n *Extend) Describe() string {
	parts := make([]string, len(n.Defs))
	for i, d := range n.Defs {
		parts[i] = d.Name + " = " + d.E.String()
	}
	return "extend " + strings.Join(parts, ", ")
}

// JoinType enumerates the supported join variants.
type JoinType uint8

// Join variants. Full outer join is intentionally absent.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinSemi
	JoinAnti
)

// String returns the join type's name.
func (t JoinType) String() string {
	switch t {
	case JoinInner:
		return "inner"
	case JoinLeft:
		return "left"
	case JoinSemi:
		return "semi"
	case JoinAnti:
		return "anti"
	}
	return fmt.Sprintf("jointype(%d)", uint8(t))
}

// Join is an equijoin on parallel key lists with an optional residual
// predicate evaluated over the concatenated schema. Semi and anti joins
// output only left columns.
type Join struct {
	Type      JoinType
	LeftKeys  []string
	RightKeys []string
	Residual  expr.Expr // may be nil
	left      Node
	right     Node
	sch       schema.Schema
}

// NewJoin validates key lists (same length, comparable kinds) and the
// residual predicate.
func NewJoin(left, right Node, typ JoinType, leftKeys, rightKeys []string, residual expr.Expr) (*Join, error) {
	if len(leftKeys) != len(rightKeys) {
		return nil, fmt.Errorf("core: join key lists differ in length: %d vs %d", len(leftKeys), len(rightKeys))
	}
	ls, rs := left.Schema(), right.Schema()
	for i := range leftKeys {
		li := ls.IndexOf(leftKeys[i])
		if li < 0 {
			return nil, fmt.Errorf("core: join: no left column %q", leftKeys[i])
		}
		ri := rs.IndexOf(rightKeys[i])
		if ri < 0 {
			return nil, fmt.Errorf("core: join: no right column %q", rightKeys[i])
		}
		lk, rk := ls.At(li).Kind, rs.At(ri).Kind
		if lk != rk && !(lk.Numeric() && rk.Numeric()) {
			return nil, fmt.Errorf("core: join key kind mismatch: %s:%v vs %s:%v", leftKeys[i], lk, rightKeys[i], rk)
		}
	}
	var sch schema.Schema
	switch typ {
	case JoinSemi, JoinAnti:
		sch = ls
	case JoinLeft:
		// Left join may introduce NULLs on the right; kinds are unchanged.
		sch = ls.Concat(rs)
	default:
		sch = ls.Concat(rs)
	}
	if residual != nil {
		resSch := ls.Concat(rs) // residual always sees both sides
		k, err := expr.InferKind(residual, resSch)
		if err != nil {
			return nil, fmt.Errorf("core: join residual: %w", err)
		}
		if k != value.KindBool && k != value.KindNull {
			return nil, fmt.Errorf("core: join residual must be bool, got %v", k)
		}
	}
	return &Join{
		Type:      typ,
		LeftKeys:  append([]string(nil), leftKeys...),
		RightKeys: append([]string(nil), rightKeys...),
		Residual:  residual,
		left:      left, right: right, sch: sch,
	}, nil
}

// Kind implements Node.
func (n *Join) Kind() OpKind { return KJoin }

// Schema implements Node.
func (n *Join) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Join) Children() []Node { return []Node{n.left, n.right} }

// WithChildren implements Node.
func (n *Join) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KJoin, len(c), 2); err != nil {
		return nil, err
	}
	return NewJoin(c[0], c[1], n.Type, n.LeftKeys, n.RightKeys, n.Residual)
}

// Describe implements Node.
func (n *Join) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "join %s on ", n.Type)
	for i := range n.LeftKeys {
		if i > 0 {
			b.WriteString(" && ")
		}
		fmt.Fprintf(&b, "%s == %s", n.LeftKeys[i], n.RightKeys[i])
	}
	if n.Residual != nil {
		b.WriteString(" where " + n.Residual.String())
	}
	return b.String()
}

// Product is the cross product of two inputs.
type Product struct {
	left, right Node
	sch         schema.Schema
}

// NewProduct builds a cross product.
func NewProduct(left, right Node) (*Product, error) {
	return &Product{left: left, right: right, sch: left.Schema().Concat(right.Schema())}, nil
}

// Kind implements Node.
func (n *Product) Kind() OpKind { return KProduct }

// Schema implements Node.
func (n *Product) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Product) Children() []Node { return []Node{n.left, n.right} }

// WithChildren implements Node.
func (n *Product) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KProduct, len(c), 2); err != nil {
		return nil, err
	}
	return NewProduct(c[0], c[1])
}

// Describe implements Node.
func (n *Product) Describe() string { return "product" }

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions for GroupAgg, ReduceDims and Window.
const (
	AggSum AggFunc = iota
	AggCount
	AggMin
	AggMax
	AggAvg
	AggCountDistinct
)

// String returns the function's surface name.
func (f AggFunc) String() string {
	switch f {
	case AggSum:
		return "sum"
	case AggCount:
		return "count"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggAvg:
		return "avg"
	case AggCountDistinct:
		return "countd"
	}
	return fmt.Sprintf("agg(%d)", uint8(f))
}

// ParseAggFunc parses an aggregate function name.
func ParseAggFunc(s string) (AggFunc, error) {
	switch s {
	case "sum":
		return AggSum, nil
	case "count":
		return AggCount, nil
	case "min":
		return AggMin, nil
	case "max":
		return AggMax, nil
	case "avg", "mean":
		return AggAvg, nil
	case "countd", "count_distinct":
		return AggCountDistinct, nil
	}
	return AggSum, fmt.Errorf("core: unknown aggregate %q", s)
}

// ResultKind returns the aggregate's output kind given its argument kind.
func (f AggFunc) ResultKind(arg value.Kind) (value.Kind, error) {
	switch f {
	case AggCount, AggCountDistinct:
		return value.KindInt64, nil
	case AggAvg:
		if !arg.Numeric() && arg != value.KindNull {
			return value.KindNull, fmt.Errorf("core: avg over %v", arg)
		}
		return value.KindFloat64, nil
	case AggSum:
		if !arg.Numeric() && arg != value.KindNull {
			return value.KindNull, fmt.Errorf("core: sum over %v", arg)
		}
		if arg == value.KindNull {
			return value.KindInt64, nil
		}
		return arg, nil
	case AggMin, AggMax:
		if arg == value.KindNull {
			return value.KindInt64, nil
		}
		return arg, nil
	}
	return value.KindNull, fmt.Errorf("core: unknown aggregate %v", f)
}

// AggSpec is one aggregate output column: func, argument expression
// (nil for count(*)), and output name.
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr // nil allowed for AggCount
	As   string
}

// String renders the spec.
func (a AggSpec) String() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	return fmt.Sprintf("%s = %s(%s)", a.As, a.Func, arg)
}

// GroupAgg groups by key columns and computes aggregates per group. With
// no keys it aggregates the whole input to one row. Key columns keep
// their dimension tags (grouping by dimensions is the array "regrid"
// pattern); aggregate outputs are untagged.
type GroupAgg struct {
	Keys  []string
	Aggs  []AggSpec
	child Node
	sch   schema.Schema
}

// NewGroupAgg validates keys and aggregate specs.
func NewGroupAgg(child Node, keys []string, aggs []AggSpec) (*GroupAgg, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("core: groupagg with no aggregates")
	}
	cs := child.Schema()
	var attrs []schema.Attribute
	for _, k := range keys {
		i := cs.IndexOf(k)
		if i < 0 {
			return nil, fmt.Errorf("core: groupagg: no key column %q", k)
		}
		attrs = append(attrs, cs.At(i))
	}
	for _, a := range aggs {
		if a.As == "" {
			return nil, fmt.Errorf("core: groupagg: aggregate without output name")
		}
		argKind := value.KindNull
		if a.Arg != nil {
			k, err := expr.InferKind(a.Arg, cs)
			if err != nil {
				return nil, fmt.Errorf("core: groupagg %q: %w", a.As, err)
			}
			argKind = k
		} else if a.Func != AggCount {
			return nil, fmt.Errorf("core: groupagg: %v requires an argument", a.Func)
		}
		rk, err := a.Func.ResultKind(argKind)
		if err != nil {
			return nil, fmt.Errorf("core: groupagg %q: %w", a.As, err)
		}
		attrs = append(attrs, schema.Attribute{Name: a.As, Kind: rk})
	}
	sch, err := schema.TryNew(attrs...)
	if err != nil {
		return nil, fmt.Errorf("core: groupagg: %w", err)
	}
	return &GroupAgg{
		Keys:  append([]string(nil), keys...),
		Aggs:  append([]AggSpec(nil), aggs...),
		child: child, sch: sch,
	}, nil
}

// Kind implements Node.
func (n *GroupAgg) Kind() OpKind { return KGroupAgg }

// Schema implements Node.
func (n *GroupAgg) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *GroupAgg) Children() []Node { return []Node{n.child} }

// WithChildren implements Node.
func (n *GroupAgg) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KGroupAgg, len(c), 1); err != nil {
		return nil, err
	}
	return NewGroupAgg(c[0], n.Keys, n.Aggs)
}

// Describe implements Node.
func (n *GroupAgg) Describe() string {
	parts := make([]string, len(n.Aggs))
	for i, a := range n.Aggs {
		parts[i] = a.String()
	}
	if len(n.Keys) == 0 {
		return "agg " + strings.Join(parts, ", ")
	}
	return "group by " + strings.Join(n.Keys, ", ") + " agg " + strings.Join(parts, ", ")
}

// Distinct removes duplicate rows.
type Distinct struct {
	child Node
	sch   schema.Schema
}

// NewDistinct builds a duplicate-elimination node.
func NewDistinct(child Node) (*Distinct, error) {
	return &Distinct{child: child, sch: child.Schema()}, nil
}

// Kind implements Node.
func (n *Distinct) Kind() OpKind { return KDistinct }

// Schema implements Node.
func (n *Distinct) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Distinct) Children() []Node { return []Node{n.child} }

// WithChildren implements Node.
func (n *Distinct) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KDistinct, len(c), 1); err != nil {
		return nil, err
	}
	return NewDistinct(c[0])
}

// Describe implements Node.
func (n *Distinct) Describe() string { return "distinct" }

// SortSpec is one sort key.
type SortSpec struct {
	Col  string
	Desc bool
}

// Sort orders rows by the given keys (stable).
type Sort struct {
	Specs []SortSpec
	child Node
	sch   schema.Schema
}

// NewSort validates the sort keys.
func NewSort(child Node, specs []SortSpec) (*Sort, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: sort with no keys")
	}
	for _, s := range specs {
		if child.Schema().IndexOf(s.Col) < 0 {
			return nil, fmt.Errorf("core: sort: no column %q", s.Col)
		}
	}
	return &Sort{Specs: append([]SortSpec(nil), specs...), child: child, sch: child.Schema()}, nil
}

// Kind implements Node.
func (n *Sort) Kind() OpKind { return KSort }

// Schema implements Node.
func (n *Sort) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Sort) Children() []Node { return []Node{n.child} }

// WithChildren implements Node.
func (n *Sort) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KSort, len(c), 1); err != nil {
		return nil, err
	}
	return NewSort(c[0], n.Specs)
}

// Describe implements Node.
func (n *Sort) Describe() string {
	parts := make([]string, len(n.Specs))
	for i, s := range n.Specs {
		parts[i] = s.Col
		if s.Desc {
			parts[i] += " desc"
		}
	}
	return "sort " + strings.Join(parts, ", ")
}

// Limit keeps rows [Offset, Offset+N).
type Limit struct {
	N      int64
	Offset int64
	child  Node
	sch    schema.Schema
}

// NewLimit validates the bounds.
func NewLimit(child Node, n, offset int64) (*Limit, error) {
	if n < 0 || offset < 0 {
		return nil, fmt.Errorf("core: limit with negative bound (n=%d offset=%d)", n, offset)
	}
	return &Limit{N: n, Offset: offset, child: child, sch: child.Schema()}, nil
}

// Kind implements Node.
func (n *Limit) Kind() OpKind { return KLimit }

// Schema implements Node.
func (n *Limit) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Limit) Children() []Node { return []Node{n.child} }

// WithChildren implements Node.
func (n *Limit) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KLimit, len(c), 1); err != nil {
		return nil, err
	}
	return NewLimit(c[0], n.N, n.Offset)
}

// Describe implements Node.
func (n *Limit) Describe() string {
	if n.Offset == 0 {
		return fmt.Sprintf("limit %d", n.N)
	}
	return fmt.Sprintf("limit %d offset %d", n.N, n.Offset)
}

// setOpSchema checks union-compatibility (kinds position-wise) and
// returns the left schema.
func setOpSchema(op OpKind, left, right Node) (schema.Schema, error) {
	ls, rs := left.Schema(), right.Schema()
	if ls.Len() != rs.Len() {
		return schema.Schema{}, fmt.Errorf("core: %v arity mismatch: %d vs %d", op, ls.Len(), rs.Len())
	}
	for i := 0; i < ls.Len(); i++ {
		if ls.At(i).Kind != rs.At(i).Kind {
			return schema.Schema{}, fmt.Errorf("core: %v column %d kind mismatch: %v vs %v", op, i, ls.At(i).Kind, rs.At(i).Kind)
		}
	}
	return ls, nil
}

// Union concatenates two union-compatible inputs; All=false deduplicates.
type Union struct {
	All         bool
	left, right Node
	sch         schema.Schema
}

// NewUnion builds a union node.
func NewUnion(left, right Node, all bool) (*Union, error) {
	sch, err := setOpSchema(KUnion, left, right)
	if err != nil {
		return nil, err
	}
	return &Union{All: all, left: left, right: right, sch: sch}, nil
}

// Kind implements Node.
func (n *Union) Kind() OpKind { return KUnion }

// Schema implements Node.
func (n *Union) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Union) Children() []Node { return []Node{n.left, n.right} }

// WithChildren implements Node.
func (n *Union) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KUnion, len(c), 2); err != nil {
		return nil, err
	}
	return NewUnion(c[0], c[1], n.All)
}

// Describe implements Node.
func (n *Union) Describe() string {
	if n.All {
		return "union all"
	}
	return "union"
}

// Except is set difference (left rows not in right, set semantics).
type Except struct {
	left, right Node
	sch         schema.Schema
}

// NewExcept builds a set-difference node.
func NewExcept(left, right Node) (*Except, error) {
	sch, err := setOpSchema(KExcept, left, right)
	if err != nil {
		return nil, err
	}
	return &Except{left: left, right: right, sch: sch}, nil
}

// Kind implements Node.
func (n *Except) Kind() OpKind { return KExcept }

// Schema implements Node.
func (n *Except) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Except) Children() []Node { return []Node{n.left, n.right} }

// WithChildren implements Node.
func (n *Except) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KExcept, len(c), 2); err != nil {
		return nil, err
	}
	return NewExcept(c[0], c[1])
}

// Describe implements Node.
func (n *Except) Describe() string { return "except" }

// Intersect is set intersection (set semantics).
type Intersect struct {
	left, right Node
	sch         schema.Schema
}

// NewIntersect builds a set-intersection node.
func NewIntersect(left, right Node) (*Intersect, error) {
	sch, err := setOpSchema(KIntersect, left, right)
	if err != nil {
		return nil, err
	}
	return &Intersect{left: left, right: right, sch: sch}, nil
}

// Kind implements Node.
func (n *Intersect) Kind() OpKind { return KIntersect }

// Schema implements Node.
func (n *Intersect) Schema() schema.Schema { return n.sch }

// Children implements Node.
func (n *Intersect) Children() []Node { return []Node{n.left, n.right} }

// WithChildren implements Node.
func (n *Intersect) WithChildren(c []Node) (Node, error) {
	if err := checkArity(KIntersect, len(c), 2); err != nil {
		return nil, err
	}
	return NewIntersect(c[0], c[1])
}

// Describe implements Node.
func (n *Intersect) Describe() string { return "intersect" }
