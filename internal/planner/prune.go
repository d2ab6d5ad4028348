package planner

import (
	"nexus/internal/core"
	"nexus/internal/expr"
	"nexus/internal/value"
)

// ---------------------------------------------------------------------------
// Zone-map pruning support.
//
// Column pruning (below) narrows scans horizontally; conjuncts narrows
// them vertically. It extracts the conjuncts of a filter predicate that
// compare one column against a constant — the shape a storage engine
// can test against per-segment min/max zone maps, skipping whole
// segments whose value ranges cannot satisfy the predicate. The
// extraction is conservative: anything it cannot prove is simply not
// returned, and a scan with no extractable conjuncts reads everything.

// ScanPred is one prunable conjunct: column `Col` compared against the
// constant `Val` with `Op` (always normalized to column-on-the-left).
type ScanPred struct {
	Col string
	Op  value.BinOp
	Val value.Value
}

// conjuncts walks a predicate's AND-tree once and returns its
// column-vs-constant comparison conjuncts. Disjunctions, calls,
// arithmetic and column-vs-column comparisons contribute nothing (a row
// passing them may exist in any segment); every returned conjunct must
// hold for a row to pass, so a segment failing any one of them under its
// zone maps holds no matches. exact reports that nothing else was
// present: the conjuncts are then not merely implied by the predicate
// but equivalent to it, so a storage engine may evaluate them directly
// over encoded pages and skip the generic filter entirely, whereas an
// inexact extraction still needs the residual predicate downstream.
func conjuncts(e expr.Expr) (preds []ScanPred, exact bool) {
	exact = true
	var walk func(expr.Expr)
	walk = func(e expr.Expr) {
		b, ok := e.(*expr.Bin)
		switch {
		case ok && b.Op == value.OpAnd:
			walk(b.L)
			walk(b.R)
		case ok && b.Op.Comparison():
			if col, okL := b.L.(*expr.Col); okL {
				if c, okR := b.R.(*expr.Const); okR {
					preds = append(preds, ScanPred{Col: col.Name, Op: b.Op, Val: c.Val})
					return
				}
			} else if c, okL := b.L.(*expr.Const); okL {
				if col, okR := b.R.(*expr.Col); okR {
					preds = append(preds, ScanPred{Col: col.Name, Op: flipCmp(b.Op), Val: c.Val})
					return
				}
			}
			exact = false
		default:
			exact = false
		}
	}
	walk(e)
	return preds, exact
}

// ScanAccess describes how a storage engine may serve a plan fragment
// straight from its files: which scan feeds it, which columns of the
// scanned dataset must actually be read (segment-level column
// projection), and which conjuncts may prune whole segments via zone
// maps. Produced by AnalyzeScanAccess; consumed by the durable engine's
// cold-scan override.
type ScanAccess struct {
	// Scan is the leaf the fragment reads.
	Scan *core.Scan
	// Cols are the scan-schema columns the fragment references, in
	// schema order. nil means every column is needed (no projection win).
	Cols []string
	// Preds are the fragment's prunable column-vs-constant conjuncts
	// (see conjuncts). Every one must hold for a row to survive the
	// fragment's filters, so a segment failing any of them under its
	// zone maps holds no useful rows.
	Preds []ScanPred
	// Exact reports that Preds is not merely implied by the fragment's
	// filters but equivalent to them: every filter predicate was an
	// AND-tree of column-vs-constant comparisons, all captured. An
	// engine may then treat "row passes every pred" as the complete
	// filter decision (e.g. aggregate encoded pages directly) instead
	// of only using Preds to discard rows ahead of a re-run.
	Exact bool
}

// AnalyzeScanAccess matches the narrow plan shapes a column store can
// answer from segment files without a full materialization: any stack
// of Filter and Project nodes over a single Scan. It reports the scan,
// the union of columns the stack references (the fragment's output
// columns plus every filter's predicate columns — projections only drop
// names, never invent them, so all of these exist in the scan schema),
// and the prunable predicates of every filter in the stack. ok=false
// means the fragment has some other shape and the engine should fall
// back to a generic scan.
func AnalyzeScanAccess(n core.Node) (ScanAccess, bool) {
	need := map[string]bool{}
	for _, name := range n.Schema().Names() {
		need[name] = true
	}
	var acc ScanAccess
	acc.Exact = true
	cur := n
	for {
		switch x := cur.(type) {
		case *core.Filter:
			preds, exact := conjuncts(x.Pred)
			acc.Preds = append(acc.Preds, preds...)
			acc.Exact = acc.Exact && exact
			addCols(need, x.Pred)
			cur = x.Children()[0]
		case *core.Project:
			cur = x.Children()[0]
		case *core.Scan:
			acc.Scan = x
			sch := x.Schema()
			if len(need) < sch.Len() {
				for i := 0; i < sch.Len(); i++ {
					if name := sch.At(i).Name; need[name] {
						acc.Cols = append(acc.Cols, name)
					}
				}
			}
			return acc, true
		default:
			return ScanAccess{}, false
		}
	}
}

// AggAccess describes a grouped aggregation a storage engine may run
// directly over encoded segment pages: a GroupAgg whose input is a
// Filter/Project stack over one scan, whose filters are an exact
// conjunction of column-vs-constant comparisons, and whose aggregate
// arguments are plain column references. Cols is always populated (the
// aggregation touches only keys, arguments and predicate columns —
// never the whole row).
type AggAccess struct {
	ScanAccess
	// Keys are the group-by columns, in GroupAgg order.
	Keys []string
	// Aggs are the aggregate specs; each Arg is nil (count(*)) or a
	// column reference into the scan schema.
	Aggs []core.AggSpec
	// Args holds, per aggregate, the referenced column's name ("" for
	// count(*)) — resolved here so the engine needs no expression
	// inspection of its own.
	Args []string
}

// AnalyzeAggAccess matches the plan shape the encoded group-aggregate
// kernel can serve. ok=false means some part of the fragment needs the
// generic runtime: a non-exact filter (its residual must re-run over
// materialized rows), a computed aggregate argument, or an unexpected
// operator in the stack.
func AnalyzeAggAccess(n core.Node) (AggAccess, bool) {
	g, ok := n.(*core.GroupAgg)
	if !ok {
		return AggAccess{}, false
	}
	var acc AggAccess
	acc.Exact = true
	acc.Keys = g.Keys
	acc.Aggs = g.Aggs
	need := map[string]bool{}
	for _, k := range g.Keys {
		need[k] = true
	}
	acc.Args = make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		if a.Arg == nil {
			continue // count(*)
		}
		c, ok := a.Arg.(*expr.Col)
		if !ok {
			return AggAccess{}, false
		}
		acc.Args[i] = c.Name
		need[c.Name] = true
	}
	cur := g.Children()[0]
	for {
		switch x := cur.(type) {
		case *core.Filter:
			preds, exact := conjuncts(x.Pred)
			if !exact {
				return AggAccess{}, false
			}
			acc.Preds = append(acc.Preds, preds...)
			addCols(need, x.Pred)
			cur = x.Children()[0]
		case *core.Project:
			cur = x.Children()[0]
		case *core.Scan:
			acc.Scan = x
			sch := x.Schema()
			if len(need) == 0 {
				// Pure count(*) with no filters still needs row counts;
				// the cheapest honest source is one column.
				need[sch.At(0).Name] = true
			}
			for i := 0; i < sch.Len(); i++ {
				if name := sch.At(i).Name; need[name] {
					acc.Cols = append(acc.Cols, name)
				}
			}
			if len(acc.Cols) != len(need) {
				return AggAccess{}, false // something referenced outside the scan
			}
			return acc, true
		default:
			return AggAccess{}, false
		}
	}
}

// flipCmp mirrors a comparison for constant-on-the-left normalization
// (5 < x  ≡  x > 5).
func flipCmp(op value.BinOp) value.BinOp {
	switch op {
	case value.OpLt:
		return value.OpGt
	case value.OpLe:
		return value.OpGe
	case value.OpGt:
		return value.OpLt
	case value.OpGe:
		return value.OpLe
	}
	return op // Eq and Ne are symmetric
}

// pruneColumns inserts Project nodes directly above scans whose columns
// are not all needed, computed by a top-down required-column analysis.
// Operators without a precise rule conservatively require everything
// below them. Dimension attributes are always retained (array operators
// downstream may address them positionally).
//
// The rewrite is verified: if the pruned plan's schema no longer matches
// the original root schema, the original plan is returned unchanged.
func pruneColumns(plan core.Node) (core.Node, error) {
	req := map[string]bool{}
	for _, n := range plan.Schema().Names() {
		req[n] = true
	}
	out, err := prune(plan, req)
	if err != nil || out == nil {
		return plan, nil // pruning is best-effort; keep the original
	}
	if !out.Schema().Equal(plan.Schema()) {
		return plan, nil
	}
	return out, nil
}

func allOf(n core.Node) map[string]bool {
	req := map[string]bool{}
	for _, name := range n.Schema().Names() {
		req[name] = true
	}
	return req
}

func addCols(req map[string]bool, e expr.Expr) {
	if e == nil {
		return
	}
	for _, c := range expr.Cols(e) {
		req[c] = true
	}
}

// prune returns a rewritten node whose schema contains at least the
// required columns, or nil to signal "cannot prune here" (caller keeps
// the original subtree).
func prune(n core.Node, req map[string]bool) (core.Node, error) {
	switch x := n.(type) {
	case *core.Scan:
		var keep []string
		sch := x.Schema()
		for i := 0; i < sch.Len(); i++ {
			a := sch.At(i)
			if req[a.Name] || a.Dim {
				keep = append(keep, a.Name)
			}
		}
		if len(keep) == 0 || len(keep) == sch.Len() {
			return n, nil
		}
		return core.NewProject(x, keep)
	case *core.Filter:
		creq := copyReq(req)
		addCols(creq, x.Pred)
		child, err := prune(x.Children()[0], creq)
		if err != nil || child == nil {
			return nil, err
		}
		return core.NewFilter(child, x.Pred)
	case *core.Project:
		creq := map[string]bool{}
		for _, c := range x.Cols {
			creq[c] = true
		}
		child, err := prune(x.Children()[0], creq)
		if err != nil || child == nil {
			return nil, err
		}
		return core.NewProject(child, x.Cols)
	case *core.Extend:
		creq := copyReq(req)
		var defs []core.ColDef
		for _, d := range x.Defs {
			// Keep a definition only if its output is required.
			if req[d.Name] {
				defs = append(defs, d)
				addCols(creq, d.E)
			}
			delete(creq, d.Name)
		}
		child, err := prune(x.Children()[0], creq)
		if err != nil || child == nil {
			return nil, err
		}
		if len(defs) == 0 {
			return child, nil
		}
		return core.NewExtend(child, defs)
	case *core.Rename:
		creq := map[string]bool{}
		back := make(map[string]string, len(x.From))
		for i := range x.From {
			back[x.To[i]] = x.From[i]
		}
		for name := range req {
			if orig, ok := back[name]; ok {
				creq[orig] = true
			} else {
				creq[name] = true
			}
		}
		child, err := prune(x.Children()[0], creq)
		if err != nil || child == nil {
			return nil, err
		}
		// Renames of pruned-away columns must be dropped.
		var from, to []string
		for i := range x.From {
			if child.Schema().Has(x.From[i]) {
				from = append(from, x.From[i])
				to = append(to, x.To[i])
			}
		}
		if len(from) == 0 {
			return child, nil
		}
		return core.NewRename(child, from, to)
	case *core.GroupAgg:
		creq := map[string]bool{}
		for _, k := range x.Keys {
			creq[k] = true
		}
		for _, a := range x.Aggs {
			addCols(creq, a.Arg)
		}
		child, err := prune(x.Children()[0], creq)
		if err != nil || child == nil {
			return nil, err
		}
		return core.NewGroupAgg(child, x.Keys, x.Aggs)
	case *core.Sort:
		creq := copyReq(req)
		for _, s := range x.Specs {
			creq[s.Col] = true
		}
		child, err := prune(x.Children()[0], creq)
		if err != nil || child == nil {
			return nil, err
		}
		return core.NewSort(child, x.Specs)
	case *core.Limit:
		child, err := prune(x.Children()[0], req)
		if err != nil || child == nil {
			return nil, err
		}
		return core.NewLimit(child, x.N, x.Offset)
	case *core.Join:
		return pruneJoin(x, req)
	}
	// Conservative: require every column of every child, recurse to reach
	// scans under unhandled operators.
	kids := n.Children()
	if len(kids) == 0 {
		return n, nil
	}
	newKids := make([]core.Node, len(kids))
	changed := false
	for i, c := range kids {
		nc, err := prune(c, allOf(c))
		if err != nil || nc == nil {
			return nil, err
		}
		newKids[i] = nc
		if nc != c {
			changed = true
		}
	}
	if !changed {
		return n, nil
	}
	return n.WithChildren(newKids)
}

func pruneJoin(x *core.Join, req map[string]bool) (core.Node, error) {
	left, right := x.Children()[0], x.Children()[1]
	ls := left.Schema()
	out := x.Schema()

	lreq := map[string]bool{}
	rreq := map[string]bool{}
	for i := 0; i < out.Len(); i++ {
		name := out.At(i).Name
		if !req[name] {
			continue
		}
		if i < ls.Len() {
			lreq[name] = true
		} else {
			rreq[right.Schema().At(i-ls.Len()).Name] = true
		}
	}
	for _, k := range x.LeftKeys {
		lreq[k] = true
	}
	for _, k := range x.RightKeys {
		rreq[k] = true
	}
	if x.Residual != nil {
		// Residual references concat names; attribute them by position.
		concat := ls.Concat(right.Schema())
		for _, c := range expr.Cols(x.Residual) {
			i := concat.IndexOf(c)
			if i < 0 {
				return nil, nil
			}
			if i < ls.Len() {
				lreq[ls.At(i).Name] = true
			} else {
				rreq[right.Schema().At(i-ls.Len()).Name] = true
			}
		}
	}
	nl, err := prune(left, lreq)
	if err != nil || nl == nil {
		return nil, err
	}
	nr, err := prune(right, rreq)
	if err != nil || nr == nil {
		return nil, err
	}
	nj, err := core.NewJoin(nl, nr, x.Type, x.LeftKeys, x.RightKeys, x.Residual)
	if err != nil {
		return nil, nil // suffix drift or residual breakage: give up here
	}
	// Every required output column must survive with the same name.
	for name := range req {
		if !nj.Schema().Has(name) {
			return nil, nil
		}
	}
	return nj, nil
}

func copyReq(req map[string]bool) map[string]bool {
	out := make(map[string]bool, len(req))
	for k, v := range req {
		out[k] = v
	}
	return out
}
