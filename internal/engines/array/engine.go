package array

import (
	"fmt"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/provider"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Engine is the dense array provider. It executes the dimension-aware
// operators with dense kernels when inputs convert to Dense form, and the
// rest of the algebra via the generic runtime. Set-difference operators
// and MatMul are deliberately outside its capability set (a SciDB-class
// engine pairs with a ScaLAPACK-class engine for gemm — exactly the
// paper's multi-server example).
type Engine struct {
	exec.Engine
	*exec.Tables
}

var _ provider.Provider = (*Engine)(nil)

// New returns an empty array engine.
func New(name string) *Engine {
	e := &Engine{Tables: exec.NewTables("array")}
	caps := provider.AllOps().Without(core.KExcept, core.KIntersect, core.KMatMul)
	e.Engine = exec.NewEngine("array", name, caps, e.Dataset, e.override)
	return e
}

// override substitutes dense kernels for window, fill, elemwise and
// transpose when the operand converts to Dense form; on any conversion
// obstacle it falls back to the generic sparse implementation, keeping
// semantics identical.
func (e *Engine) override(n core.Node, env *exec.Env, rec exec.RecFunc) (*table.Table, bool, error) {
	switch x := n.(type) {
	case *core.Window:
		in, err := rec(x.Children()[0], env)
		if err != nil {
			return nil, false, err
		}
		out, ok := e.denseWindow(in, x)
		if !ok {
			return nil, false, nil
		}
		return out, true, nil
	case *core.Fill:
		in, err := rec(x.Children()[0], env)
		if err != nil {
			return nil, false, err
		}
		d, err := FromTable(in)
		if err != nil {
			return nil, false, nil // fall back
		}
		f, ok := x.Default.AsFloat()
		if !ok && !x.Default.IsNull() {
			return nil, false, nil
		}
		d.FillValue(f)
		out, err := d.ToTable()
		if err != nil {
			return nil, false, err
		}
		out, err = out.WithSchema(x.Schema())
		if err != nil {
			return nil, false, nil
		}
		return out, true, nil
	case *core.Transpose:
		in, err := rec(x.Children()[0], env)
		if err != nil {
			return nil, false, err
		}
		d, err := FromTable(in)
		if err != nil {
			return nil, false, nil
		}
		perm := make([]int, len(x.Perm))
		for i, name := range x.Perm {
			perm[i] = -1
			for j, dn := range d.DimNames {
				if dn == name {
					perm[i] = j
				}
			}
			if perm[i] < 0 {
				return nil, false, nil
			}
		}
		out, err := d.Transpose(perm).ToTable()
		if err != nil {
			return nil, false, err
		}
		out, err = out.WithSchema(x.Schema())
		if err != nil {
			return nil, false, nil
		}
		return out, true, nil
	case *core.ElemWise:
		l, err := rec(x.Children()[0], env)
		if err != nil {
			return nil, false, err
		}
		r, err := rec(x.Children()[1], env)
		if err != nil {
			return nil, false, err
		}
		out, ok := e.denseElemWise(l, r, x)
		if !ok {
			return nil, false, nil
		}
		return out, true, nil
	}
	return nil, false, nil
}

// denseWindow runs the stencil over the dense buffer: O(cells × window)
// with no hashing, versus the generic sparse path's hash lookups.
func (e *Engine) denseWindow(in *table.Table, x *core.Window) (*table.Table, bool) {
	if x.Agg != core.AggSum && x.Agg != core.AggAvg && x.Agg != core.AggMin && x.Agg != core.AggMax && x.Agg != core.AggCount {
		return nil, false
	}
	d, err := FromTable(in)
	if err != nil {
		return nil, false
	}
	before := make([]int64, len(d.DimNames))
	after := make([]int64, len(d.DimNames))
	for _, ext := range x.Extents {
		found := false
		for i, dn := range d.DimNames {
			if dn == ext.Dim {
				before[i], after[i] = ext.Before, ext.After
				found = true
			}
		}
		if !found {
			return nil, false
		}
	}
	n := d.NumCells()
	out := &Dense{
		DimNames: d.DimNames, Lo: d.Lo, Shape: d.Shape,
		Vals: make([]float64, n), ValName: x.As,
	}
	if d.Present != nil {
		out.Present = make([]bool, n)
		copy(out.Present, d.Present)
	}
	coords := make([]int64, len(d.Shape))
	neigh := make([]int64, len(d.Shape))
	copy(coords, d.Lo)
	for off := int64(0); off < n && n > 0; off++ {
		if d.Present == nil || d.Present[off] {
			var (
				sum   float64
				count int64
				best  float64
				first = true
			)
			for i := range neigh {
				neigh[i] = coords[i] - before[i]
			}
			for {
				if v, ok := d.At(neigh); ok {
					sum += v
					count++
					if first || (x.Agg == core.AggMin && v < best) || (x.Agg == core.AggMax && v > best) {
						best = v
						first = false
					}
				}
				k := len(neigh) - 1
				for k >= 0 {
					neigh[k]++
					if neigh[k] <= coords[k]+after[k] {
						break
					}
					neigh[k] = coords[k] - before[k]
					k--
				}
				if k < 0 {
					break
				}
			}
			switch x.Agg {
			case core.AggSum:
				out.Vals[off] = sum
			case core.AggAvg:
				if count > 0 {
					out.Vals[off] = sum / float64(count)
				}
			case core.AggCount:
				out.Vals[off] = float64(count)
			case core.AggMin, core.AggMax:
				out.Vals[off] = best
			}
		}
		for k := len(coords) - 1; k >= 0; k-- {
			coords[k]++
			if coords[k] < d.Lo[k]+d.Shape[k] {
				break
			}
			coords[k] = d.Lo[k]
		}
	}
	t, err := out.ToTable()
	if err != nil {
		return nil, false
	}
	// Window's schema may declare an integer aggregate (e.g. count); the
	// dense kernel produces floats. Convert when needed.
	t2, err := conformTo(t, x.Schema())
	if err != nil {
		return nil, false
	}
	return t2, true
}

func (e *Engine) denseElemWise(l, r *table.Table, x *core.ElemWise) (*table.Table, bool) {
	if !x.Op.Arithmetic() {
		return nil, false
	}
	dl, err := FromTable(l)
	if err != nil {
		return nil, false
	}
	dr, err := FromTable(r)
	if err != nil {
		return nil, false
	}
	if len(dl.Shape) != len(dr.Shape) {
		return nil, false
	}
	// Intersect boxes.
	lo := make([]int64, len(dl.Shape))
	shape := make([]int64, len(dl.Shape))
	for i := range lo {
		lo[i] = dl.Lo[i]
		if dr.Lo[i] > lo[i] {
			lo[i] = dr.Lo[i]
		}
		hiL := dl.Lo[i] + dl.Shape[i]
		hiR := dr.Lo[i] + dr.Shape[i]
		hi := hiL
		if hiR < hi {
			hi = hiR
		}
		if hi < lo[i] {
			hi = lo[i]
		}
		shape[i] = hi - lo[i]
	}
	out := &Dense{DimNames: dl.DimNames, Lo: lo, Shape: shape, ValName: x.As}
	n := out.NumCells()
	out.Vals = make([]float64, n)
	out.Present = make([]bool, n)
	coords := make([]int64, len(shape))
	copy(coords, lo)
	for off := int64(0); off < n && n > 0; off++ {
		lv, lok := dl.At(coords)
		rv, rok := dr.At(coords)
		if lok && rok {
			out.Present[off] = true
			switch x.Op {
			case value.OpAdd:
				out.Vals[off] = lv + rv
			case value.OpSub:
				out.Vals[off] = lv - rv
			case value.OpMul:
				out.Vals[off] = lv * rv
			case value.OpDiv:
				out.Vals[off] = lv / rv
			default:
				return nil, false
			}
		}
		for k := len(coords) - 1; k >= 0; k-- {
			coords[k]++
			if coords[k] < lo[k]+shape[k] {
				break
			}
			coords[k] = lo[k]
		}
	}
	t, err := out.ToTable()
	if err != nil {
		return nil, false
	}
	t2, err := conformTo(t, x.Schema())
	if err != nil {
		return nil, false
	}
	return t2, true
}

// conformTo renames/retypes the dense kernel's output columns to the
// plan-declared schema (dense kernels always produce float64 values;
// integer-typed outputs are converted).
func conformTo(t *table.Table, want schema.Schema) (*table.Table, error) {
	if t.NumCols() != want.Len() {
		return nil, fmt.Errorf("array: kernel arity %d vs schema %v", t.NumCols(), want)
	}
	cols := make([]*table.Column, t.NumCols())
	for i := 0; i < t.NumCols(); i++ {
		src := t.Col(i)
		if src.Kind() == want.At(i).Kind {
			cols[i] = src
			continue
		}
		if src.Kind() == value.KindFloat64 && want.At(i).Kind == value.KindInt64 {
			ints := make([]int64, src.Len())
			for r, f := range src.Floats() {
				ints[r] = int64(f)
			}
			cols[i] = table.IntColumn(ints)
			continue
		}
		return nil, fmt.Errorf("array: cannot conform %v to %v", src.Kind(), want.At(i).Kind)
	}
	return table.New(want, cols)
}
