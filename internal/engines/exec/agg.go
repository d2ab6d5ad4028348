package exec

import (
	"fmt"
	"sort"

	"nexus/internal/core"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Accumulator is the running state of one aggregate over one group. It is
// exported for reuse by the array engine's window kernels.
type Accumulator struct {
	fn       core.AggFunc
	count    int64
	sumInt   int64
	sumFloat float64
	isFloat  bool
	minmax   value.Value
	distinct map[string]struct{}
}

// NewAccumulator returns an empty accumulator for the aggregate function.
func NewAccumulator(fn core.AggFunc) *Accumulator {
	a := &Accumulator{fn: fn, minmax: value.Null}
	if fn == core.AggCountDistinct {
		a.distinct = make(map[string]struct{})
	}
	return a
}

// Add folds one value into the accumulator. NULLs are ignored except by
// count(*) (which is fed non-null markers by the caller).
func (a *Accumulator) Add(v value.Value) {
	if v.IsNull() {
		return
	}
	switch a.fn {
	case core.AggCount:
		a.count++
	case core.AggCountDistinct:
		a.distinct[string(value.AppendKey(nil, v))] = struct{}{}
	case core.AggSum, core.AggAvg:
		a.count++
		switch v.Kind() {
		case value.KindInt64:
			a.sumInt += v.Int()
		case value.KindFloat64:
			a.isFloat = true
			a.sumFloat += v.Float()
		}
	case core.AggMin:
		if a.minmax.IsNull() || value.Less(v, a.minmax) {
			a.minmax = v
		}
	case core.AggMax:
		if a.minmax.IsNull() || value.Less(a.minmax, v) {
			a.minmax = v
		}
	}
}

// AddInt folds one non-NULL int64 into a sum or avg: Add without the
// boxing, for callers that read typed columns.
func (a *Accumulator) AddInt(v int64) {
	a.count++
	a.sumInt += v
}

// AddFloat folds one non-NULL float64 into a sum or avg.
func (a *Accumulator) AddFloat(v float64) {
	a.count++
	a.isFloat = true
	a.sumFloat += v
}

// AddRow counts one row: the count(*) feed, where a row's existence is
// what is counted, or count(col) over a non-NULL value.
func (a *Accumulator) AddRow() { a.count++ }

// Result returns the aggregate value, coerced to the statically inferred
// kind.
func (a *Accumulator) Result(want value.Kind) value.Value {
	switch a.fn {
	case core.AggCount:
		return value.NewInt(a.count)
	case core.AggCountDistinct:
		return value.NewInt(int64(len(a.distinct)))
	case core.AggSum:
		if a.count == 0 {
			return value.Null
		}
		if a.isFloat || want == value.KindFloat64 {
			return value.NewFloat(a.sumFloat + float64(a.sumInt))
		}
		return value.NewInt(a.sumInt)
	case core.AggAvg:
		if a.count == 0 {
			return value.Null
		}
		return value.NewFloat((a.sumFloat + float64(a.sumInt)) / float64(a.count))
	case core.AggMin, core.AggMax:
		return a.minmax
	}
	return value.Null
}

// AccSnapshot is the serializable state of one Accumulator — everything
// needed to resume the aggregate on another machine. The streaming
// window-state handoff (internal/wire's WindowState codec) ships these
// between servers.
type AccSnapshot struct {
	Fn       core.AggFunc
	Count    int64
	SumInt   int64
	SumFloat float64
	IsFloat  bool
	MinMax   value.Value
	Distinct []string // canonical key encodings, sorted for determinism
}

// Snapshot captures the accumulator's state.
func (a *Accumulator) Snapshot() AccSnapshot {
	s := AccSnapshot{
		Fn:       a.fn,
		Count:    a.count,
		SumInt:   a.sumInt,
		SumFloat: a.sumFloat,
		IsFloat:  a.isFloat,
		MinMax:   a.minmax,
	}
	if a.distinct != nil {
		s.Distinct = make([]string, 0, len(a.distinct))
		for k := range a.distinct {
			s.Distinct = append(s.Distinct, k)
		}
		sort.Strings(s.Distinct)
	}
	return s
}

// RestoreAccumulator rebuilds an accumulator from a snapshot; folding
// more values into it continues exactly where the snapshot left off.
func RestoreAccumulator(s AccSnapshot) *Accumulator {
	a := &Accumulator{
		fn:       s.Fn,
		count:    s.Count,
		sumInt:   s.SumInt,
		sumFloat: s.SumFloat,
		isFloat:  s.IsFloat,
		minmax:   s.MinMax,
	}
	if s.Fn == core.AggCountDistinct {
		a.distinct = make(map[string]struct{}, len(s.Distinct))
		for _, k := range s.Distinct {
			a.distinct[k] = struct{}{}
		}
	}
	return a
}

// groupAggregate is the hash-aggregation kernel: group the input by the
// key columns and compute each aggregate spec per group. With no keys the
// whole input forms one group (and an empty input still yields one row,
// matching SQL's global aggregates).
func groupAggregate(r *Runtime, in *table.Table, keys []string, aggs []core.AggSpec, outSchema schema.Schema) (*table.Table, error) {
	keyPos := make([]int, len(keys))
	for i, k := range keys {
		p := in.Schema().IndexOf(k)
		if p < 0 {
			return nil, fmt.Errorf("exec: groupagg: no key column %q", k)
		}
		keyPos[i] = p
	}

	// Materialize argument columns once through the vectorized kernels.
	argCols := make([]*table.Column, len(aggs))
	for i, a := range aggs {
		if a.Arg == nil {
			continue
		}
		c, err := r.compile(a.Arg, in.Schema())
		if err != nil {
			return nil, fmt.Errorf("exec: groupagg %q: %w", a.As, err)
		}
		col, err := r.evalColumn(c, in, value.KindNull)
		if err != nil {
			return nil, fmt.Errorf("exec: groupagg %q: %w", a.As, err)
		}
		argCols[i] = col
	}

	// Phase 1: assign each row a dense group id. A single null-free int64
	// key hashes raw values; the general case hashes the canonical key
	// encoding. The per-row state after this phase is just an int32.
	n := in.NumRows()
	gids := make([]int32, n)
	var firstRows []int
	switch {
	case len(keyPos) == 0:
		if n > 0 {
			firstRows = []int{0}
		}
	case len(keyPos) == 1 && in.Col(keyPos[0]).Kind() == value.KindInt64 && in.Col(keyPos[0]).Validity() == nil:
		vals := in.Col(keyPos[0]).Ints()
		m := make(map[int64]int32, 64)
		for i, k := range vals {
			id, ok := m[k]
			if !ok {
				id = int32(len(firstRows))
				m[k] = id
				firstRows = append(firstRows, i)
			}
			gids[i] = id
		}
	default:
		m := make(map[string]int32, 64)
		buf := make([]byte, 0, 64)
		for i := 0; i < n; i++ {
			buf = buf[:0]
			for _, p := range keyPos {
				buf = value.AppendKey(buf, in.Value(i, p))
			}
			id, ok := m[string(buf)]
			if !ok {
				id = int32(len(firstRows))
				m[string(buf)] = id
				firstRows = append(firstRows, i)
			}
			gids[i] = id
		}
	}
	if len(keys) == 0 && len(firstRows) == 0 {
		// SQL global aggregate over empty input: one group, no rows.
		firstRows = []int{-1}
	}

	// Phase 2: fold each aggregate column into per-group accumulators in
	// one columnar pass per aggregate.
	accs := make([][]Accumulator, len(aggs))
	for i, a := range aggs {
		as := make([]Accumulator, len(firstRows))
		for g := range as {
			as[g].fn = a.Func
			as[g].minmax = value.Null
			if a.Func == core.AggCountDistinct {
				as[g].distinct = make(map[string]struct{})
			}
		}
		foldColumn(as, gids, argCols[i], a.Func)
		accs[i] = as
	}

	b := table.NewBuilder(outSchema, len(firstRows))
	rowBuf := make([]value.Value, 0, outSchema.Len())
	for g, firstRow := range firstRows {
		rowBuf = rowBuf[:0]
		for _, p := range keyPos {
			rowBuf = append(rowBuf, in.Value(firstRow, p))
		}
		for i := range aggs {
			want := outSchema.At(len(keyPos) + i).Kind
			rowBuf = append(rowBuf, accs[i][g].Result(want))
		}
		if err := b.Append(rowBuf...); err != nil {
			return nil, fmt.Errorf("exec: groupagg: %w", err)
		}
	}
	return b.Build(), nil
}

// foldColumn folds one aggregate's argument column into per-group
// accumulators. Sum/avg/count over numeric payloads run tight loops over
// the raw slices; min/max/count-distinct go through the boxed Add, which
// carries their comparison and dedup logic.
func foldColumn(as []Accumulator, gids []int32, col *table.Column, fn core.AggFunc) {
	n := len(gids)
	if col == nil {
		// count(*): every row counts, NULL or not.
		for _, g := range gids {
			as[g].AddRow()
		}
		return
	}
	valid := col.Validity()
	switch {
	case fn == core.AggCount:
		for i, g := range gids {
			if valid == nil || valid[i] {
				as[g].AddRow()
			}
		}
	case (fn == core.AggSum || fn == core.AggAvg) && col.Kind() == value.KindInt64:
		ints := col.Ints()
		for i, g := range gids {
			if valid == nil || valid[i] {
				as[g].AddInt(ints[i])
			}
		}
	case (fn == core.AggSum || fn == core.AggAvg) && col.Kind() == value.KindFloat64:
		floats := col.Floats()
		for i, g := range gids {
			if valid == nil || valid[i] {
				as[g].AddFloat(floats[i])
			}
		}
	default:
		for i := 0; i < n; i++ {
			as[gids[i]].Add(col.Value(i))
		}
	}
}
