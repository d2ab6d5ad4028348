package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/planner"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Encoded execution, engine side. Two kernels run over EncodedColumn
// views instead of materialized rows:
//
//   - The scan pre-filter (encodedFilterTable): every captured conjunct
//     is ANDed over the encoded pages — one comparison per RLE run, one
//     per distinct dictionary entry — and only surviving rows are
//     materialized. Safe even when the conjuncts are not the whole
//     filter, because the generic runtime re-runs the full predicate
//     stack over the result; the pre-filter only drops rows that stack
//     would drop anyway.
//
//   - The grouped-aggregate kernel (encPart, encAggState): a GroupAgg
//     whose filters are an exact conjunction and whose arguments are
//     plain columns folds directly over pages. Each segment's survivors
//     get part-local group ids on the work group — one per RLE run or
//     dictionary code, one per distinct value on plain pages — which the
//     caller maps to global groups by value; sums, averages and counts
//     then add each survivor unboxed, read in place from the payload
//     bytes, a dictionary's typed entries or a run's value. Nothing
//     re-runs downstream here, so the shape gate
//     (planner.AnalyzeAggAccess) is strict, and every fold mirrors
//     exec's groupAggregate exactly: same group order (first
//     occurrence in dataset row order), same accumulator arithmetic
//     (float sums stay sequential), same NULL handling. The
//     differential suite holds the two paths byte-identical.

// EncodedScans returns how many segment reads the encoded pre-filter
// served.
func (e *Engine) EncodedScans() int64 { return e.encodedScans.Load() }

// EncodedAggs returns how many grouped aggregations the encoded kernel
// served without materializing the dataset.
func (e *Engine) EncodedAggs() int64 { return e.encodedAggs.Load() }

// matchMorsel is how many rows one pre-filter task tests: the morsels
// of a page run side by side on the work group.
const matchMorsel = 1 << 14

// encodedMatches ANDs every conjunct over the part's encoded columns
// (at least one; every conjunct's column must be in sch — callers check
// both once per query, not per part), in row morsels on g. Each morsel's
// verdicts also go to then, if set, while they are still in cache.
func encodedMatches(g *workGroup, sch schema.Schema, cols []*EncodedColumn, preds []planner.ScanPred, then func(m, lo int, acc []bool)) ([]bool, error) {
	and := make([]func(lo int, acc []bool), len(preds))
	for i, p := range preds {
		and[i] = cols[sch.IndexOf(p.Col)].matcher(p.Op, p.Val)
	}
	match := make([]bool, cols[0].Rows())
	err := g.forEach((len(match)+matchMorsel-1)/matchMorsel, func(m int) error {
		lo := m * matchMorsel
		acc := match[lo:min(lo+matchMorsel, len(match))]
		for i := range acc {
			acc[i] = true
		}
		for _, f := range and {
			f(lo, acc)
		}
		if then != nil {
			then(m, lo, acc)
		}
		return nil
	})
	return match, err
}

// encodedFilterTable materializes only the rows of an encoded segment
// that pass every conjunct.
func encodedFilterTable(g *workGroup, es *EncodedSegment, preds []planner.ScanPred) (*table.Table, error) {
	rows := es.Cols[0].Rows()
	sels := make([][]int, (rows+matchMorsel-1)/matchMorsel)
	_, err := encodedMatches(g, es.Schema, es.Cols, preds, func(m, lo int, acc []bool) {
		for r, ok := range acc {
			if ok {
				sels[m] = append(sels[m], lo+r)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	sel := slices.Concat(sels...)
	switch {
	case len(sel) == rows:
		sel = nil // every row
	case sel == nil:
		sel = []int{} // no row
	}
	return es.materialize(g, sel)
}

// encodedAgg serves a GroupAgg over a cold scan directly from encoded
// pages. ok=false means the fragment (or the engine's state) wants the
// generic path.
func (e *Engine) encodedAgg(n core.Node) (*table.Table, bool, error) {
	agg, ok := planner.AnalyzeAggAccess(n)
	if !ok || len(agg.Keys) > 1 {
		return nil, false, nil
	}
	e.mu.Lock()
	_, warm := e.mat[agg.Scan.Dataset]
	e.mu.Unlock()
	if warm {
		return nil, false, nil // RAM scan: the generic fold is already cheap
	}
	return e.aggTable(agg, n.Schema())
}

// aggTable runs the encoded grouped-aggregate kernel over one
// consistent snapshot of the dataset: manifest segments in order, then
// the unflushed tail parts (zone pruning applies to both — the
// conjunction is exact, so an excluded part contributes no rows).
// Reading, verifying, parsing, filtering and local grouping of a
// segment is independent of every other, so the surviving segments go
// through that side by side on one work group; the fold into groups
// then runs over them in manifest order on the caller, which keeps
// group order and float sums exactly those of a sequential scan.
func (e *Engine) aggTable(agg planner.AggAccess, outSchema schema.Schema) (*table.Table, bool, error) {
	name := agg.Scan.Dataset
	var out *table.Table
	unservable := false
	err := e.st.readSnapshot(name, func(refs []SegmentRef, parts []tailPart) error {
		sch, positions, proj, ok := e.resolve(agg.ScanAccess)
		if !ok || len(agg.Cols) == 0 {
			unservable = true
			return nil
		}
		keyIdx := -1
		if len(agg.Keys) == 1 {
			if keyIdx = proj.IndexOf(agg.Keys[0]); keyIdx < 0 {
				unservable = true
				return nil
			}
		}
		argIdx := make([]int, len(agg.Aggs))
		for i, arg := range agg.Args {
			argIdx[i] = -1
			if arg != "" {
				if argIdx[i] = proj.IndexOf(arg); argIdx[i] < 0 {
					unservable = true
					return nil
				}
			}
		}

		live, skipped := pruneSegments(sch, refs, agg.Preds)
		segParts := make([]*encPart, len(live))
		g := newWorkGroup()
		err := g.forEach(len(live), func(i int) error {
			es, err := e.st.read(g, name, live[i], positions)
			if err == nil && es.Meta.Rows > 0 {
				segParts[i], err = newEncPart(g, proj, es.Cols, agg.Preds, keyIdx)
			}
			return err
		})
		if err != nil {
			return err
		}
		e.countSegments(len(live), skipped)
		st := newEncAggState(agg.Aggs, keyIdx >= 0)
		for _, p := range segParts {
			st.add(p, argIdx)
		}
		for _, p := range parts {
			if p.t.NumRows() == 0 || !segMayMatch(sch, p.zones, agg.Preds) {
				continue
			}
			ep, err := newEncPart(g, proj, wrapTable(p.t.Project(positions), SegmentMeta{}).Cols, agg.Preds, keyIdx)
			if err != nil {
				return err
			}
			st.add(ep, argIdx)
		}
		out, err = st.build(outSchema, len(agg.Keys))
		return err
	})
	if errors.Is(err, errNoDataset) || unservable {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	e.encodedAggs.Add(1)
	metEncodedAggs.Inc()
	return out, true, nil
}

// encPart is one part (segment or tail chunk) filtered and grouped,
// ready to fold: sel lists the rows that pass every conjunct,
// ascending; gids[i] is survivor i's group id — part-local until
// encAggState.add maps it to the global one; keys holds each local id's
// key value, local ids numbered in order of first surviving occurrence.
type encPart struct {
	cols      []*EncodedColumn
	sel, gids []int32
	keys      []value.Value
}

// newEncPart filters one part and gives each survivor a part-local
// group id: one per RLE run and per dictionary code (NULL is one more
// code) that has a survivor, one per distinct value on plain pages. One
// key value may hold several local ids — the same value in two runs —
// which the remap by value merges.
func newEncPart(g *workGroup, sch schema.Schema, cols []*EncodedColumn, preds []planner.ScanPred, keyIdx int) (*encPart, error) {
	match, err := encodedMatches(g, sch, cols, preds, nil)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, m := range match {
		n += b2i(m)
	}
	// Which rows survive is rarely predictable: write every row and
	// advance past survivors only, so there is no branch to mispredict.
	sel := make([]int32, n+1)
	n = 0
	for r, m := range match {
		sel[n] = int32(r)
		n += b2i(m)
	}
	p := &encPart{cols: cols, sel: sel[:n], gids: make([]int32, n)}
	if keyIdx < 0 {
		p.keys = []value.Value{value.Null} // the global aggregate's one group
		return p, nil
	}
	key := cols[keyIdx]
	switch key.enc {
	case PageEncRLE:
		eachRun(key, p.sel, func(v value.Value, i, j int) {
			for x := i; x < j; x++ {
				p.gids[x] = int32(len(p.keys))
			}
			p.keys = append(p.keys, v)
		})
	case PageEncDict, PageEncDictShared:
		null := key.dict.Len()
		local := make([]int32, null+1) // per code, then NULL: local id + 1, 0 = none yet
		for i, r := range p.sel {
			c := null
			if key.valid == nil || key.valid[r] {
				c = int(key.code(int(r)))
			}
			if local[c] == 0 {
				p.keys = append(p.keys, key.rowValue(int(r)))
				local[c] = int32(len(p.keys))
			}
			p.gids[i] = local[c] - 1
		}
	default:
		t := keyTable{ids: map[string]int32{}}
		for i, r := range p.sel {
			p.gids[i] = t.id(key.rowValue(int(r)))
		}
		p.keys = t.keys
	}
	return p, nil
}

// eachRun walks an RLE page's runs alongside a selection and calls f
// with every run's value and the span sel[i:j] of survivors inside it,
// for runs that have any.
func eachRun(col *EncodedColumn, sel []int32, f func(v value.Value, i, j int)) {
	i, end := 0, 0
	for k, n := range col.runLens {
		end += n
		j := i
		for j < len(sel) && int(sel[j]) < end {
			j++
		}
		if j > i {
			f(col.runVals[k], i, j)
		}
		i = j
	}
}

// keyTable interns key values to dense ids in first-seen order. Two
// values are one key when their canonical encodings are equal — the
// equivalence groupAggregate's general case groups by.
type keyTable struct {
	ids  map[string]int32
	keys []value.Value // first-seen value per id
	buf  []byte        // AppendKey scratch
}

func (t *keyTable) id(v value.Value) int32 {
	t.buf = value.AppendKey(t.buf[:0], v)
	id, ok := t.ids[string(t.buf)]
	if !ok {
		id = int32(len(t.keys))
		t.ids[string(t.buf)] = id
		t.keys = append(t.keys, v)
	}
	return id
}

// encAggState accumulates groups across parts. Group ids are dense,
// assigned at first occurrence in dataset row order — exactly the order
// exec's groupAggregate assigns them over the concatenated table, so
// output rows land in the same order.
type encAggState struct {
	aggs   []core.AggSpec
	groups keyTable             // global groups
	accs   [][]exec.Accumulator // per aggregate, per group
}

func newEncAggState(aggs []core.AggSpec, hasKey bool) *encAggState {
	st := &encAggState{aggs: aggs, groups: keyTable{ids: map[string]int32{}}, accs: make([][]exec.Accumulator, len(aggs))}
	if !hasKey {
		// Global aggregate: exactly one group, present even over an
		// empty input (SQL's one-row global aggregate).
		st.group(value.Null)
	}
	return st
}

// group resolves a key value to its dense group id, creating the group
// and its accumulators on first occurrence.
func (st *encAggState) group(key value.Value) int32 {
	n := len(st.groups.keys)
	g := st.groups.id(key)
	if len(st.groups.keys) > n {
		for j, a := range st.aggs {
			st.accs[j] = append(st.accs[j], *exec.NewAccumulator(a.Func))
		}
	}
	return g
}

// add folds one part (nil for a segment without rows): its local keys
// map to global groups, one group call per local key, in local order —
// so groups are created in first-occurrence order — then each
// aggregate folds in one pass over the selection.
func (st *encAggState) add(p *encPart, argIdx []int) {
	if p == nil {
		return
	}
	remap := make([]int32, len(p.keys))
	for l, k := range p.keys {
		remap[l] = st.group(k)
	}
	for i, l := range p.gids {
		p.gids[i] = remap[l]
	}
	for j, ai := range argIdx {
		as := st.accs[j]
		if ai < 0 {
			// count(*): every surviving row counts, NULL or not.
			for _, g := range p.gids {
				as[g].AddRow()
			}
			continue
		}
		foldArg(as, st.aggs[j].Func, p.cols[ai], p.sel, p.gids)
	}
}

// foldArg folds one aggregate's argument column over a part's survivors
// into their groups' accumulators. Sums, averages and counts add
// unboxed — from an RLE run's value, a dictionary's typed entry table
// or a plain page's payload bytes — and read validity only where the
// page has a bitmap; min, max and count-distinct go through the boxed
// Add, which carries their comparison and dedup logic. Each group sees
// its values in dataset row order, so float sums stay bit-identical to
// a sequential fold.
func foldArg(as []exec.Accumulator, fn core.AggFunc, col *EncodedColumn, sel, gids []int32) {
	if col.enc == PageEncRLE {
		eachRun(col, sel, func(v value.Value, i, j int) { addRun(as, fn, gids[i:j], v) })
		return
	}
	valid, floats := col.valid, col.kind == value.KindFloat64
	vals := col.dict // entries, indexed by the codes in raw
	if col.col != nil {
		vals, valid = col.col, col.col.Validity() // a wrapped column: raw is nil, rows index it
	}
	switch {
	case fn == core.AggCount:
		for i, r := range sel {
			if valid == nil || valid[r] {
				as[gids[i]].AddRow()
			}
		}
	case (fn != core.AggSum && fn != core.AggAvg) || !col.kind.Numeric():
		for i, r := range sel {
			as[gids[i]].Add(col.rowValue(int(r)))
		}
	case vals != nil && floats:
		foldNums(as, vals.Floats(), col.raw, valid, sel, gids)
	case vals != nil:
		foldNums(as, vals.Ints(), col.raw, valid, sel, gids)
	default:
		for i, r := range sel {
			if valid != nil && !valid[r] {
				continue
			}
			bits := binary.BigEndian.Uint64(col.raw[8*r:])
			if floats {
				as[gids[i]].AddFloat(math.Float64frombits(bits))
			} else {
				as[gids[i]].AddInt(int64(bits))
			}
		}
	}
}

// addRun folds one RLE run's value v once for each of its survivors,
// into the groups gids.
func addRun(as []exec.Accumulator, fn core.AggFunc, gids []int32, v value.Value) {
	sum := fn == core.AggSum || fn == core.AggAvg
	switch {
	case v.IsNull():
	case fn == core.AggCount:
		for _, g := range gids {
			as[g].AddRow()
		}
	case sum && v.Kind() == value.KindInt64:
		for _, g := range gids {
			as[g].AddInt(v.Int())
		}
	case sum && v.Kind() == value.KindFloat64:
		for _, g := range gids {
			as[g].AddFloat(v.Float())
		}
	default:
		for _, g := range gids {
			as[g].Add(v)
		}
	}
}

// foldNums folds each non-NULL survivor's number into its group: row
// r's value is vals[r], or vals[code of r] when codes is a dictionary
// page's code array.
func foldNums[T int64 | float64](as []exec.Accumulator, vals []T, codes []byte, valid []bool, sel, gids []int32) {
	for i, r := range sel {
		if valid != nil && !valid[r] {
			continue
		}
		k := int(r)
		if codes != nil {
			k = int(binary.BigEndian.Uint32(codes[4*r:]))
		}
		switch x := any(vals[k]).(type) {
		case int64:
			as[gids[i]].AddInt(x)
		case float64:
			as[gids[i]].AddFloat(x)
		}
	}
}

// build emits one row per group in creation order: the key value at
// first occurrence, then each aggregate's Result coerced to the output
// schema's kind — the same construction groupAggregate performs.
func (st *encAggState) build(outSchema schema.Schema, nKeys int) (*table.Table, error) {
	b := table.NewBuilder(outSchema, len(st.groups.keys))
	rowBuf := make([]value.Value, 0, outSchema.Len())
	for g, key := range st.groups.keys {
		rowBuf = rowBuf[:0]
		if nKeys == 1 {
			rowBuf = append(rowBuf, key)
		}
		for i := range st.aggs {
			want := outSchema.At(nKeys + i).Kind
			rowBuf = append(rowBuf, st.accs[i][g].Result(want))
		}
		if err := b.Append(rowBuf...); err != nil {
			return nil, fmt.Errorf("storage: encoded groupagg: %w", err)
		}
	}
	return b.Build(), nil
}
