package storage

import (
	"errors"
	"fmt"
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
//   - The grouped-aggregate kernel (encAggState): a GroupAgg whose
//     filters are an exact conjunction and whose arguments are plain
//     columns folds directly over pages — group ids resolved once per
//     RLE run or dictionary code, whole runs folded through
//     Accumulator.AddN. Nothing re-runs downstream here, so the shape
//     gate (planner.AnalyzeAggAccess) is strict, and every fold mirrors
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
// consistent snapshot of the dataset: manifest segments in order (zone
// pruning applies — the conjunction is exact, so an excluded segment
// contributes no rows), then the unflushed tail. Reading, verifying,
// parsing and filtering a segment is independent of every other, so
// the surviving segments go through that side by side on one work
// group; the fold into groups then runs over them in manifest order on
// the caller, which keeps group order and float sums exactly those of
// a sequential scan.
func (e *Engine) aggTable(agg planner.AggAccess, outSchema schema.Schema) (*table.Table, bool, error) {
	name := agg.Scan.Dataset
	var out *table.Table
	unservable := false
	err := e.st.readSnapshot(name, func(refs []SegmentRef, parts []*table.Table) error {
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
		segs := make([]*EncodedSegment, len(live))
		matches := make([][]bool, len(live))
		g := newWorkGroup()
		err := g.forEach(len(live), func(i int) (err error) {
			if segs[i], err = e.st.read(g, name, live[i], positions); err == nil && segs[i].Meta.Rows > 0 {
				matches[i], err = encodedMatches(g, proj, segs[i].Cols, agg.Preds, nil)
			}
			return err
		})
		if err != nil {
			return err
		}
		e.countSegments(len(live), skipped)
		st := newEncAggState(agg.Aggs, keyIdx >= 0)
		for i, es := range segs {
			st.addPart(es.Cols, matches[i], keyIdx, argIdx)
		}
		for _, p := range parts {
			if p.NumRows() == 0 {
				continue
			}
			ecols := wrapTable(p.Project(positions), SegmentMeta{}).Cols
			match, err := encodedMatches(g, proj, ecols, agg.Preds, nil)
			if err != nil {
				return err
			}
			st.addPart(ecols, match, keyIdx, argIdx)
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

// encAggState accumulates groups across parts. Group ids are dense,
// assigned at first occurrence in dataset row order — exactly the order
// exec's groupAggregate assigns them over the concatenated table, so
// output rows land in the same order.
type encAggState struct {
	aggs []core.AggSpec
	gids map[string]int32      // canonical key encoding -> group id
	keys []value.Value         // first-occurrence key value per group
	accs [][]*exec.Accumulator // per group, per aggregate
	buf  []byte                // AppendKey scratch
}

func newEncAggState(aggs []core.AggSpec, hasKey bool) *encAggState {
	st := &encAggState{aggs: aggs, gids: map[string]int32{}}
	if !hasKey {
		// Global aggregate: exactly one group, present even over an
		// empty input (SQL's one-row global aggregate).
		st.addGroup(value.Null)
	}
	return st
}

func (st *encAggState) addGroup(key value.Value) int32 {
	g := int32(len(st.keys))
	st.keys = append(st.keys, key)
	row := make([]*exec.Accumulator, len(st.aggs))
	for i, a := range st.aggs {
		row[i] = exec.NewAccumulator(a.Func)
	}
	st.accs = append(st.accs, row)
	return g
}

// group resolves a key value to its dense group id, creating the group
// on first occurrence. Grouping equivalence is the canonical key
// encoding — the same equivalence groupAggregate's general case uses.
func (st *encAggState) group(key value.Value) int32 {
	st.buf = value.AppendKey(st.buf[:0], key)
	g, ok := st.gids[string(st.buf)]
	if !ok {
		g = st.addGroup(key)
		st.gids[string(st.buf)] = g
	}
	return g
}

// addPart folds one part (segment or tail chunk), already filtered to
// match (nil for a part without rows), into the running groups: assign
// group ids at run/code granularity, fold each aggregate column.
func (st *encAggState) addPart(cols []*EncodedColumn, match []bool, keyIdx int, argIdx []int) {
	// Per-row group ids; -1 marks rows the filter removed.
	gids := make([]int32, len(match))
	if keyIdx < 0 {
		for r, m := range match {
			if !m {
				gids[r] = -1
			}
		}
	} else {
		st.assignGids(cols[keyIdx], match, gids)
	}
	for j, ai := range argIdx {
		if ai < 0 {
			// count(*): every surviving row counts, NULL or not.
			for _, g := range gids {
				if g >= 0 {
					st.accs[g][j].AddRows(1)
				}
			}
			continue
		}
		st.fold(cols[ai], gids, j)
	}
}

// assignGids computes each surviving row's group id from the key
// column: one key resolution per RLE run, one per dictionary code, one
// per row on plain pages. Resolution happens at the first *surviving*
// occurrence, so group creation order matches the filtered row order
// the generic path sees.
func (st *encAggState) assignGids(key *EncodedColumn, match []bool, gids []int32) {
	const unresolved = int32(-2)
	switch key.Encoding() {
	case PageEncRLE:
		at := 0
		for i, n := range key.runLens {
			g := unresolved
			for r := at; r < at+n; r++ {
				if !match[r] {
					gids[r] = -1
					continue
				}
				if g == unresolved {
					g = st.group(key.runVals[i])
				}
				gids[r] = g
			}
			at += n
		}
	case PageEncDict, PageEncDictShared:
		codeGid := make([]int32, key.dict.Len())
		for i := range codeGid {
			codeGid[i] = unresolved
		}
		nullGid := unresolved
		for r := range gids {
			if !match[r] {
				gids[r] = -1
				continue
			}
			if key.valid != nil && !key.valid[r] {
				if nullGid == unresolved {
					nullGid = st.group(value.Null)
				}
				gids[r] = nullGid
				continue
			}
			c := key.code(r)
			if codeGid[c] == unresolved {
				codeGid[c] = st.group(key.dict.Value(int(c)))
			}
			gids[r] = codeGid[c]
		}
	default:
		for r := range gids {
			if !match[r] {
				gids[r] = -1
				continue
			}
			gids[r] = st.group(key.plainValue(r))
		}
	}
}

// fold accumulates one aggregate's argument column. RLE runs fold
// through AddN (one call per consecutive same-group stretch — for float
// sums AddN itself loops, keeping the arithmetic order identical to
// row-at-a-time). Dictionary pages box each distinct entry once.
func (st *encAggState) fold(col *EncodedColumn, gids []int32, j int) {
	switch col.Encoding() {
	case PageEncRLE:
		at := 0
		for i, n := range col.runLens {
			v := col.runVals[i]
			end := at + n
			for r := at; r < end; {
				g := gids[r]
				if g < 0 {
					r++
					continue
				}
				stretch := r + 1
				for stretch < end && gids[stretch] == g {
					stretch++
				}
				st.accs[g][j].AddN(v, stretch-r)
				r = stretch
			}
			at = end
		}
	case PageEncDict, PageEncDictShared:
		var entries []value.Value // boxed lazily, once per distinct entry
		for r, g := range gids {
			if g < 0 {
				continue
			}
			if col.valid != nil && !col.valid[r] {
				continue // NULL: Add would ignore it anyway
			}
			if entries == nil {
				entries = make([]value.Value, col.dict.Len())
				for c := range entries {
					entries[c] = col.dict.Value(c)
				}
			}
			st.accs[g][j].Add(entries[col.code(r)])
		}
	default:
		for r, g := range gids {
			if g < 0 {
				continue
			}
			st.accs[g][j].Add(col.plainValue(r))
		}
	}
}

// build emits one row per group in creation order: the key value at
// first occurrence, then each aggregate's Result coerced to the output
// schema's kind — the same construction groupAggregate performs.
func (st *encAggState) build(outSchema schema.Schema, nKeys int) (*table.Table, error) {
	b := table.NewBuilder(outSchema, len(st.keys))
	rowBuf := make([]value.Value, 0, outSchema.Len())
	for g := range st.keys {
		rowBuf = rowBuf[:0]
		if nKeys == 1 {
			rowBuf = append(rowBuf, st.keys[g])
		}
		for i := range st.aggs {
			want := outSchema.At(nKeys + i).Kind
			rowBuf = append(rowBuf, st.accs[g][i].Result(want))
		}
		if err := b.Append(rowBuf...); err != nil {
			return nil, fmt.Errorf("storage: encoded groupagg: %w", err)
		}
	}
	return b.Build(), nil
}
