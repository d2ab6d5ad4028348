package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Encoded execution: evaluate scan predicates directly over the page
// encodings instead of decoding every page to plain columns first. An
// EncodedColumn is the parsed-but-not-materialized view of one page —
// for an RLE page that is the run list (a predicate tests each run's
// value once and accepts or rejects all its rows in O(1)), for a dict or
// shared-dict page the dictionary entries plus per-row codes (the
// constant is compared against each distinct entry once, then rows are
// filtered by a table lookup on their code — no string comparison per
// row), for a plain int64/float64 page the verified payload bytes
// themselves. Fixed-width payloads (plain values, dictionary codes) stay
// big-endian bytes: a predicate reads them in place, and only rows that
// survive every conjunct are ever decoded.
//
// Correctness contract: AndMatches must agree exactly with what the
// vectorized expression kernels would compute on the materialized
// column. Both sides bottom out in value.Compare's total order (NULL
// first, int64 exact, mixed numerics as NaN-first floats), so a NULL row
// matches `<`, `<=`, and `!=` against a non-NULL constant here exactly
// as it does there; the differential suite in encoded_diff_test.go holds
// the two paths byte-identical.

// EncodedColumn is one column page in its encoded form. Exactly one
// representation is populated, per enc:
//
//	PageEncPlain                  col (bool/string pages, wrapped columns)
//	                              or raw + valid (int64/float64 pages)
//	PageEncDict/PageEncDictShared dict + raw + valid
//	PageEncRLE                    runLens + runVals
type EncodedColumn struct {
	kind value.Kind
	rows int
	enc  uint8

	col *table.Column // plain: already materialized

	// raw is the fixed-width part of the payload as read from disk,
	// big-endian, length-checked at parse: rows×8 values on a plain page,
	// rows×4 codes (bounds-checked for non-null rows) on a dict page.
	raw   []byte
	dict  *table.Column // dict entries, indexed by code
	valid []bool        // nil = all valid

	runLens []int         // per-run lengths (positive, sum = rows)
	runVals []value.Value // per-run values (value.Null for null runs)
}

// Rows returns the page's row count.
func (ec *EncodedColumn) Rows() int { return ec.rows }

// Kind returns the column kind.
func (ec *EncodedColumn) Kind() value.Kind { return ec.kind }

// Encoding returns the page encoding this view was parsed from.
func (ec *EncodedColumn) Encoding() uint8 { return ec.enc }

// EncodedSegment is a segment read whose columns stay in encoded form:
// what readSegmentEncoded returns, the segment cache holds, and every
// scan, aggregate and dataset load consumes. Schema, Meta.Zones and
// Cols cover only the selected columns, in selection order. FileBytes
// is how many file bytes the read consumed (0 for a segment Flush cached
// from the table it wrote).
type EncodedSegment struct {
	Schema    schema.Schema
	Cols      []*EncodedColumn
	Meta      SegmentMeta
	FileBytes int64
}

// encodedFromColumn wraps an already-materialized column so callers can
// treat tails, freshly flushed tables and v1 segments uniformly with
// encoded pages.
func encodedFromColumn(col *table.Column) *EncodedColumn {
	return &EncodedColumn{kind: col.Kind(), rows: col.Len(), enc: PageEncPlain, col: col}
}

// wrapTable views every column of a materialized table as an encoded
// segment, without copying.
func wrapTable(t *table.Table, meta SegmentMeta) *EncodedSegment {
	cols := make([]*EncodedColumn, t.NumCols())
	for i := range cols {
		cols[i] = encodedFromColumn(t.Col(i))
	}
	return &EncodedSegment{Schema: t.Schema(), Cols: cols, Meta: meta}
}

// project picks the given column positions of the segment, sharing the
// parsed columns.
func (es *EncodedSegment) project(positions []int) (*EncodedSegment, error) {
	cols := make([]*EncodedColumn, len(positions))
	zones := make([]ZoneMap, len(positions))
	for i, c := range positions {
		if c < 0 || c >= len(es.Cols) {
			return nil, fmt.Errorf("projected column %d out of %d", c, len(es.Cols))
		}
		cols[i], zones[i] = es.Cols[c], es.Meta.Zones[c]
	}
	return &EncodedSegment{
		Schema:    es.Schema.Project(positions),
		Cols:      cols,
		Meta:      SegmentMeta{SchemaHash: es.Meta.SchemaHash, Rows: es.Meta.Rows, Zones: zones},
		FileBytes: es.FileBytes,
	}, nil
}

// materialize decodes the rows in sel (nil = every row) of every column
// into a table, one column per task on g.
func (es *EncodedSegment) materialize(g *workGroup, sel []int) (*table.Table, error) {
	cols := make([]*table.Column, len(es.Cols))
	err := g.forEach(len(cols), func(i int) (err error) {
		cols[i], err = es.Cols[i].materialize(sel)
		return err
	})
	if err != nil {
		return nil, err
	}
	return table.New(es.Schema, cols)
}

// parsePageEncoded parses one page into its encoded view without
// materializing rows: the single page parser — CRC, framing, exact
// payload lengths and code bounds are all verified here.
func parsePageEncoded(b []byte, kind value.Kind, ctx pageCtx) (*EncodedColumn, error) {
	enc, rows, d, err := parsePageHeader(b)
	if err != nil {
		return nil, err
	}
	ec := &EncodedColumn{kind: kind, rows: rows, enc: enc}
	switch enc {
	case PageEncPlain:
		ec.col, ec.raw, ec.valid, err = getPlainPayload(d, kind, rows)
	case PageEncDict:
		ec.dict, ec.raw, ec.valid, err = getDictEncoded(d, kind, rows)
	case PageEncRLE:
		ec.runLens, ec.runVals, err = getRLERuns(d, kind, rows)
	case PageEncDictShared:
		ec.dict, ec.raw, ec.valid, err = getDictSharedEncoded(d, kind, rows, ctx)
	default:
		return nil, fmt.Errorf("storage: unknown column page encoding %d", enc)
	}
	if err != nil {
		return nil, err
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("storage: %s page: %w", encodingName(enc), err)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("storage: %s page has %d trailing bytes", encodingName(enc), d.Remaining())
	}
	if ec.col != nil && ec.col.Len() != rows {
		return nil, fmt.Errorf("storage: %s page decoded %d rows, header says %d", encodingName(enc), ec.col.Len(), rows)
	}
	return ec, nil
}

// code returns row r's dictionary code (dict and shared-dict pages).
func (ec *EncodedColumn) code(r int) uint32 { return binary.BigEndian.Uint32(ec.raw[4*r:]) }

// rowValue boxes row r of a plain or dictionary page, or of a wrapped
// column.
func (ec *EncodedColumn) rowValue(r int) value.Value {
	switch {
	case ec.col != nil:
		return ec.col.Value(r)
	case ec.valid != nil && !ec.valid[r]:
		return value.Null
	case ec.dict != nil:
		return ec.dict.Value(int(ec.code(r)))
	case ec.kind == value.KindInt64:
		return value.NewInt(int64(binary.BigEndian.Uint64(ec.raw[8*r:])))
	}
	return value.NewFloat(math.Float64frombits(binary.BigEndian.Uint64(ec.raw[8*r:])))
}

// cmpHoldsEnc mirrors the expression kernels' comparison dispatch
// (expr.cmpHolds): given value.Compare's three-way result, does op hold?
// Copied rather than imported to keep storage free of an expr
// dependency; the differential suite pins the two in agreement.
func cmpHoldsEnc(op value.BinOp, c int) bool {
	switch op {
	case value.OpEq:
		return c == 0
	case value.OpNe:
		return c != 0
	case value.OpLt:
		return c < 0
	case value.OpLe:
		return c <= 0
	case value.OpGt:
		return c > 0
	default: // OpGe
		return c >= 0
	}
}

// AndMatches ANDs `row op val` into acc (len acc == Rows()): acc[r] is
// cleared wherever the predicate does not hold and never set. NULL rows
// compare as value.Null under the total order, which
// is exactly what the vectorized kernels do on a materialized column.
//
// Cost: one value.Compare per RLE run, one per distinct dictionary
// entry, and on plain pages one typed range test per row read straight
// from the payload bytes (andPlain).
func (ec *EncodedColumn) AndMatches(op value.BinOp, val value.Value, acc []bool) {
	ec.matcher(op, val)(0, acc)
}

// matcher does the per-page half of AndMatches once — the verdict of
// every RLE run or distinct dictionary entry — and returns the per-row
// half over any row range: and(lo, acc) ANDs the predicate into acc for
// rows lo … lo+len(acc)-1, so morsels of one page can be tested side by
// side. On an RLE page a morsel binary-searches the first rejected run
// it overlaps and clears only the rejected runs inside its range.
func (ec *EncodedColumn) matcher(op value.BinOp, val value.Value) (and func(lo int, acc []bool)) {
	switch ec.enc {
	case PageEncRLE:
		var bad [][2]int // rows [start, end) of each run the predicate rejects
		at := 0
		for i, n := range ec.runLens {
			if !cmpHoldsEnc(op, value.Compare(ec.runVals[i], val)) {
				bad = append(bad, [2]int{at, at + n})
			}
			at += n
		}
		return func(lo int, acc []bool) {
			hi := lo + len(acc)
			i, _ := slices.BinarySearchFunc(bad, lo+1, func(b [2]int, t int) int { return b[1] - t }) // first ending past lo
			for ; i < len(bad) && bad[i][0] < hi; i++ {
				clear(acc[max(bad[i][0], lo)-lo : min(bad[i][1], hi)-lo])
			}
		}
	case PageEncDict, PageEncDictShared:
		verdict := make([]bool, ec.dict.Len())
		for c := range verdict {
			verdict[c] = cmpHoldsEnc(op, value.Compare(ec.dict.Value(c), val))
		}
		return func(lo int, acc []bool) {
			codes := ec.raw[4*lo : 4*(lo+len(acc))]
			if ec.valid == nil {
				// Which rows match is rarely predictable; keep the store
				// unconditional so there is no branch to mispredict.
				for r := range acc {
					hold := verdict[binary.BigEndian.Uint32(codes[4*r:4*r+4])]
					acc[r] = acc[r] && hold
				}
				return
			}
			valid := ec.valid[lo : lo+len(acc)]
			for r, ok := range valid {
				if ok && !verdict[binary.BigEndian.Uint32(codes[4*r:4*r+4])] {
					acc[r] = false
				}
			}
			andNulls(valid, op, val, acc)
		}
	}
	return func(lo int, acc []bool) { ec.andPlain(op, val, lo, acc) } // plain (and wrapped columns)
}

// andNulls applies the predicate's verdict on NULL to the NULL rows,
// which the typed loops skip.
func andNulls(valid []bool, op value.BinOp, val value.Value, acc []bool) {
	if valid == nil || cmpHoldsEnc(op, value.Compare(value.Null, val)) {
		return
	}
	for r, ok := range valid {
		if !ok {
			acc[r] = false
		}
	}
}

// andPlain is AndMatches on a plain page or wrapped column. Numeric
// columns against numeric constants and strings against strings — the
// comparisons scans are made of — run as typed loops, over the raw
// payload when the page is undecoded. value.Compare orders int64 against
// int64 exactly and every other numeric pair as floats, and every
// operator over such an order is membership in (or outside) one closed
// range, so a loop is one range test per row. Everything else (bool
// columns, cross-kind and NULL constants, a NaN constant, which the
// total order places below every number) takes the boxed comparison.
// acc covers rows first … first+len(acc)-1.
func (ec *EncodedColumn) andPlain(op value.BinOp, val value.Value, first int, acc []bool) {
	end := first + len(acc)
	valid := ec.valid
	if ec.col != nil {
		valid = ec.col.Validity()
	}
	if valid != nil {
		valid = valid[first:end]
	}
	c, numeric := val.AsFloat()
	switch {
	case ec.kind == value.KindInt64 && val.Kind() == value.KindInt64:
		lo, hi, outside := opRange(op, val.Int(), math.MaxInt64, val.Int()+1)
		if ec.col != nil {
			andRange(ec.col.Ints()[first:end], valid, lo, hi, outside, acc)
		} else {
			andRangeRaw(ec.raw[8*first:8*end], false, valid, lo, hi, outside, acc)
		}
	case (ec.kind == value.KindInt64 || ec.kind == value.KindFloat64) && numeric && c == c:
		lo, hi, outside := opRange(op, c, math.Inf(1), math.Nextafter(c, math.Inf(1)))
		switch {
		case ec.col == nil:
			andRangeRaw(ec.raw[8*first:8*end], ec.kind == value.KindFloat64, valid, lo, hi, outside, acc)
		case ec.kind == value.KindInt64:
			andRange(ec.col.Ints()[first:end], valid, lo, hi, outside, acc)
		default:
			andRange(ec.col.Floats()[first:end], valid, lo, hi, outside, acc)
		}
	case ec.kind == value.KindString && val.Kind() == value.KindString:
		s := val.Str()
		for r, v := range ec.col.Strs()[first:end] {
			if acc[r] && (valid == nil || valid[r]) && !cmpHoldsEnc(op, strings.Compare(v, s)) {
				acc[r] = false
			}
		}
	default:
		for r := range acc {
			if acc[r] && !cmpHoldsEnc(op, value.Compare(ec.rowValue(first+r), val)) {
				acc[r] = false
			}
		}
		return
	}
	andNulls(valid, op, val, acc)
}

// opRange turns `x op c` into membership in the closed range [lo, hi]
// or — outside set — in its complement (`x < c` is "not x >= c"); an
// empty range is lo > hi. top is the order's greatest value and next the
// successor of c (unused when c is top). For floats this is the NaN-first
// order with a non-NaN c: NaN rows sit below everything, so they are
// outside every range the native comparison can express and inside every
// complement — exactly where `<`, `<=` and `!=` put them.
func opRange[R int64 | float64](op value.BinOp, c, top, next R) (lo, hi R, outside bool) {
	switch op {
	case value.OpEq, value.OpNe:
		return c, c, op == value.OpNe
	case value.OpGe, value.OpLt:
		return c, top, op == value.OpLt
	}
	// OpGt, and OpLe as "not x > c".
	if c == top {
		return 1, 0, op == value.OpLe
	}
	return next, top, op == value.OpLe
}

// andRange clears acc[r] for every valid row whose value, converted to
// the range's type the way value.Compare converts it, falls on the wrong
// side of [lo, hi].
func andRange[T, R int64 | float64](vals []T, valid []bool, lo, hi R, outside bool, acc []bool) {
	vals = vals[:len(acc)]
	for r := range acc {
		if x := R(vals[r]); (x >= lo && x <= hi) == outside && (valid == nil || valid[r]) {
			acc[r] = false
		}
	}
}

// andRangeRaw is andRange over an undecoded rows×8 big-endian payload of
// int64s or (floats set) float64s.
func andRangeRaw[R int64 | float64](raw []byte, floats bool, valid []bool, lo, hi R, outside bool, acc []bool) {
	raw = raw[:8*len(acc)]
	for r := range acc {
		bits := binary.BigEndian.Uint64(raw[8*r : 8*r+8])
		x := R(int64(bits))
		if floats {
			x = R(math.Float64frombits(bits))
		}
		if (x >= lo && x <= hi) == outside && (valid == nil || valid[r]) {
			acc[r] = false
		}
	}
}

// Materialize decodes the full page to a plain column.
func (ec *EncodedColumn) Materialize() (*table.Column, error) {
	return ec.materialize(nil)
}

// MaterializeRows decodes only the selected rows (sel strictly
// ascending, every index < Rows()) to a plain column — the selective
// half of encoded execution: rows a predicate rejected are never
// decoded.
func (ec *EncodedColumn) MaterializeRows(sel []int) (*table.Column, error) {
	if sel == nil {
		sel = []int{}
	}
	return ec.materialize(sel)
}

// materialize decodes the rows in sel, or every row when sel is nil.
func (ec *EncodedColumn) materialize(sel []int) (*table.Column, error) {
	switch {
	case ec.enc == PageEncRLE && sel == nil:
		return fillRuns(ec.kind, ec.runLens, ec.runVals, ec.rows)
	case ec.enc == PageEncRLE:
		return ec.gatherRuns(sel)
	case ec.enc == PageEncDict || ec.enc == PageEncDictShared:
		return materializeDict(ec.dict, ec.raw, ec.valid, sel), nil
	case ec.col == nil:
		return materializeFixed(ec.kind, ec.raw, ec.valid, sel), nil
	case sel == nil:
		return ec.col, nil
	}
	return ec.col.Gather(sel), nil
}

// gatherRuns materializes selected rows of an RLE page by walking runs
// and selection together (both ascending), so cost is O(runs + len(sel))
// with one unbox per touched run.
func (ec *EncodedColumn) gatherRuns(sel []int) (*table.Column, error) {
	lens := make([]int, 0, len(ec.runLens))
	vals := make([]value.Value, 0, len(ec.runVals))
	i, at := 0, 0 // current run, its start row
	count := 0
	for _, r := range sel {
		for r >= at+ec.runLens[i] {
			at += ec.runLens[i]
			i++
		}
		if n := len(lens); n > 0 && vals[n-1] == ec.runVals[i] {
			lens[n-1]++
		} else {
			lens = append(lens, 1)
			vals = append(vals, ec.runVals[i])
		}
		count++
	}
	return fillRuns(ec.kind, lens, vals, count)
}
