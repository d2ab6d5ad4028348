package storage

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nexus/internal/table"
	"nexus/internal/value"
)

// FuzzSegment hardens the segment reader against arbitrary bytes: it
// must either return an error or a segment whose rows survive a
// re-encode/read round trip — never panic, never fabricate rows.
func FuzzSegment(f *testing.F) {
	f.Add(encodeSegment(rowsTable(0, 10)))
	f.Add(encodeSegment(rowsTable(0, 0)))
	f.Add(encodeSegment(nullableTable()))
	// Legacy v1 seeds: the decoder dispatches on the version byte and
	// must stay robust for both layouts.
	f.Add(encodeSegmentV1(rowsTable(0, 10)))
	f.Add(encodeSegmentV1(nullableTable()))
	// A dict-heavy v2 seed (few distinct values over many rows) steers
	// the fuzzer at the non-plain page decoders.
	small := rowsTable(0, 10)
	parts := make([]*table.Table, 19)
	for i := range parts {
		parts[i] = small
	}
	if repeated, err := small.Concat(parts...); err == nil {
		f.Add(encodeSegment(repeated))
	}
	// v3 seeds: segments whose string pages resolve through a shared
	// dictionary. fuzzDicts below carries the same dictionary into the
	// fuzz body, so mutations reach the code-bounds and epoch armor
	// rather than dying at "no dictionary".
	fuzzDicts := DictSet{}
	v3 := EncodeSegmentDict(lowCardTable(130), fuzzDicts, true)
	f.Add(v3)
	f.Add(v3[:len(v3)-3])
	hostileCode := append([]byte(nil), v3...)
	hostileCode[len(hostileCode)-6] ^= 0xff // codes sit at the tail of the last page
	f.Add(hostileCode)

	// A few structurally-broken seeds steer the fuzzer at the armor.
	trunc := encodeSegment(rowsTable(0, 3))
	f.Add(trunc[:len(trunc)-2])
	flip := append([]byte(nil), trunc...)
	flip[len(flip)/2] ^= 0xff
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The one reader, every column, shared pages resolved through the
		// dataset dictionaries: it checks everything the structural
		// verifier checks and more, so whatever VerifySegment rejects the
		// read must reject too. Neither may panic.
		verr := VerifySegment(data)
		g := newWorkGroup()
		es, err := readSegmentEncoded(bytes.NewReader(data), nil, fuzzDicts, g)
		if verr != nil && err == nil {
			t.Fatalf("VerifySegment rejects (%v) what the read accepts", verr)
		}
		var full []*table.Column
		if err == nil && es.Meta.Rows <= 1<<16 {
			full = fuzzColumns(t, es, nil)
		}
		// Projected reads run on every input, whatever the full read made
		// of it: an unselected page may be corrupt or out of range and the
		// projection must still filter and decode what it accepts. Where
		// the full read succeeded, a projection of columns it holds must
		// succeed too and agree with it.
		for _, positions := range [][]int{{0}, {2, 0}, {0, 1, 2}} {
			proj, perr := readSegmentEncoded(bytes.NewReader(data), positions, fuzzDicts, g)
			if perr != nil {
				if err == nil && slices.Max(positions) < len(es.Cols) {
					t.Fatalf("projection %v fails where the full read succeeds: %v", positions, perr)
				}
				continue
			}
			if proj.Meta.Rows > 1<<16 {
				continue
			}
			got := fuzzColumns(t, proj, positions)
			if full == nil {
				continue
			}
			for i := range got {
				colEq(t, full[positions[i]], got[i], fmt.Sprintf("column %d projected vs full read", positions[i]))
			}
		}
		if full == nil {
			return
		}
		// Whatever reads must survive a re-encode/read round trip.
		tbl, err := table.New(es.Schema, full)
		if err != nil {
			return // a schema the table layer refuses (e.g. duplicate names)
		}
		back, _, err := readTable(encodeSegment(tbl), nil, nil)
		if err != nil {
			t.Fatalf("re-encoded segment fails to read: %v", err)
		}
		if !table.EqualRows(tbl, back) {
			t.Fatal("rows changed across re-encode")
		}
	})
}

// fuzzColumns drives every column of a read segment through the
// production entry points — AndMatches, MaterializeRows over a sparse
// selection (every other row, as a filtered scan asks) and over every
// row, and Materialize — and returns the materialized columns. The
// read keeps fixed-width payloads and code arrays as bytes and reads
// them in place, so none of this may panic, and the three
// materializations must agree. positions names the columns for
// messages; nil means es holds every column in order.
func fuzzColumns(t *testing.T, es *EncodedSegment, positions []int) []*table.Column {
	t.Helper()
	out := make([]*table.Column, len(es.Cols))
	for i, ec := range es.Cols {
		c := i
		if positions != nil {
			c = positions[i]
		}
		if int64(ec.Rows()) != es.Meta.Rows {
			t.Fatalf("column %d holds %d rows, footer says %d", c, ec.Rows(), es.Meta.Rows)
		}
		acc := make([]bool, ec.Rows())
		var sel []int
		for r := range acc {
			acc[r] = true
			if r%2 == 0 {
				sel = append(sel, r)
			}
		}
		for _, cv := range []value.Value{value.NewInt(3), value.NewFloat(2.5), value.NewString("s003"), value.Null} {
			ec.AndMatches(value.OpLe, cv, acc)
			ec.AndMatches(value.OpNe, cv, acc)
		}
		full, err := ec.Materialize()
		if err != nil {
			t.Fatalf("column %d: materialize: %v", c, err)
		}
		if full.Len() != ec.Rows() {
			t.Fatalf("column %d: materialized %d of %d rows", c, full.Len(), ec.Rows())
		}
		part, err := ec.MaterializeRows(sel)
		if err != nil {
			t.Fatalf("column %d: materialize sparse rows: %v", c, err)
		}
		if part.Len() != len(sel) {
			t.Fatalf("column %d: materialized %d of %d selected rows", c, part.Len(), len(sel))
		}
		for k, r := range sel {
			if value.Compare(full.Value(r), part.Value(k)) != 0 {
				t.Fatalf("column %d row %d: MaterializeRows %v, Materialize %v", c, r, part.Value(k), full.Value(r))
			}
		}
		every, err := ec.MaterializeRows(allRows(ec.Rows()))
		if err != nil {
			t.Fatalf("column %d: materialize rows: %v", c, err)
		}
		colEq(t, full, every, fmt.Sprintf("column %d MaterializeRows(every row) vs Materialize", c))
		out[i] = full
	}
	return out
}

// nullableTable mixes NULLs into every column, exercising validity
// bitmaps and NULL zone minima.
func nullableTable() *table.Table {
	base := rowsTable(0, 6)
	b := table.NewBuilder(base.Schema(), 8)
	for i := 0; i < base.NumRows(); i++ {
		if i%2 == 1 {
			b.MustAppend(value.Null, value.Null, value.Null)
		} else {
			b.MustAppend(base.Value(i, 0), base.Value(i, 1), base.Value(i, 2))
		}
	}
	return b.Build()
}
