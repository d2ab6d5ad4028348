package storage

import (
	"bytes"
	"testing"

	"nexus/internal/table"
	"nexus/internal/value"
)

// FuzzSegment hardens the segment decoder against arbitrary bytes: it
// must either return an error or a segment whose rows survive a
// re-encode/decode round trip — never panic, never fabricate rows.
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
		// The structural verifier and the dictionary-aware decoder see
		// every input too: error or success, never a panic. A segment
		// that decodes must agree with itself on the row count.
		_ = VerifySegment(data)
		dseg, derr := DecodeSegmentDicts(data, fuzzDicts)
		if derr == nil && int64(dseg.Table.NumRows()) != dseg.Meta.Rows {
			t.Fatalf("dict decode claims %d rows, table has %d", dseg.Meta.Rows, dseg.Table.NumRows())
		}
		// The projected read keeps fixed-width payloads and code arrays
		// as bytes and reads them in place for as long as the view lives:
		// whatever it accepts must filter and decode without a panic, and
		// agree with the eager decode wherever that succeeds too.
		for _, positions := range [][]int{{0}, {2, 0}, {0, 1, 2}} {
			es, err := readSegmentEncoded(bytes.NewReader(data), positions, fuzzDicts, newWorkGroup())
			if err != nil || es.Meta.Rows > 1<<16 {
				continue
			}
			for i, ec := range es.Cols {
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
				part, err := ec.MaterializeRows(sel)
				if err != nil {
					t.Fatalf("column %d: materialize rows: %v", positions[i], err)
				}
				full, err := ec.Materialize()
				if err != nil {
					t.Fatalf("column %d: materialize: %v", positions[i], err)
				}
				if part.Len() != len(sel) || full.Len() != ec.Rows() {
					t.Fatalf("column %d: materialized %d of %d selected, %d of %d rows", positions[i], part.Len(), len(sel), full.Len(), ec.Rows())
				}
				if derr != nil {
					continue
				}
				want := dseg.Table.Col(positions[i])
				for r := 0; r < full.Len(); r++ {
					if value.Compare(want.Value(r), full.Value(r)) != 0 {
						t.Fatalf("column %d row %d: projected read %v, full decode %v", positions[i], r, full.Value(r), want.Value(r))
					}
				}
			}
		}
		seg, err := DecodeSegment(data)
		if err != nil {
			return
		}
		// Anything that decodes must be internally consistent.
		if int64(seg.Table.NumRows()) != seg.Meta.Rows {
			t.Fatalf("decoded segment claims %d rows, table has %d", seg.Meta.Rows, seg.Table.NumRows())
		}
		re2, err := DecodeSegment(encodeSegment(seg.Table))
		if err != nil {
			t.Fatalf("re-encoded segment fails to decode: %v", err)
		}
		if !table.EqualRows(seg.Table, re2.Table) {
			t.Fatal("rows changed across re-encode")
		}
	})
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
