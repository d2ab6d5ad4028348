package storage

import (
	"bytes"
	"hash/crc32"
	"os"
	"testing"

	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// pageColumns builds columns exercising every kind, null patterns, and
// shapes that favor each encoding.
func pageColumns() map[string]*table.Column {
	n := 1000
	runs := make([]int64, n) // long runs -> RLE
	lowCard := make([]string, n)
	highCard := make([]int64, n) // all distinct -> plain
	floats := make([]float64, n)
	bools := make([]bool, n)
	for i := 0; i < n; i++ {
		runs[i] = int64(i / 100)
		lowCard[i] = []string{"red", "green", "blue"}[i%3]
		highCard[i] = int64(i * 7)
		floats[i] = float64(i%5) + 0.25
		bools[i] = i%97 == 0
	}
	withNulls := table.NewColumn(value.KindString, n)
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			withNulls.Append(value.Null)
		} else {
			withNulls.Append(value.NewString(lowCard[i]))
		}
	}
	return map[string]*table.Column{
		"runs":      table.IntColumn(runs),
		"lowCard":   table.StringColumn(lowCard),
		"highCard":  table.IntColumn(highCard),
		"floats":    table.FloatColumn(floats),
		"bools":     table.BoolColumn(bools),
		"withNulls": withNulls,
	}
}

// TestPageEncodingRoundtrip decodes every column under every encoding
// back to identical values — the chooser may pick any of them, so all
// three must be lossless for all kinds and null patterns.
func TestPageEncodingRoundtrip(t *testing.T) {
	for name, col := range pageColumns() {
		for _, enc := range []uint8{PageEncPlain, PageEncRLE} {
			checkPageRoundtrip(t, name, col, enc)
		}
		if col.Kind() != value.KindBool {
			checkPageRoundtrip(t, name, col, PageEncDict)
		}
	}
}

func checkPageRoundtrip(t *testing.T, name string, col *table.Column, enc uint8) {
	t.Helper()
	page := encodePage(col, enc, nil)
	got, err := pageColumn(page, col.Kind(), pageCtx{})
	if err != nil {
		t.Fatalf("%s/%s: decode: %v", name, encodingName(enc), err)
	}
	if got.Len() != col.Len() {
		t.Fatalf("%s/%s: %d rows, want %d", name, encodingName(enc), got.Len(), col.Len())
	}
	for r := 0; r < col.Len(); r++ {
		if !value.Equal(col.Value(r), got.Value(r)) {
			t.Fatalf("%s/%s: row %d: got %v want %v", name, encodingName(enc), r, got.Value(r), col.Value(r))
		}
	}
	// Corrupt any byte: the page CRC must catch it.
	bad := append([]byte(nil), page...)
	bad[len(bad)/2] ^= 0x20
	if _, err := pageColumn(bad, col.Kind(), pageCtx{}); err == nil {
		t.Fatalf("%s/%s: corrupted page decoded successfully", name, encodingName(enc))
	}
}

// TestChoosePageEncoding pins the heuristic: long runs pick RLE, low
// cardinality picks dict, incompressible data stays plain, and tiny
// columns always stay plain.
func TestChoosePageEncoding(t *testing.T) {
	cols := pageColumns()
	want := map[string]uint8{
		"runs":     PageEncRLE,
		"lowCard":  PageEncDict,
		"highCard": PageEncPlain,
		"floats":   PageEncDict,
		"bools":    PageEncRLE, // rare trues -> long false runs
	}
	for name, enc := range want {
		if got := choosePageEncoding(cols[name]); got != enc {
			t.Errorf("%s: chose %s, want %s", name, encodingName(got), encodingName(enc))
		}
	}
	tiny := table.IntColumn([]int64{1, 1, 1, 1})
	if got := choosePageEncoding(tiny); got != PageEncPlain {
		t.Errorf("tiny column: chose %s, want plain", encodingName(got))
	}
}

// TestEncodedSegmentSmaller pins the size win the encodings exist for:
// clustered low-cardinality data encodes substantially smaller under v2
// than the plain v1 layout.
func TestEncodedSegmentSmaller(t *testing.T) {
	sch := schema.New(
		schema.Attribute{Name: "bucket", Kind: value.KindInt64},
		schema.Attribute{Name: "region", Kind: value.KindString},
		schema.Attribute{Name: "price", Kind: value.KindFloat64},
	)
	b := table.NewBuilder(sch, 20000)
	for i := 0; i < 20000; i++ {
		b.MustAppend(
			value.NewInt(int64(i/500)),
			value.NewString([]string{"emea", "apac", "amer"}[(i/200)%3]),
			value.NewFloat(float64(i%40)+0.5),
		)
	}
	tab := b.Build()
	v1 := len(encodeSegmentV1(tab))
	v2 := len(encodeSegment(tab))
	if v2*2 > v1 {
		t.Fatalf("v2 segment is %d bytes vs %d plain v1 — encodings bought less than 2x", v2, v1)
	}
}

// TestMixedVersionSegments is the compatibility acceptance test: a v1
// (plain-encoded) segment written by the old writer sits in the same
// dataset as v2 dict/RLE segments and every read path — full decode,
// projected read, store scan — returns identical rows.
func TestMixedVersionSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two flushed segments.
	for i := int64(0); i < 2; i++ {
		if err := st.Append("d", rowsTable(i*100, i*100+100)); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	refs, _, _ := st.Segments("d")
	if len(refs) != 2 {
		t.Fatalf("%d segments, want 2", len(refs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the first segment file in the v1 layout — exactly what a
	// directory written by the previous release holds.
	seg0, _, err := readTable(mustReadFile(t, dir+"/"+refs[0].File), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(dir+"/"+refs[0].File, encodeSegmentV1(seg0)); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen over mixed-version segments: %v", err)
	}
	defer st2.Close()
	got, ok, err := st2.Dataset("d")
	if err != nil || !ok {
		t.Fatalf("dataset over mixed versions: ok=%v err=%v", ok, err)
	}
	if !table.EqualRows(rowsTable(0, 200), got) {
		t.Fatal("mixed-version dataset rows differ")
	}

	// Projected reads work on both versions (v1 falls back to a full
	// read; v2 fetches only the selected pages) and agree byte-for-byte.
	for i, ref := range refs {
		data := mustReadFile(t, dir+"/"+ref.File)
		full, fullSeg, err := readTable(data, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		proj, projSeg, err := readTable(data, []int{0, 2}, nil)
		if err != nil {
			t.Fatalf("segment %d projected read: %v", i, err)
		}
		if !table.EqualRows(full.Project([]int{0, 2}), proj) {
			t.Fatalf("segment %d: projected read differs from full read", i)
		}
		if projSeg.FileBytes <= 0 || projSeg.FileBytes > fullSeg.FileBytes {
			t.Fatalf("segment %d: projected read consumed %d of %d file bytes", i, projSeg.FileBytes, fullSeg.FileBytes)
		}
	}

	// And the v2 projected read is genuinely cheaper than the whole file.
	data1 := mustReadFile(t, dir+"/"+refs[1].File)
	_, full1, _ := readTable(data1, nil, nil)
	_, proj1, _ := readTable(data1, []int{0}, nil)
	if proj1.FileBytes >= full1.FileBytes {
		t.Fatalf("v2 projected read consumed %d bytes, full read %d — no byte savings", proj1.FileBytes, full1.FileBytes)
	}
}

// TestReadFormsAgree holds the three Store read forms — ReadSegment,
// ReadSegmentColumns and ReadSegmentEncoded + Materialize — wire-identical
// to the rows written, over v1, v2 and v3 segments, every column or a
// subset, and each cache state a read can meet: a miss, a hit on the same
// key, an all-column entry serving a projection, an entry Flush inserted,
// and a read after DropSegmentCache. A miss costs exactly the bytes the
// read consumes (the whole file for every column or a v1 segment; header,
// meta block and the selected pages otherwise), a hit costs none.
func TestReadFormsAgree(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	written := []*table.Table{rowsTable(0, 100), rowsTable(100, 200), lowCardTable(130)}
	appendFlush := func(tbl *table.Table) {
		t.Helper()
		if err := st.Append("d", tbl); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range written {
		appendFlush(tbl)
	}
	refs, _, _ := st.Segments("d")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(dir+"/"+refs[0].File, encodeSegmentV1(written[0])); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	written = append(written, rowsTable(300, 400)) // cached by its Flush
	appendFlush(written[3])
	refs, _, _ = st.Segments("d")
	for i, ver := range []uint8{segVersionV1, segVersion, segVersionV3, segVersion} {
		if got := mustReadFile(t, dir+"/"+refs[i].File)[len(segMagic)]; got != ver {
			t.Fatalf("segment %d is v%d, want v%d", i, got, ver)
		}
	}

	// cost is what a miss reading positions of segment i consumes.
	cost := func(i int, positions []int) int64 {
		data := mustReadFile(t, dir+"/"+refs[i].File)
		if positions == nil || data[len(segMagic)] == segVersionV1 {
			return int64(len(data))
		}
		metaLen := headerMetaLen(data)
		_, _, pages, err := decodeSegmentMetaV2(data[segHeaderLen:], metaLen)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(segHeaderLen + metaLen + 4)
		for _, c := range positions {
			n += int64(pages[c].length)
		}
		return n
	}
	// check reads positions of segment i through every form; the first
	// read misses or hits as told, the rest hit.
	check := func(i int, positions []int, miss bool) {
		t.Helper()
		ref, want := refs[i], written[i]
		if positions != nil {
			want = want.Project(positions)
		}
		type form struct {
			name string
			read func() (*table.Table, error)
		}
		forms := []form{
			{"ReadSegmentColumns", func() (*table.Table, error) { return st.ReadSegmentColumns("d", ref, positions) }},
			{"ReadSegmentEncoded", func() (*table.Table, error) {
				es, err := st.ReadSegmentEncoded("d", ref, positions)
				if err != nil {
					return nil, err
				}
				cols := make([]*table.Column, len(es.Cols))
				for c, ec := range es.Cols {
					if cols[c], err = ec.Materialize(); err != nil {
						return nil, err
					}
				}
				return table.New(es.Schema, cols)
			}},
		}
		if positions == nil {
			forms = append([]form{{"ReadSegment", func() (*table.Table, error) { return st.ReadSegment("d", ref) }}}, forms...)
		}
		for k, f := range forms {
			before := st.BytesRead()
			got, err := f.read()
			if err != nil {
				t.Fatalf("segment %d %v %s: %v", i, positions, f.name, err)
			}
			if !bytes.Equal(wire.EncodeTable(want), wire.EncodeTable(got)) {
				t.Fatalf("segment %d %v %s: rows differ from those written", i, positions, f.name)
			}
			var wantBytes int64
			if k == 0 && miss {
				wantBytes = cost(i, positions)
			}
			if got := st.BytesRead() - before; got != wantBytes {
				t.Fatalf("segment %d %v %s: read %d bytes, want %d", i, positions, f.name, got, wantBytes)
			}
		}
	}

	const miss, hit = true, false
	check(3, nil, hit)         // the entry Flush inserted
	check(3, []int{2, 0}, hit) // ... serving a projection
	for i := range refs {
		st.DropSegmentCache()
		check(i, []int{1}, miss)
		check(i, []int{1}, hit)
		check(i, []int{2, 0}, miss)
		check(i, nil, miss)
		check(i, nil, hit)
		check(i, []int{0}, hit) // the all-column entry serving a projection
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSegmentHostilePageDirectory pins the decoder against a
// CRC-consistent v2 meta block whose page directory carries an
// overflowing offset/length pair: the decode must fail with an error,
// never panic — the bounds check cannot be allowed to wrap int64.
func TestSegmentHostilePageDirectory(t *testing.T) {
	tab := rowsTable(0, 10)
	for _, hostile := range []struct {
		name string
		off  uint64
		len  uint32
	}{
		{"overflow", 0x7FFFFFFFFFFFFFFF, 16},
		{"pastEOF", 1 << 20, 64},
		{"negative", 0xFFFFFFFFFFFFFFFF, 8},
	} {
		// Rebuild a v2 segment by hand with one poisoned directory entry,
		// re-CRCing the meta so only the bounds check can reject it.
		var pre wire.Encoder
		wire.PutSchema(&pre, tab.Schema())
		pre.U32(uint32(tab.NumCols()))
		var foot wire.Encoder
		foot.U64(SchemaHash(tab.Schema()))
		foot.I64(int64(tab.NumRows()))
		putZones(&foot, ComputeZones(tab))
		var meta wire.Encoder
		meta.Raw(pre.Bytes())
		for c := 0; c < tab.NumCols(); c++ {
			meta.U64(hostile.off)
			meta.U32(hostile.len)
		}
		meta.Raw(foot.Bytes())
		var e wire.Encoder
		e.Raw(segMagic)
		e.U8(segVersion)
		e.U32(uint32(meta.Len()))
		e.Raw(meta.Bytes())
		e.U32(crc32.ChecksumIEEE(meta.Bytes()))
		if _, _, err := readTable(e.Bytes(), nil, nil); err == nil {
			t.Fatalf("%s: hostile page directory decoded successfully", hostile.name)
		}
		// A projected read from a file must reject it too (and must not
		// allocate the bogus length).
		path := t.TempDir() + "/seg-hostile.nxs"
		if err := atomicWriteFile(path, e.Bytes()); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = readSegmentEncoded(f, []int{0}, nil, newWorkGroup())
		f.Close()
		if err == nil {
			t.Fatalf("%s: hostile page directory read successfully from file", hostile.name)
		}
	}
}

// TestRLEPageRowCap pins the anti-amplification cap: an RLE page whose
// header claims more rows than maxRLERows must be rejected before any
// materialization — a ~60-byte hostile file must not demand gigabytes.
func TestRLEPageRowCap(t *testing.T) {
	// Handcraft the page: one run claiming 2^32-1 rows of int64 zero.
	var payload wire.Encoder
	payload.U32(1)          // one run
	payload.U32(0xFFFFFFFF) // covering ~4.3e9 rows
	payload.Bool(true)
	payload.I64(0)
	var e wire.Encoder
	e.U8(pageVersion)
	e.U8(PageEncRLE)
	e.U32(0xFFFFFFFF) // header row count
	e.U32(uint32(payload.Len()))
	e.Raw(payload.Bytes())
	e.U32(crc32.ChecksumIEEE(e.Bytes()))
	if _, err := pageColumn(e.Bytes(), value.KindInt64, pageCtx{}); err == nil {
		t.Fatal("hostile RLE row count decoded successfully")
	}
	// The writer never chooses RLE above the cap either (synthetic check
	// against the chooser's guard, not a real 2^27-row column).
	if maxRLERows >= 1<<31 {
		t.Fatal("maxRLERows implausibly large")
	}
}

// TestSegmentV1Roundtrip keeps the legacy encoder/decoder pair honest —
// it is what the mixed-version guarantee rests on.
func TestSegmentV1Roundtrip(t *testing.T) {
	for _, tab := range []*table.Table{rowsTable(0, 100), rowsTable(0, 0), nullableTable()} {
		data := encodeSegmentV1(tab)
		got, _, err := readTable(data, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !table.EqualRows(tab, got) {
			t.Fatal("v1 segment rows differ after roundtrip")
		}
		for _, off := range []int{len(segMagic) + 6, len(data) / 2, len(data) - 3} {
			if off >= len(data) {
				continue
			}
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x40
			if _, _, err := readTable(bad, nil, nil); err == nil {
				t.Fatalf("corrupt v1 byte at %d decoded successfully", off)
			}
		}
	}
}
