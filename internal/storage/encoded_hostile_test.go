package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"nexus/internal/table"
	"nexus/internal/value"
)

// Hostile wire inputs for the encoded read path. Every case must come
// back as an error — never a panic, never an out-of-bounds read, never
// a silently-wrong column. Tampered pages get their CRC re-stamped so
// the corruption reaches the structural validators, not the checksum.

// restampPage recomputes a page's trailing CRC after a tamper.
func restampPage(page []byte) {
	crcOff := len(page) - 4
	binary.BigEndian.PutUint32(page[crcOff:], crc32.ChecksumIEEE(page[:crcOff]))
}

// tamperedPage returns a copy of page with 4 bytes at off overwritten
// and the CRC fixed up.
func tamperedPage(page []byte, off int, v uint32) []byte {
	p := append([]byte(nil), page...)
	binary.BigEndian.PutUint32(p[off:], v)
	restampPage(p)
	return p
}

// mustFailPage asserts the page parser rejects the page.
func mustFailPage(t *testing.T, page []byte, kind value.Kind, ctx pageCtx, what string) {
	t.Helper()
	if _, err := parsePageEncoded(page, kind, ctx); err == nil {
		t.Fatalf("%s: parsePageEncoded accepted hostile page", what)
	}
}

func sharedTestPage(t *testing.T) (page []byte, dict *SharedDict) {
	t.Helper()
	dict = &SharedDict{Col: "tier", Epoch: dictEpochFirst}
	vals := []string{"gold", "silver", "bronze"}
	for _, v := range vals {
		if _, ok := dict.Add(v); !ok {
			t.Fatal("dict full")
		}
	}
	b := table.NewBuilder(rowsTable(0, 1).Schema().Project([]int{1}), 100)
	for i := 0; i < 100; i++ {
		if i%7 == 3 {
			b.MustAppend(value.Null)
		} else {
			b.MustAppend(value.NewString(vals[i%len(vals)]))
		}
	}
	col := b.Build().Col(0)
	return encodePage(col, PageEncDictShared, dict), dict
}

func TestHostileSharedDictPage(t *testing.T) {
	page, dict := sharedTestPage(t)
	ctx := pageCtx{col: "tier", dict: dict}

	// Sanity: the untampered page parses and materializes.
	if _, err := pageColumn(page, value.KindString, ctx); err != nil {
		t.Fatalf("control decode: %v", err)
	}
	ec, err := parsePageEncoded(page, value.KindString, ctx)
	if err != nil {
		t.Fatalf("control parse: %v", err)
	}
	if ec.Encoding() != PageEncDictShared {
		t.Fatalf("control page encoding = %d", ec.Encoding())
	}

	// Out-of-range code on a valid (non-NULL) row. Row 99 (99%7 != 3) is
	// valid; its code is the last u32 before the CRC.
	hostile := tamperedPage(page, len(page)-8, 0xfffffff0)
	mustFailPage(t, hostile, value.KindString, ctx, "out-of-range code")

	// usedLen claiming a longer dictionary prefix than the catalog holds.
	short := &SharedDict{Col: "tier", Epoch: dict.Epoch, Vals: dict.Vals[:1]}
	mustFailPage(t, page, value.KindString, pageCtx{col: "tier", dict: short}, "usedLen beyond dictionary")

	// Epoch mismatch must surface as the dedicated stale-dictionary
	// error, the signal readSnapshot retries on and stale plans refuse.
	bumped := &SharedDict{Col: "tier", Epoch: dict.Epoch + 1, Vals: dict.Vals}
	if _, err := parsePageEncoded(page, value.KindString, pageCtx{col: "tier", dict: bumped}); !isStaleDict(err) {
		t.Fatalf("epoch mismatch: got %v, want stale-dict error", err)
	}

	// No dictionary at all: the page is undecodable, not a panic.
	mustFailPage(t, page, value.KindString, pageCtx{col: "tier"}, "missing dictionary")

	// Structural verification needs no dictionary (replication verifies
	// fetched segments before the manifest carrying the dicts applies)
	// but must still bounds-check the codes.
	structural := pageCtx{col: "tier", structural: true}
	if _, err := parsePageEncoded(page, value.KindString, structural); err != nil {
		t.Fatalf("structural verify of good page: %v", err)
	}
	if _, err := parsePageEncoded(hostile, value.KindString, structural); err == nil {
		t.Fatal("structural verify accepted out-of-range code")
	}
}

func TestHostileRLEPage(t *testing.T) {
	b := table.NewBuilder(rowsTable(0, 1).Schema().Project([]int{0}), 96)
	for i := 0; i < 96; i++ {
		b.MustAppend(value.NewInt(int64(i / 16)))
	}
	col := b.Build().Col(0)
	page := encodePage(col, PageEncRLE, nil)
	ctx := pageCtx{col: "k"}
	if _, err := pageColumn(page, value.KindInt64, ctx); err != nil {
		t.Fatalf("control decode: %v", err)
	}

	// Payload starts at offset 10: u32 nRuns | runs × {u32 len, ...}.
	const nRunsOff = pageHeaderLen
	const firstLenOff = pageHeaderLen + 4

	// First run claims more rows than the page holds: a naive expander
	// would allocate and fill past the column.
	mustFailPage(t, tamperedPage(page, firstLenOff, 0x7fffff00), value.KindInt64, ctx, "overlong run")
	// Zero-length run: run loops that assume progress would spin.
	mustFailPage(t, tamperedPage(page, firstLenOff, 0), value.KindInt64, ctx, "zero-length run")
	// Run count far past the payload.
	mustFailPage(t, tamperedPage(page, nRunsOff, 0x00ffffff), value.KindInt64, ctx, "run count exceeds page")
	// Truncated mid-run, CRC re-stamped so framing is the failing check.
	trunc := append([]byte(nil), page[:len(page)-9]...)
	trunc = append(trunc, 0, 0, 0, 0)
	restampPage(trunc)
	mustFailPage(t, trunc, value.KindInt64, ctx, "truncated runs")
}

func TestHostilePrivateDictPage(t *testing.T) {
	b := table.NewBuilder(rowsTable(0, 1).Schema().Project([]int{1}), 80)
	for i := 0; i < 80; i++ {
		b.MustAppend(value.NewString([]string{"x", "y", "z"}[i%3]))
	}
	col := b.Build().Col(0)
	page := encodePage(col, PageEncDict, nil)
	ctx := pageCtx{col: "s"}
	if _, err := pageColumn(page, value.KindString, ctx); err != nil {
		t.Fatalf("control decode: %v", err)
	}
	// A private-dict page carries its entries inline; the codes are the
	// trailing u32s. Point the last row past the 3-entry dictionary.
	mustFailPage(t, tamperedPage(page, len(page)-8, 12345), value.KindString, ctx, "private dict code out of range")
}

// TestHostileFixedWidthPayload covers the lengths a lazy view trusts
// for as long as it lives: a plain int64/float64 payload must be exactly
// rows×8 bytes and a dict code array exactly rows×4, or every later
// in-place read would run off the page.
func TestHostileFixedWidthPayload(t *testing.T) {
	const rows = 80
	ints, floats, codes := make([]int64, rows), make([]float64, rows), make([]int64, rows)
	for i := range ints {
		ints[i], floats[i], codes[i] = int64(i*i), float64(i)/4, int64(i%5)
	}
	for _, c := range []struct {
		name string
		col  *table.Column
		enc  uint8
	}{
		{"plain int64", table.IntColumn(ints), PageEncPlain},
		{"plain float64", table.FloatColumn(floats), PageEncPlain},
		{"dict int64", table.IntColumn(codes), PageEncDict},
	} {
		kind, ctx := c.col.Kind(), pageCtx{col: "c"}
		page := encodePage(c.col, c.enc, nil)
		ec, err := parsePageEncoded(page, kind, ctx)
		if err != nil {
			t.Fatalf("%s: control parse: %v", c.name, err)
		}
		if ec.raw == nil {
			t.Fatalf("%s: control page did not stay lazy", c.name)
		}
		// The header's row count is the u32 at offset 2: one row more or
		// fewer than the payload holds.
		for _, claim := range []uint32{rows + 1, rows - 1, 0, 1 << 31} {
			mustFailPage(t, tamperedPage(page, 2, claim), kind, ctx, fmt.Sprintf("%s claiming %d rows", c.name, claim))
		}
		// A payload grown or shrunk by a few bytes, with the header's
		// payloadLen (u32 at offset 6) and the CRC kept consistent.
		body, width := page[:len(page)-4], len(page)-4-pageHeaderLen
		for _, delta := range []int{-8, -4, -1, 1, 4, 8} {
			p := append([]byte(nil), body...)
			if delta < 0 {
				p = p[:len(p)+delta]
			} else {
				p = append(p, make([]byte, delta)...)
			}
			binary.BigEndian.PutUint32(p[6:], uint32(width+delta))
			p = append(p, 0, 0, 0, 0)
			restampPage(p)
			mustFailPage(t, p, kind, ctx, fmt.Sprintf("%s payload %+d bytes", c.name, delta))
		}
	}
}

// TestHostileNullPlaceholderCode: a NULL row's code is a placeholder no
// reader may dereference — even one far outside the dictionary must
// leave filtering and (selective) materialization correct, on the lazy
// code array exactly as on the decoded one.
func TestHostileNullPlaceholderCode(t *testing.T) {
	const rows = 80
	b := table.NewBuilder(rowsTable(0, 1).Schema().Project([]int{1}), rows)
	for i := 0; i < rows; i++ {
		if i == rows-1 || i%9 == 4 {
			b.MustAppend(value.Null)
		} else {
			b.MustAppend(value.NewString([]string{"x", "y", "z"}[i%3]))
		}
	}
	col := b.Build().Col(0)
	page := encodePage(col, PageEncDict, nil)
	page = tamperedPage(page, len(page)-8, 0xfffffff0) // the last row, a NULL
	ec, err := parsePageEncoded(page, value.KindString, pageCtx{col: "s"})
	if err != nil {
		t.Fatalf("placeholder code on a NULL row rejected: %v", err)
	}
	for _, op := range diffOps {
		for _, cv := range []value.Value{value.NewString("y"), value.Null} {
			acc := make([]bool, rows)
			for i := range acc {
				acc[i] = true
			}
			ec.AndMatches(op, cv, acc)
			for r := range acc {
				if want := opHolds(op, col.Value(r), cv); acc[r] != want {
					t.Fatalf("row %d (%v %v %v) = %v, want %v", r, col.Value(r), op, cv, acc[r], want)
				}
			}
		}
	}
	full, err := ec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	colEq(t, col, full, "materialize")
	sel := []int{0, 4, 40, rows - 1}
	got, err := ec.MaterializeRows(sel)
	if err != nil {
		t.Fatal(err)
	}
	colEq(t, col.Gather(sel), got, "materialize rows")
}

// TestHostileDirectoryShortFile: the projected reader no longer stats
// the file, so a directory entry reaching past the end of the file must
// fail on the short read — for a small page, for one longer than the
// reader allocates unprobed, and for a run of adjacent pages whose last
// member is cut off.
func TestHostileDirectoryShortFile(t *testing.T) {
	data := encodeSegment(lowCardTable(130))
	all := []int{0, 1, 2}
	if _, err := readSegmentEncoded(bytes.NewReader(data), all, nil, newWorkGroup()); err != nil {
		t.Fatalf("control: %v", err)
	}
	for _, cut := range []int{1, 5, 64, 400} {
		if _, err := readSegmentEncoded(bytes.NewReader(data[:len(data)-cut]), all, nil, newWorkGroup()); err == nil {
			t.Fatalf("file cut by %d bytes read successfully", cut)
		}
	}
	// Rewrite the last column's directory entry to claim a page of
	// maxBlindRead+1 bytes, meta CRC re-stamped.
	metaLen := headerMetaLen(data)
	_, _, refs, err := decodeSegmentMetaV2(data[segHeaderLen:], metaLen)
	if err != nil {
		t.Fatal(err)
	}
	hostile := append([]byte(nil), data...)
	meta := hostile[segHeaderLen : segHeaderLen+metaLen]
	last := refs[len(refs)-1]
	want := make([]byte, pageDirEntryLen)
	binary.BigEndian.PutUint64(want, uint64(last.off))
	binary.BigEndian.PutUint32(want[8:], uint32(last.length))
	at := bytes.LastIndex(meta, want)
	if at < 0 {
		t.Fatal("directory entry not found in meta block")
	}
	binary.BigEndian.PutUint32(meta[at+8:], maxBlindRead+1)
	binary.BigEndian.PutUint32(hostile[segHeaderLen+metaLen:], crc32.ChecksumIEEE(meta))
	if _, err := readSegmentEncoded(bytes.NewReader(hostile), all, nil, newWorkGroup()); err == nil {
		t.Fatal("directory entry past the end of the file read successfully")
	}
}

// TestHostileManifestTruncation feeds DecodeManifest every prefix of a
// dictionary-carrying manifest: all must error (CRC or framing), none
// may panic — a half-written MANIFEST file is exactly what a crash
// leaves behind.
func TestHostileManifestTruncation(t *testing.T) {
	m := &Manifest{Gen: 7, WalGen: 7, NextSeg: 3}
	dm := DatasetManifest{
		Name:       "d",
		Schema:     rowsTable(0, 1).Schema(),
		OrderEpoch: 2,
		Segments:   []SegmentRef{{File: "seg-000001.nxs", Meta: SegmentMeta{SchemaHash: SchemaHash(rowsTable(0, 1).Schema()), Rows: 10}}},
		Dicts: []*SharedDict{
			{Col: "s", Epoch: 3, Vals: []string{"gold", "silver", "bronze", "iron"}},
		},
	}
	m.Datasets = append(m.Datasets, dm)
	enc := EncodeManifest(m)

	back, err := DecodeManifest(enc)
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	got := back.Datasets[0].Dicts[0]
	if got.Epoch != 3 || len(got.Vals) != 4 || got.Vals[2] != "bronze" {
		t.Fatalf("dict did not round-trip: %+v", got)
	}

	for i := 0; i < len(enc); i++ {
		if _, err := DecodeManifest(enc[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}

	// A dictionary count pointing past the body must be caught by the
	// count guard even when the CRC is re-stamped to match. The nVals
	// field is the u32(4) right before "gold"'s length prefix.
	marker := "\x00\x00\x00\x04\x00\x00\x00\x04gold"
	tampered := append([]byte(nil), enc...)
	i := strings.Index(string(tampered), marker)
	if i < 0 {
		t.Fatal("dictionary length marker not found in encoding")
	}
	binary.BigEndian.PutUint32(tampered[i:], 0x7fffffff)
	body := tampered[len(manMagic)+4 : len(tampered)-4]
	binary.BigEndian.PutUint32(tampered[len(tampered)-4:], crc32.ChecksumIEEE(body))
	if _, err := DecodeManifest(tampered); err == nil {
		t.Fatal("hostile dictionary length decoded without error")
	}
}

// TestHostileSegmentSharedTruncation truncates a v3 segment at every
// length: the full read and VerifySegment must error, never panic.
func TestHostileSegmentSharedTruncation(t *testing.T) {
	dicts := DictSet{}
	tbl := lowCardTable(130)
	data := EncodeSegmentDict(tbl, dicts, true)
	if data[len(segMagic)] != segVersionV3 {
		t.Fatalf("seed segment is v%d, want v3", data[len(segMagic)])
	}
	if _, _, err := readTable(data, nil, dicts); err != nil {
		t.Fatalf("control: %v", err)
	}
	if err := VerifySegment(data); err != nil {
		t.Fatalf("control verify: %v", err)
	}
	step := 1
	if len(data) > 4096 {
		step = 7
	}
	for i := 0; i < len(data); i += step {
		if _, _, err := readTable(data[:i], nil, dicts); err == nil {
			t.Fatalf("truncated segment (%d/%d bytes) decoded", i, len(data))
		}
		if err := VerifySegment(data[:i]); err == nil {
			t.Fatalf("truncated segment (%d/%d bytes) verified", i, len(data))
		}
	}
}

// lowCardTable builds rows of rowsTable's schema whose string column is
// low-cardinality, so dictionary encodings win.
func lowCardTable(rows int) *table.Table {
	base := rowsTable(0, 1)
	b := table.NewBuilder(base.Schema(), rows)
	for i := 0; i < rows; i++ {
		b.MustAppend(
			value.NewInt(int64(i/9)),
			value.NewString([]string{"gold", "silver", "bronze", "iron"}[i%4]),
			value.NewFloat(float64(i%5)),
		)
	}
	return b.Build()
}
