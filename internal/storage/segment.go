// Package storage is the durability substrate of the nexus framework: a
// columnar segment file format with per-column page encodings
// (plain/dictionary/run-length), a group-commit write-ahead log, a
// generation-numbered on-disk catalog, a background compactor that
// merges small segments under a clustering sort, and durable stream
// checkpoints. Together they turn the in-memory providers into
// crash-recoverable servers — a nexus-server killed mid-write reopens
// its data directory and resumes with zero committed-row loss, and a
// hosted stream subscription picks up from its last checkpoint. Cold
// scans read only the column pages a plan needs (segment-level column
// projection) and skip whole segments whose zone maps cannot satisfy
// the filter.
//
// The byte-level layout of every file in a data directory is specified
// in docs/STORAGE_FORMAT.md; the constants and structs here are its
// source of truth.
//
// Layout of a data directory:
//
//	CURRENT              name of the live manifest (atomically swapped)
//	MANIFEST-<gen>       catalog: datasets -> segment manifests
//	wal-<gen>.log        write-ahead log since the manifest's flush
//	seg-<n>.nxs          immutable columnar segments
//	ckpt/<key>.ckpt      durable stream checkpoints
package storage

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"nexus/internal/errfs"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// segMagic opens every segment file; the version byte after it is
// bumped on format changes (readers reject unknown versions rather than
// misparse).
var segMagic = []byte("NXSEG\x01\r\n")

const (
	// segVersionV1 is the original layout: one wire.PutTable body plus a
	// footer, CRC-armored as a whole. Still decoded; no longer written.
	segVersionV1 = 1
	// segVersion is the current layout: a CRC-armored meta block (schema,
	// column-page directory, footer) up front, followed by one
	// independently CRC-armored page per column — so a projected read
	// fetches only the pages it needs and still verifies every byte.
	segVersion = 2
	// segVersionV3 is byte-for-byte the v2 layout, but at least one page
	// uses PageEncDictShared — its codes only resolve through the
	// dataset's shared dictionary in the manifest, so the version byte is
	// bumped to keep pre-v3 readers from half-decoding the file. The
	// writer emits 3 only when a shared page is actually present.
	segVersionV3 = 3
)

// segHeaderLen is the fixed file prefix before the meta block: magic,
// version byte, u32 meta length.
const segHeaderLen = 8 + 1 + 4

// pageDirEntryLen is one column's directory entry inside the meta
// block: u64 absolute page offset + u32 page length.
const pageDirEntryLen = 8 + 4

// ZoneMap is one column's value summary: the minimum and maximum under
// the value total order (NULL sorts first, so a column containing NULLs
// has a NULL Min) and the NULL count. Scans prune whole segments by
// testing filter predicates against these bounds.
type ZoneMap struct {
	Min, Max value.Value
	Nulls    int64
}

// MayMatch reports whether a row satisfying `col op val` can exist in a
// column summarized by z. It is conservative: unknown operators match.
// The semantics mirror value.Compare's total order, which the engines
// use for comparisons — NULL sorts before every other value.
func (z ZoneMap) MayMatch(op value.BinOp, val value.Value) bool {
	switch op {
	case value.OpEq:
		return value.Compare(z.Min, val) <= 0 && value.Compare(val, z.Max) <= 0
	case value.OpNe:
		// Only a constant column equal to val everywhere cannot match.
		return !(value.Compare(z.Min, val) == 0 && value.Compare(z.Max, val) == 0)
	case value.OpLt:
		return value.Compare(z.Min, val) < 0
	case value.OpLe:
		return value.Compare(z.Min, val) <= 0
	case value.OpGt:
		return value.Compare(z.Max, val) > 0
	case value.OpGe:
		return value.Compare(z.Max, val) >= 0
	}
	return true
}

// SegmentMeta is the footer of a segment file: everything a catalog (or
// a pruning scan) needs without touching the column pages.
type SegmentMeta struct {
	SchemaHash uint64
	Rows       int64
	Zones      []ZoneMap // one per column
}

// SchemaHash digests a schema (names, kinds, dimension tags, in order);
// segments and manifests carry it so a reader detects schema drift
// before misreading pages.
func SchemaHash(s schema.Schema) uint64 {
	h := uint64(14695981039346656037)
	step := func(b byte) { h ^= uint64(b); h *= 1099511628211 }
	for i := 0; i < s.Len(); i++ {
		a := s.At(i)
		for j := 0; j < len(a.Name); j++ {
			step(a.Name[j])
		}
		step(0)
		step(byte(a.Kind))
		if a.Dim {
			step(1)
		} else {
			step(0)
		}
	}
	return h
}

// ComputeZones builds the per-column zone maps of a table. Each column
// is one typed pass over its payload slice: the bounds are exactly those
// of folding value.Compare over the boxed rows — a NULL anywhere makes
// Min NULL, NaN sorts below every other float, and among equal values
// (-0 and +0, two NaNs) the first row's keeps the bound.
func ComputeZones(t *table.Table) []ZoneMap {
	zones := make([]ZoneMap, t.NumCols())
	for c := range zones {
		col := t.Col(c)
		n, valid := col.Len(), col.Validity()
		var lo, hi int
		switch col.Kind() {
		case value.KindInt64:
			lo, hi = orderedBounds(col.Ints()[:n], valid)
		case value.KindFloat64:
			lo, hi = floatBounds(col.Floats()[:n], valid)
		case value.KindString:
			lo, hi = orderedBounds(col.Strs()[:n], valid)
		case value.KindBool:
			lo, hi = boolBounds(col.Bools()[:n], valid)
		default:
			lo, hi = -1, -1
		}
		z := ZoneMap{Min: value.Null, Max: value.Null}
		switch {
		case hi < 0: // no valid row
			z.Nulls = int64(n)
		case valid != nil:
			for _, ok := range valid[:n] {
				z.Nulls += int64(b2i(!ok))
			}
		}
		if hi >= 0 {
			z.Max = col.Value(hi)
			if z.Nulls == 0 {
				z.Min = col.Value(lo)
			}
		}
		zones[c] = z
	}
	return zones
}

// orderedBounds returns the first row holding the least and the first
// holding the greatest valid value (-1, -1 when no row is valid).
func orderedBounds[T int64 | string](vals []T, valid []bool) (lo, hi int) {
	lo, hi = -1, -1
	var mn, mx T
	for r, v := range vals {
		switch {
		case valid != nil && !valid[r]:
		case lo < 0:
			lo, hi, mn, mx = r, r, v, v
		case v < mn:
			lo, mn = r, v
		case v > mx:
			hi, mx = r, v
		}
	}
	return lo, hi
}

// floatBounds is orderedBounds under value.Compare's float order: NaN
// below every other value and equal to itself, -0 == +0.
func floatBounds(vals []float64, valid []bool) (lo, hi int) {
	lo, hi = -1, -1
	var mn, mx float64
	for r, v := range vals {
		switch {
		case valid != nil && !valid[r]:
		case lo < 0:
			lo, hi, mn, mx = r, r, v, v
		case v != v: // NaN: only the first NaN lowers the minimum
			if mn == mn {
				lo, mn = r, v
			}
		case v < mn:
			lo, mn = r, v
		case v > mx || mx != mx:
			hi, mx = r, v
		}
	}
	return lo, hi
}

// boolBounds is orderedBounds for bools, false < true.
func boolBounds(vals []bool, valid []bool) (lo, hi int) {
	lo, hi = -1, -1
	for r, v := range vals {
		switch {
		case valid != nil && !valid[r]:
		case lo < 0:
			lo, hi = r, r
		case !v && vals[lo]:
			lo = r
		case v && !vals[hi]:
			hi = r
		}
	}
	return lo, hi
}

// putZones encodes zone maps.
func putZones(e *wire.Encoder, zones []ZoneMap) {
	e.U32(uint32(len(zones)))
	for _, z := range zones {
		wire.PutValue(e, z.Min)
		wire.PutValue(e, z.Max)
		e.I64(z.Nulls)
	}
}

// getZones decodes zone maps.
func getZones(d *wire.Decoder) []ZoneMap {
	n := int(d.U32())
	if d.Err() != nil || n > d.Remaining() {
		return nil
	}
	zones := make([]ZoneMap, 0, n)
	for i := 0; i < n; i++ {
		zones = append(zones, ZoneMap{
			Min:   wire.GetValue(d),
			Max:   wire.GetValue(d),
			Nulls: d.I64(),
		})
	}
	return zones
}

// pageRef locates one column page inside a segment file.
type pageRef struct {
	off    int64 // absolute file offset
	length int
}

// EncodeSegmentDict serializes a table as one segment:
//
//	magic | u8 version | u32 metaLen | meta | u32 crc32(meta) | pages
//	meta  := schema | u32 ncols | ncols×{u64 pageOff, u32 pageLen} | footer
//	footer:= u64 schema hash | i64 row count | zone maps
//	page  := u8 pageVersion | u8 encoding | u32 rows | u32 payloadLen |
//	         payload | u32 crc32(header|payload)
//
// The meta block and each page carry their own CRC, so a projected read
// (header + meta + a subset of pages) verifies every byte it touches
// without reading the rest of the file. Page encodings are chosen per
// column by choosePageEncoding. With a shared-dictionary set, string
// columns whose private-dict encoding would win are written as
// PageEncDictShared pages when the dataset's dictionary covers their
// values — or, with grow set, can be extended to cover them (the caller
// must commit the grown dictionaries in the same manifest generation as
// the segment, which Flush does under the store lock). The version byte
// is 3 iff at least one shared page was emitted, so dictionary-free
// tables keep producing plain v2 files.
func EncodeSegmentDict(t *table.Table, dicts DictSet, grow bool) []byte {
	return encodeSegmentZones(t, ComputeZones(t), dicts, grow)
}

// encodeSegmentZones is EncodeSegmentDict with the table's zone maps already
// computed.
func encodeSegmentZones(t *table.Table, zones []ZoneMap, dicts DictSet, grow bool) []byte {
	ncols := t.NumCols()
	pages := make([][]byte, ncols)
	shared := false
	for c := 0; c < ncols; c++ {
		col := t.Col(c)
		enc := choosePageEncoding(col)
		var dict *SharedDict
		if enc == PageEncDict && col.Kind() == value.KindString {
			if d := sharedDictFor(dicts, t.Schema().At(c).Name, col, grow); d != nil {
				enc, dict, shared = PageEncDictShared, d, true
			}
		}
		pages[c] = encodePage(col, enc, dict)
	}

	var pre wire.Encoder
	wire.PutSchema(&pre, t.Schema())
	pre.U32(uint32(ncols))
	var foot wire.Encoder
	foot.U64(SchemaHash(t.Schema()))
	foot.I64(int64(t.NumRows()))
	putZones(&foot, zones)

	metaLen := pre.Len() + ncols*pageDirEntryLen + foot.Len()
	pagesStart := int64(segHeaderLen + metaLen + 4)

	var meta wire.Encoder
	meta.Raw(pre.Bytes())
	rel := int64(0)
	for _, p := range pages {
		meta.U64(uint64(pagesStart + rel))
		meta.U32(uint32(len(p)))
		rel += int64(len(p))
	}
	meta.Raw(foot.Bytes())

	ver := uint8(segVersion)
	if shared {
		ver = segVersionV3
	}
	var e wire.Encoder
	e.Raw(segMagic)
	e.U8(ver)
	e.U32(uint32(meta.Len()))
	e.Raw(meta.Bytes())
	e.U32(crc32.ChecksumIEEE(meta.Bytes()))
	for _, p := range pages {
		e.Raw(p)
	}
	return e.Bytes()
}

// sharedDictFor resolves (and with grow, extends) the shared dictionary
// one string column's page would encode against, or nil when shared
// encoding is not possible — no dictionary and no license to create one,
// values the dictionary does not cover, or a dictionary at capacity.
func sharedDictFor(dicts DictSet, name string, col *table.Column, grow bool) *SharedDict {
	if dicts == nil {
		return nil
	}
	d := dicts[name]
	if !grow {
		if d == nil || !d.Covers(col.Strs(), col.Validity()) {
			return nil
		}
		return d
	}
	if d == nil {
		d = &SharedDict{Col: name, Epoch: dictEpochFirst}
		dicts[name] = d
	}
	vals := col.Strs()
	for r := 0; r < col.Len(); r++ {
		if col.IsNull(r) {
			continue
		}
		if _, ok := d.Add(vals[r]); !ok {
			return nil // dictionary full — fall back to a private encoding
		}
	}
	return d
}

// VerifySegment structurally verifies a segment encoding without needing
// shared dictionaries: every CRC, every framing rule, and every code
// bound is checked, but PageEncDictShared pages are not resolved (and
// their epoch is not compared — the dictionary may not have arrived yet).
// Replication uses this to vet a fetched segment file before the manifest
// generation carrying its dictionary has been applied.
func VerifySegment(b []byte) error {
	ver, err := segmentVersion(b)
	if err != nil {
		return err
	}
	if ver == segVersionV1 {
		_, _, err := decodeSegmentV1(b)
		return err
	}
	if ver != segVersion && ver != segVersionV3 {
		return fmt.Errorf("storage: unsupported segment version %d", ver)
	}
	sch, meta, refs, err := decodeSegmentMetaV2(b[segHeaderLen:], headerMetaLen(b))
	if err != nil {
		return err
	}
	for c, ref := range refs {
		if ref.off < 0 || ref.length < 0 || ref.off > int64(len(b)) || int64(ref.length) > int64(len(b))-ref.off {
			return fmt.Errorf("storage: column %d page [%d,+%d) exceeds file of %d bytes", c, ref.off, ref.length, len(b))
		}
		ctx := pageCtx{col: sch.At(c).Name, structural: true}
		ec, err := parsePageEncoded(b[ref.off:ref.off+int64(ref.length)], sch.At(c).Kind, ctx)
		if err != nil {
			return fmt.Errorf("storage: column %d (%s): %w", c, sch.At(c).Name, err)
		}
		if int64(ec.Rows()) != meta.Rows {
			return fmt.Errorf("storage: column %d holds %d rows, footer says %d", c, ec.Rows(), meta.Rows)
		}
	}
	return nil
}

// segmentVersion checks the magic and returns the version byte.
func segmentVersion(b []byte) (uint8, error) {
	if len(b) < segHeaderLen {
		return 0, fmt.Errorf("storage: segment too short (%d bytes)", len(b))
	}
	for i, m := range segMagic {
		if b[i] != m {
			return 0, fmt.Errorf("storage: bad segment magic")
		}
	}
	return b[len(segMagic)], nil
}

// decodeSegmentV1 parses the legacy whole-body layout.
func decodeSegmentV1(b []byte) (*table.Table, SegmentMeta, error) {
	d := wire.NewDecoder(b[len(segMagic)+1:])
	bodyLen := int(d.U32())
	if bodyLen < 0 || bodyLen > d.Remaining()-4 {
		return nil, SegmentMeta{}, fmt.Errorf("storage: segment body length %d exceeds file", bodyLen)
	}
	body := d.RawN(bodyLen)
	crc := d.U32()
	if err := d.Err(); err != nil {
		return nil, SegmentMeta{}, err
	}
	if got := crc32.ChecksumIEEE(body); got != crc {
		return nil, SegmentMeta{}, fmt.Errorf("storage: segment crc mismatch (got %08x, want %08x)", got, crc)
	}

	bd := wire.NewDecoder(body)
	t := wire.GetTable(bd)
	if err := bd.Err(); err != nil {
		return nil, SegmentMeta{}, fmt.Errorf("storage: segment pages: %w", err)
	}
	meta := SegmentMeta{
		SchemaHash: bd.U64(),
		Rows:       bd.I64(),
	}
	meta.Zones = getZones(bd)
	if err := bd.Err(); err != nil {
		return nil, SegmentMeta{}, fmt.Errorf("storage: segment footer: %w", err)
	}
	if meta.Zones == nil && t.NumCols() > 0 {
		return nil, SegmentMeta{}, fmt.Errorf("storage: segment footer has no zone maps")
	}
	if err := checkSegmentMeta(meta, t); err != nil {
		return nil, SegmentMeta{}, err
	}
	return t, meta, nil
}

// headerMetaLen reads the u32 meta length from a v2 header (the caller
// already validated len(b) >= segHeaderLen).
func headerMetaLen(b []byte) int {
	o := len(segMagic) + 1
	return int(uint32(b[o])<<24 | uint32(b[o+1])<<16 | uint32(b[o+2])<<8 | uint32(b[o+3]))
}

// decodeSegmentMetaV2 parses and CRC-verifies a v2 meta block. The
// input starts right after the fixed header (so at the meta bytes) and
// must contain at least metaLen+4 bytes.
func decodeSegmentMetaV2(b []byte, metaLen int) (schema.Schema, SegmentMeta, []pageRef, error) {
	fail := func(err error) (schema.Schema, SegmentMeta, []pageRef, error) {
		return schema.Schema{}, SegmentMeta{}, nil, err
	}
	if metaLen < 0 || metaLen > len(b)-4 {
		return fail(fmt.Errorf("storage: segment meta length %d exceeds file", metaLen))
	}
	meta := b[:metaLen]
	crc := uint32(b[metaLen])<<24 | uint32(b[metaLen+1])<<16 | uint32(b[metaLen+2])<<8 | uint32(b[metaLen+3])
	if got := crc32.ChecksumIEEE(meta); got != crc {
		return fail(fmt.Errorf("storage: segment meta crc mismatch (got %08x, want %08x)", got, crc))
	}
	d := wire.NewDecoder(meta)
	sch := wire.GetSchema(d)
	if err := d.Err(); err != nil {
		return fail(fmt.Errorf("storage: segment schema: %w", err))
	}
	ncols := int(d.U32())
	if d.Err() != nil || ncols != sch.Len() {
		return fail(fmt.Errorf("storage: segment directory has %d columns for schema of %d", ncols, sch.Len()))
	}
	if ncols*pageDirEntryLen > d.Remaining() {
		return fail(fmt.Errorf("storage: segment page directory exceeds meta block"))
	}
	refs := make([]pageRef, ncols)
	for c := range refs {
		refs[c] = pageRef{off: int64(d.U64()), length: int(d.U32())}
	}
	sm := SegmentMeta{SchemaHash: d.U64(), Rows: d.I64()}
	sm.Zones = getZones(d)
	if err := d.Err(); err != nil {
		return fail(fmt.Errorf("storage: segment footer: %w", err))
	}
	if sm.Zones == nil && ncols > 0 {
		return fail(fmt.Errorf("storage: segment footer has no zone maps"))
	}
	if len(sm.Zones) != ncols {
		return fail(fmt.Errorf("storage: segment footer has %d zone maps for %d columns", len(sm.Zones), ncols))
	}
	if sm.Rows < 0 {
		return fail(fmt.Errorf("storage: segment footer claims %d rows", sm.Rows))
	}
	if sm.SchemaHash != SchemaHash(sch) {
		return fail(fmt.Errorf("storage: segment footer schema hash disagrees with schema"))
	}
	return sch, sm, refs, nil
}

// checkSegmentMeta cross-checks a decoded footer against the decoded
// pages.
func checkSegmentMeta(meta SegmentMeta, t *table.Table) error {
	if meta.SchemaHash != SchemaHash(t.Schema()) {
		return fmt.Errorf("storage: segment footer schema hash disagrees with pages")
	}
	if meta.Rows != int64(t.NumRows()) {
		return fmt.Errorf("storage: segment footer says %d rows, pages hold %d", meta.Rows, t.NumRows())
	}
	if len(meta.Zones) != t.NumCols() {
		return fmt.Errorf("storage: segment footer has %d zone maps for %d columns", len(meta.Zones), t.NumCols())
	}
	return nil
}

// WriteSegmentFile writes a table as a segment under dir, atomically
// (temp file + fsync + rename), returning the metadata for the catalog.
func WriteSegmentFile(dir, name string, t *table.Table) (SegmentMeta, error) {
	return WriteSegmentFileDict(dir, name, t, nil, false)
}

// WriteSegmentFileDict is WriteSegmentFile encoding against (and, with
// grow, extending) the dataset's shared dictionaries.
func WriteSegmentFileDict(dir, name string, t *table.Table, dicts DictSet, grow bool) (SegmentMeta, error) {
	meta := SegmentMeta{SchemaHash: SchemaHash(t.Schema()), Rows: int64(t.NumRows()), Zones: ComputeZones(t)}
	if err := atomicWriteFile(filepath.Join(dir, name), encodeSegmentZones(t, meta.Zones, dicts, grow)); err != nil {
		return SegmentMeta{}, err
	}
	return meta, nil
}

// readSegmentEncoded is the one segment reader, over any io.ReaderAt
// holding a segment: it reads the given column positions (nil = every
// column), leaving each page in its encoded form (see EncodedColumn) so
// predicates run over runs, dictionary codes and undecoded fixed-width
// payloads before any row is materialized. A v2/v3 segment yields its
// header and meta block first, then the selected pages — pages that sit
// next to each other in the file (the encoder lays them out contiguously
// in column order) arrive in one read and are sliced apart — fetched,
// CRC-checked and parsed on g. A v1 segment has no page directory and no
// compressed pages, so it is read whole and its selected columns wrapped
// as plain views. FileBytes reports exactly the bytes consumed.
func readSegmentEncoded(r io.ReaderAt, positions []int, dicts DictSet, g *workGroup) (*EncodedSegment, error) {
	header, err := readRange(r, 0, segHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("short header: %w", err)
	}
	ver, err := segmentVersion(header)
	if err != nil {
		return nil, err
	}
	if ver == segVersionV1 {
		data, err := io.ReadAll(io.NewSectionReader(r, 0, math.MaxInt64))
		if err != nil {
			return nil, err
		}
		t, meta, err := decodeSegmentV1(data)
		if err != nil {
			return nil, err
		}
		es := wrapTable(t, meta)
		es.FileBytes = int64(len(data))
		if positions == nil {
			return es, nil
		}
		return es.project(positions)
	}
	if ver != segVersion && ver != segVersionV3 {
		return nil, fmt.Errorf("unsupported segment version %d", ver)
	}

	metaLen := headerMetaLen(header)
	if metaLen < 0 || metaLen > 1<<30 {
		return nil, fmt.Errorf("implausible meta length %d", metaLen)
	}
	metaBuf, err := readRange(r, segHeaderLen, metaLen+4)
	if err != nil {
		return nil, fmt.Errorf("short meta: %w", err)
	}
	sch, meta, refs, err := decodeSegmentMetaV2(metaBuf, metaLen)
	if err != nil {
		return nil, err
	}
	if positions == nil {
		positions = make([]int, len(refs))
		for i := range positions {
			positions[i] = i
		}
	}

	bytesRead := int64(segHeaderLen + len(metaBuf))
	zones := make([]ZoneMap, len(positions))
	for i, c := range positions {
		if c < 0 || c >= len(refs) {
			return nil, fmt.Errorf("projected column %d out of %d", c, len(refs))
		}
		if refs[c].off < int64(segHeaderLen) || refs[c].length < 0 {
			return nil, fmt.Errorf("column %d page [%d,+%d) malformed", c, refs[c].off, refs[c].length)
		}
		bytesRead += int64(refs[c].length)
		zones[i] = meta.Zones[c]
	}

	// Group the projected pages (indexes into positions) into runs that
	// are contiguous in the file; each run is one read.
	type pageRun struct {
		off   int64
		n     int
		pages []int
	}
	order := make([]int, len(positions))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return refs[positions[order[a]]].off < refs[positions[order[b]]].off })
	var runs []pageRun
	for _, i := range order {
		ref := refs[positions[i]]
		if last := len(runs) - 1; last >= 0 && runs[last].off+int64(runs[last].n) == ref.off {
			runs[last].n += ref.length
			runs[last].pages = append(runs[last].pages, i)
			continue
		}
		runs = append(runs, pageRun{off: ref.off, n: ref.length, pages: []int{i}})
	}
	cols := make([]*EncodedColumn, len(positions))
	err = g.forEach(len(runs), func(k int) error {
		run := runs[k]
		buf, err := readRange(r, run.off, run.n)
		if err != nil {
			return fmt.Errorf("column %d page: %w", positions[run.pages[0]], err)
		}
		return g.forEach(len(run.pages), func(j int) error {
			i := run.pages[j]
			c := positions[i]
			at := refs[c].off - run.off
			ctx := pageCtx{col: sch.At(c).Name, dict: dicts[sch.At(c).Name]}
			col, err := parsePageEncoded(buf[at:at+int64(refs[c].length)], sch.At(c).Kind, ctx)
			if err != nil {
				return fmt.Errorf("column %d (%s): %w", c, sch.At(c).Name, err)
			}
			if int64(col.Rows()) != meta.Rows {
				return fmt.Errorf("column %d holds %d rows, footer says %d", c, col.Rows(), meta.Rows)
			}
			cols[i] = col
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return &EncodedSegment{
		Schema:    sch.Project(positions),
		Cols:      cols,
		Meta:      SegmentMeta{SchemaHash: meta.SchemaHash, Rows: meta.Rows, Zones: zones},
		FileBytes: bytesRead,
	}, nil
}

// maxBlindRead is the most readRange allocates on a length field's word
// alone.
const maxBlindRead = 4 << 20

// readRange reads exactly [off, off+n) of r. The length comes from the
// file itself and the file's size is not known (the read path does not
// stat): a longer range is allocated only once its last byte has been
// read, so a length that overstates the file fails on a short read, not
// on the allocation.
func readRange(r io.ReaderAt, off int64, n int) ([]byte, error) {
	if n > maxBlindRead {
		var last [1]byte
		if got, err := r.ReadAt(last[:], off+int64(n)-1); got < 1 {
			return nil, err
		}
	}
	buf := make([]byte, n)
	if got, err := r.ReadAt(buf, off); got < n {
		return nil, err
	}
	return buf, nil
}

// atomicWriteFile writes data to path via a temp file in the same
// directory, fsyncing the file before the rename and the directory
// after, so the path never exposes a torn file — even across SIGKILL.
// Write and fsync route through errfs, the deterministic
// fault-injection seam the chaos suite drives.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("storage: temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := errfs.Write(tmp, data); err != nil {
		cleanup()
		return fmt.Errorf("storage: write %s: %w", path, err)
	}
	if err := errfs.Sync(tmp); err != nil {
		cleanup()
		return fmt.Errorf("storage: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("storage: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("storage: rename into %s: %w", path, err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that refuse directory fsync are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
