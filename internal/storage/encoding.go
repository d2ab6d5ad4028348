package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// Column page encodings. A v2 segment stores every column as one page
// with a small versioned header, so the writer can pick a different
// physical encoding per column while readers of any vintage either
// decode the page or reject it loudly:
//
//	u8 pageVersion | u8 encoding | u32 rows | u32 payloadLen | payload | u32 crc32(header|payload)
//
// The CRC covers the header and the payload, so a projected read that
// touches only some pages still verifies every byte it consumed.
// pageVersion is bumped when a payload layout changes incompatibly;
// decoders reject versions they do not know rather than misparse.
//
// Three encodings exist today, chosen per column at write time by
// choosePageEncoding:
//
//   - PageEncPlain: validity bitmap + raw values, the v1 layout carried
//     over. Always decodable, always the fallback.
//   - PageEncDict: validity bitmap + value dictionary + one u32 code per
//     row. Pays off when a column holds few distinct values (regions,
//     categories, enum-ish ints): an 8-byte value becomes a 4-byte code
//     and each distinct string is stored once.
//   - PageEncRLE: (length, value) runs. Pays off when equal values sit
//     next to each other — exactly what compaction's clustering sort
//     produces.

// pageVersion is the current column-page header version. Readers reject
// pages with a newer version instead of misparsing them.
const pageVersion = 1

// Page encodings (the `encoding` byte of a column-page header).
const (
	PageEncPlain      = 0 // validity bitmap + raw values (v1 layout)
	PageEncDict       = 1 // dictionary + u32 codes per row
	PageEncRLE        = 2 // run-length (length, validity, value) runs
	PageEncDictShared = 3 // u32 codes into the dataset's shared dictionary (v3 segments only)
)

// pageHeaderLen is the fixed prefix of a column page before the payload:
// version byte, encoding byte, u32 row count, u32 payload length.
const pageHeaderLen = 1 + 1 + 4 + 4

// dictMaxEntries caps dictionary sizes; a column with more distinct
// values than this is never dictionary-encoded (the scan that counts
// distincts also stops here).
const dictMaxEntries = 1 << 16

// maxRLERows caps the rows one RLE page may claim. RLE is the only
// encoding whose decoded size is not bounded by its payload size (one
// 9-byte run legitimately covers billions of rows), so without a cap a
// ~60-byte hostile file could demand a multi-gigabyte materialization.
// The writer respects the cap too — choosePageEncoding never picks RLE
// above it — and 2^27 rows is far beyond any segment the flush/compact
// size thresholds produce.
const maxRLERows = 1 << 27

// encodingName reports a page encoding for error messages and stats.
func encodingName(enc uint8) string {
	switch enc {
	case PageEncPlain:
		return "plain"
	case PageEncDict:
		return "dict"
	case PageEncRLE:
		return "rle"
	case PageEncDictShared:
		return "dict-shared"
	}
	return fmt.Sprintf("enc%d", enc)
}

// choosePageEncoding picks the physical encoding for one column: RLE
// when values cluster into long runs (average run length ≥ 4), a
// dictionary when few distinct values repeat often (≤ rows/4 distincts,
// capped at dictMaxEntries), plain otherwise. Tiny columns are always
// plain — the headers would outweigh the savings. The scan runs on the
// typed payload slices (no per-row value boxing): it sits on the flush
// hot path, right next to the WAL group commit.
func choosePageEncoding(col *table.Column) uint8 {
	rows := col.Len()
	if rows < 64 {
		return PageEncPlain
	}
	runs, distinct, overflow := columnShape(col)
	if runs*4 <= rows && rows <= maxRLERows {
		return PageEncRLE
	}
	if !overflow && col.Kind() != value.KindBool && distinct*4 <= rows {
		return PageEncDict
	}
	return PageEncPlain
}

// columnShape counts the column's value runs and (capped) distinct
// values with typed tight loops. NULL is one more distinct symbol and
// breaks runs like any other value change.
func columnShape(col *table.Column) (runs, distinct int, overflow bool) {
	rows := col.Len()
	valid := col.Validity()
	isNull := func(r int) bool { return valid != nil && !valid[r] }
	runs = 1
	sawNull := false
	switch col.Kind() {
	case value.KindBool:
		vals := col.Bools()
		seen := [2]bool{}
		for r := 0; r < rows; r++ {
			if isNull(r) {
				sawNull = true
			} else {
				seen[b2i(vals[r])] = true
			}
			if r > 0 && (isNull(r) != isNull(r-1) || (!isNull(r) && vals[r] != vals[r-1])) {
				runs++
			}
		}
		for _, s := range seen {
			if s {
				distinct++
			}
		}
	case value.KindInt64:
		vals := col.Ints()
		set := map[int64]struct{}{}
		for r := 0; r < rows; r++ {
			if isNull(r) {
				sawNull = true
			} else if !overflow {
				set[vals[r]] = struct{}{}
				overflow = len(set) > dictMaxEntries
			}
			if r > 0 && (isNull(r) != isNull(r-1) || (!isNull(r) && vals[r] != vals[r-1])) {
				runs++
			}
		}
		distinct = len(set)
	case value.KindFloat64:
		vals := col.Floats()
		set := map[float64]struct{}{}
		for r := 0; r < rows; r++ {
			if isNull(r) {
				sawNull = true
			} else if !overflow {
				set[vals[r]] = struct{}{}
				overflow = len(set) > dictMaxEntries
			}
			if r > 0 && (isNull(r) != isNull(r-1) || (!isNull(r) && vals[r] != vals[r-1])) {
				runs++
			}
		}
		distinct = len(set)
	case value.KindString:
		vals := col.Strs()
		set := map[string]struct{}{}
		for r := 0; r < rows; r++ {
			if isNull(r) {
				sawNull = true
			} else if !overflow {
				set[vals[r]] = struct{}{}
				overflow = len(set) > dictMaxEntries
			}
			if r > 0 && (isNull(r) != isNull(r-1) || (!isNull(r) && vals[r] != vals[r-1])) {
				runs++
			}
		}
		distinct = len(set)
	}
	if sawNull {
		distinct++
	}
	return runs, distinct, overflow
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pageCtx carries the per-column context page decoding may need beyond
// the raw bytes: the column's name (error messages, dictionary lookup),
// the shared dictionary its PageEncDictShared codes resolve through (nil
// when the dataset has none — such pages then fail to decode), and the
// structural flag (verify-only: shared pages are bounds-checked but not
// resolved, so replication can verify a fetched segment before the
// manifest carrying its dictionary has been applied).
type pageCtx struct {
	col        string
	dict       *SharedDict
	structural bool
}

// encodePage frames one column as a page with the given encoding. A
// PageEncDictShared page needs the shared dictionary the codes index;
// every value of the column must already be present in it.
func encodePage(col *table.Column, enc uint8, dict *SharedDict) []byte {
	var payload wire.Encoder
	switch enc {
	case PageEncPlain:
		wire.PutColumn(&payload, col)
	case PageEncDict:
		putDictPayload(&payload, col)
	case PageEncRLE:
		putRLEPayload(&payload, col)
	case PageEncDictShared:
		putDictSharedPayload(&payload, col, dict)
	default:
		panic(fmt.Sprintf("storage: encodePage with unknown encoding %d", enc))
	}
	var e wire.Encoder
	e.U8(pageVersion)
	e.U8(enc)
	e.U32(uint32(col.Len()))
	e.U32(uint32(payload.Len()))
	e.Raw(payload.Bytes())
	e.U32(crc32.ChecksumIEEE(e.Bytes()))
	return e.Bytes()
}

// parsePageHeader verifies a page's CRC and framing and returns its
// encoding, row count, and a decoder positioned at the payload. Every
// malformed input is an error, never a panic (FuzzSegment feeds this
// arbitrary bytes via segments).
func parsePageHeader(b []byte) (enc uint8, rows int, payload *wire.Decoder, err error) {
	if len(b) < pageHeaderLen+4 {
		return 0, 0, nil, fmt.Errorf("storage: column page too short (%d bytes)", len(b))
	}
	crcOff := len(b) - 4
	want := uint32(b[crcOff])<<24 | uint32(b[crcOff+1])<<16 | uint32(b[crcOff+2])<<8 | uint32(b[crcOff+3])
	if got := crc32.ChecksumIEEE(b[:crcOff]); got != want {
		return 0, 0, nil, fmt.Errorf("storage: column page crc mismatch (got %08x, want %08x)", got, want)
	}
	d := wire.NewDecoder(b[:crcOff])
	ver := d.U8()
	if ver == 0 || ver > pageVersion {
		return 0, 0, nil, fmt.Errorf("storage: unsupported column page version %d", ver)
	}
	enc = d.U8()
	rows = int(d.U32())
	payloadLen := int(d.U32())
	if d.Err() != nil || rows < 0 || payloadLen != d.Remaining() {
		return 0, 0, nil, fmt.Errorf("storage: column page header disagrees with page size")
	}
	return enc, rows, d, nil
}

// ---------------------------------------------------------------------------
// Plain: bool hasNulls | [rows validity bools] | raw values — wire.PutColumn,
// byte for byte (and therefore the layout inside v1 segment bodies).

// getPlainPayload parses a plain payload. int64 and float64 values are
// fixed-width, so after the validity bitmap the payload must be exactly
// rows×8 bytes and is returned undecoded (raw, big-endian): predicates
// run over the bytes and only selected rows are ever decoded. Bools and
// strings decode to a column here.
func getPlainPayload(d *wire.Decoder, kind value.Kind, rows int) (col *table.Column, raw []byte, valid []bool, err error) {
	if kind != value.KindInt64 && kind != value.KindFloat64 {
		col = wire.GetColumn(d, kind, rows)
		return col, nil, nil, d.Err()
	}
	valid = wire.GetValidity(d, rows)
	if d.Err() != nil {
		return nil, nil, nil, d.Err()
	}
	if int64(d.Remaining()) != int64(rows)*8 {
		return nil, nil, nil, fmt.Errorf("storage: plain page holds %d value bytes for %d rows", d.Remaining(), rows)
	}
	return nil, d.RawN(rows * 8), valid, nil
}

// materializeFixed decodes a raw rows×8 payload to a column: every row
// with one bulk loop when sel is nil, otherwise only the rows in sel.
func materializeFixed(kind value.Kind, raw []byte, valid []bool, sel []int) *table.Column {
	var col *table.Column
	switch {
	case kind == value.KindInt64 && sel == nil:
		col = table.IntColumn(wire.NewDecoder(raw).I64s(len(raw) / 8))
	case kind == value.KindInt64:
		vals := make([]int64, len(sel))
		for i, r := range sel {
			vals[i] = int64(binary.BigEndian.Uint64(raw[8*r:]))
		}
		col = table.IntColumn(vals)
	case sel == nil:
		col = table.FloatColumn(wire.NewDecoder(raw).F64s(len(raw) / 8))
	default:
		vals := make([]float64, len(sel))
		for i, r := range sel {
			vals[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*r:]))
		}
		col = table.FloatColumn(vals)
	}
	if valid = gatherValid(valid, sel); valid != nil {
		col = col.WithValidity(valid)
	}
	return col
}

// gatherValid narrows a validity bitmap to the rows in sel (nil = every
// row); a selection without NULLs comes back as nil, the all-valid form.
func gatherValid(valid []bool, sel []int) []bool {
	if valid == nil || sel == nil {
		return valid
	}
	out := make([]bool, len(sel))
	nulls := false
	for i, r := range sel {
		out[i] = valid[r]
		nulls = nulls || !valid[r]
	}
	if !nulls {
		return nil
	}
	return out
}

// ---------------------------------------------------------------------------
// Dict: bool hasNulls | [validity] | u32 dictLen | dict values | rows × u32 code.
// Codes of NULL rows are written as 0 and ignored on decode.

func putDictPayload(e *wire.Encoder, col *table.Column) {
	wire.PutValidity(e, col)
	rows := col.Len()
	codes := make([]uint32, rows)
	switch col.Kind() {
	case value.KindInt64:
		dict := make(map[int64]uint32)
		var order []int64
		vals := col.Ints()
		for r := 0; r < rows; r++ {
			if col.IsNull(r) {
				continue
			}
			c, ok := dict[vals[r]]
			if !ok {
				c = uint32(len(order))
				dict[vals[r]] = c
				order = append(order, vals[r])
			}
			codes[r] = c
		}
		e.U32(uint32(len(order)))
		e.I64s(order)
	case value.KindFloat64:
		dict := make(map[float64]uint32)
		var order []float64
		vals := col.Floats()
		for r := 0; r < rows; r++ {
			if col.IsNull(r) {
				continue
			}
			c, ok := dict[vals[r]]
			if !ok {
				c = uint32(len(order))
				dict[vals[r]] = c
				order = append(order, vals[r])
			}
			codes[r] = c
		}
		e.U32(uint32(len(order)))
		e.F64s(order)
	case value.KindString:
		dict := make(map[string]uint32)
		var order []string
		vals := col.Strs()
		for r := 0; r < rows; r++ {
			if col.IsNull(r) {
				continue
			}
			c, ok := dict[vals[r]]
			if !ok {
				c = uint32(len(order))
				dict[vals[r]] = c
				order = append(order, vals[r])
			}
			codes[r] = c
		}
		e.U32(uint32(len(order)))
		e.Strs(order)
	default:
		// choosePageEncoding never picks dict for bools; encode the raw
		// values as a degenerate one-entry-per-row dictionary is pointless,
		// so this is a programming error.
		panic(fmt.Sprintf("storage: dict page of kind %v", col.Kind()))
	}
	e.U32s(codes)
}

// getDictEncoded parses a dict payload into its encoded parts: the
// dictionary entries (a column indexed by code), the per-row codes — left
// as their rows×4 big-endian bytes, decoded only where a row is looked
// at — and the validity. Codes of non-null rows are bounds-checked here,
// so every consumer — materializing or not — sees only in-range codes.
func getDictEncoded(d *wire.Decoder, kind value.Kind, rows int) (dict *table.Column, codes []byte, valid []bool, err error) {
	valid = wire.GetValidity(d, rows)
	n := int(d.U32())
	if d.Err() != nil || n > d.Remaining() {
		return nil, nil, nil, fmt.Errorf("storage: dict page dictionary length %d exceeds page", n)
	}
	switch kind {
	case value.KindInt64:
		dict = table.IntColumn(d.I64s(n))
	case value.KindFloat64:
		dict = table.FloatColumn(d.F64s(n))
	case value.KindString:
		dict = table.StringColumn(d.Strs(n))
	default:
		return nil, nil, nil, fmt.Errorf("storage: dict page of kind %v", kind)
	}
	if d.Err() != nil {
		return nil, nil, nil, d.Err()
	}
	if codes, err = getCodes(d, rows, valid, n); err != nil {
		return nil, nil, nil, err
	}
	return dict, codes, valid, nil
}

// getCodes takes the rest of the payload as a code array: it must be
// exactly rows×4 bytes, and every non-null row's code must index a
// dictionary of n entries (NULL rows carry a placeholder that is never
// dereferenced).
func getCodes(d *wire.Decoder, rows int, valid []bool, n int) ([]byte, error) {
	if int64(d.Remaining()) != int64(rows)*4 {
		return nil, fmt.Errorf("storage: dict page holds %d code bytes for %d rows", d.Remaining(), rows)
	}
	codes := d.RawN(rows * 4)
	if valid == nil {
		// Four running maxima: the loads do not wait on one compare chain.
		var m0, m1, m2, m3 uint32
		b := codes
		for ; len(b) >= 16; b = b[16:] {
			m0 = max(m0, binary.BigEndian.Uint32(b))
			m1 = max(m1, binary.BigEndian.Uint32(b[4:]))
			m2 = max(m2, binary.BigEndian.Uint32(b[8:]))
			m3 = max(m3, binary.BigEndian.Uint32(b[12:]))
		}
		for ; len(b) >= 4; b = b[4:] {
			m0 = max(m0, binary.BigEndian.Uint32(b))
		}
		if c := max(m0, m1, m2, m3); rows > 0 && int64(c) >= int64(n) {
			return nil, fmt.Errorf("storage: dict code %d out of range %d", c, n)
		}
		return codes, nil
	}
	for r, ok := range valid {
		if c := binary.BigEndian.Uint32(codes[4*r:]); ok && int64(c) >= int64(n) {
			return nil, fmt.Errorf("storage: dict code %d out of range %d", c, n)
		}
	}
	return codes, nil
}

// materializeDict gathers dictionary entries into a plain column, for
// every row when sel is nil and for the rows in sel otherwise (codes of
// non-null rows are already bounds-checked by the parser).
func materializeDict(dict *table.Column, codes []byte, valid []bool, sel []int) *table.Column {
	var col *table.Column
	switch dict.Kind() {
	case value.KindInt64:
		col = table.IntColumn(gatherCodes(dict.Ints(), codes, valid, sel))
	case value.KindFloat64:
		col = table.FloatColumn(gatherCodes(dict.Floats(), codes, valid, sel))
	default:
		col = table.StringColumn(gatherCodes(dict.Strs(), codes, valid, sel))
	}
	if valid = gatherValid(valid, sel); valid != nil {
		col = col.WithValidity(valid)
	}
	return col
}

func gatherCodes[T any](entries []T, codes []byte, valid []bool, sel []int) []T {
	if sel == nil {
		out := make([]T, len(codes)/4)
		for r := range out {
			if valid == nil || valid[r] {
				out[r] = entries[binary.BigEndian.Uint32(codes[4*r:])]
			}
		}
		return out
	}
	out := make([]T, len(sel))
	for i, r := range sel {
		if valid == nil || valid[r] {
			out[i] = entries[binary.BigEndian.Uint32(codes[4*r:])]
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared dict: bool hasNulls | [validity] | u64 epoch | u32 usedLen |
// rows × u32 code. The dictionary itself lives in the manifest
// (SharedDict); the page records the epoch its codes were assigned under
// and the dictionary prefix length it was written against, so the page
// stays decodable while the dictionary grows and is refused loudly after
// a rebuild reassigns codes.

func putDictSharedPayload(e *wire.Encoder, col *table.Column, dict *SharedDict) {
	if col.Kind() != value.KindString {
		panic(fmt.Sprintf("storage: shared-dict page of kind %v", col.Kind()))
	}
	wire.PutValidity(e, col)
	e.U64(dict.Epoch)
	e.U32(uint32(len(dict.Vals)))
	codes := make([]uint32, col.Len())
	for r, v := range col.Strs() {
		if col.IsNull(r) {
			continue
		}
		c, ok := dict.Code(v)
		if !ok {
			// The writer checks coverage (or grows the dictionary) before
			// choosing this encoding; a miss here is a programming error.
			panic(fmt.Sprintf("storage: value missing from shared dictionary %q", dict.Col))
		}
		codes[r] = c
	}
	e.U32s(codes)
}

// getDictSharedEncoded parses a shared-dict payload: per-row codes plus
// the dictionary prefix they index (resolved through ctx.dict). In
// structural mode no dictionary is needed — framing and code bounds are
// still fully verified, entries comes back nil.
func getDictSharedEncoded(d *wire.Decoder, kind value.Kind, rows int, ctx pageCtx) (entries *table.Column, codes []byte, valid []bool, err error) {
	if kind != value.KindString {
		return nil, nil, nil, fmt.Errorf("storage: shared-dict page of kind %v", kind)
	}
	valid = wire.GetValidity(d, rows)
	epoch := d.U64()
	used := int(d.U32())
	if d.Err() != nil {
		return nil, nil, nil, fmt.Errorf("storage: shared-dict page header truncated")
	}
	if !ctx.structural {
		if ctx.dict == nil {
			return nil, nil, nil, fmt.Errorf("storage: column %q needs a shared dictionary the catalog does not carry", ctx.col)
		}
		if epoch != ctx.dict.Epoch {
			return nil, nil, nil, staleDictErr(ctx.col, epoch, ctx.dict.Epoch)
		}
		if used > len(ctx.dict.Vals) {
			return nil, nil, nil, fmt.Errorf("storage: column %q codes index a %d-entry prefix, dictionary has %d", ctx.col, used, len(ctx.dict.Vals))
		}
		entries = table.StringColumn(ctx.dict.Vals[:used])
	}
	if codes, err = getCodes(d, rows, valid, used); err != nil {
		return nil, nil, nil, err
	}
	return entries, codes, valid, nil
}

// ---------------------------------------------------------------------------
// RLE: u32 nRuns | runs × { u32 length | bool valid | value if valid }.
// NULL runs carry no value payload.

// putRLEPayload writes the column as runs, finding run boundaries with
// typed loops over the raw payload slices — like columnShape, it sits
// on the flush hot path and must not box a value per row.
func putRLEPayload(e *wire.Encoder, col *table.Column) {
	rows := col.Len()
	valid := col.Validity()
	isNull := func(r int) bool { return valid != nil && !valid[r] }
	sameAsPrev := func(r int) bool {
		if isNull(r) != isNull(r-1) {
			return false
		}
		if isNull(r) {
			return true
		}
		switch col.Kind() {
		case value.KindBool:
			return col.Bools()[r] == col.Bools()[r-1]
		case value.KindInt64:
			return col.Ints()[r] == col.Ints()[r-1]
		case value.KindFloat64:
			return col.Floats()[r] == col.Floats()[r-1]
		case value.KindString:
			return col.Strs()[r] == col.Strs()[r-1]
		}
		return false
	}
	putRun := func(start, length int) {
		e.U32(uint32(length))
		if isNull(start) {
			e.Bool(false)
			return
		}
		e.Bool(true)
		switch col.Kind() {
		case value.KindBool:
			e.Bool(col.Bools()[start])
		case value.KindInt64:
			e.I64(col.Ints()[start])
		case value.KindFloat64:
			e.F64(col.Floats()[start])
		case value.KindString:
			e.Str(col.Strs()[start])
		}
	}
	nRuns := 0
	for r := 1; r < rows; r++ {
		if !sameAsPrev(r) {
			nRuns++
		}
	}
	if rows > 0 {
		nRuns++
	}
	e.U32(uint32(nRuns))
	start := 0
	for r := 1; r < rows; r++ {
		if !sameAsPrev(r) {
			putRun(start, r-start)
			start = r
		}
	}
	if rows > 0 {
		putRun(start, rows-start)
	}
}

// getRLERuns parses an RLE payload into validated run lengths and run
// values (value.Null for null runs). Lengths are positive and sum to
// exactly rows, so consumers can fold whole runs without re-checking.
func getRLERuns(d *wire.Decoder, kind value.Kind, rows int) (lens []int, vals []value.Value, err error) {
	nRuns := int(d.U32())
	if d.Err() != nil || nRuns < 0 || nRuns > d.Remaining() {
		return nil, nil, fmt.Errorf("storage: rle page run count %d exceeds page", nRuns)
	}
	// A run legitimately covers many rows in few bytes, so the payload
	// cannot bound the row count the way plain/dict payloads do; the
	// absolute cap (which the writer honors) rejects hostile claims
	// before any materialization.
	if rows > maxRLERows {
		return nil, nil, fmt.Errorf("storage: rle page claims %d rows (cap %d)", rows, maxRLERows)
	}
	lens = make([]int, 0, nRuns)
	vals = make([]value.Value, 0, nRuns)
	total := 0
	for i := 0; i < nRuns; i++ {
		length := int(d.U32())
		rvalid := d.Bool()
		if d.Err() != nil {
			return nil, nil, d.Err()
		}
		if length <= 0 || total+length > rows {
			return nil, nil, fmt.Errorf("storage: rle run %d of length %d overflows %d rows", i, length, rows)
		}
		v := value.Null
		if rvalid {
			switch kind {
			case value.KindBool:
				v = value.NewBool(d.Bool())
			case value.KindInt64:
				v = value.NewInt(d.I64())
			case value.KindFloat64:
				v = value.NewFloat(d.F64())
			case value.KindString:
				v = value.NewString(d.Str())
			default:
				return nil, nil, fmt.Errorf("storage: rle page of kind %v", kind)
			}
			if d.Err() != nil {
				return nil, nil, d.Err()
			}
		}
		lens = append(lens, length)
		vals = append(vals, v)
		total += length
	}
	if total != rows {
		return nil, nil, fmt.Errorf("storage: rle runs cover %d of %d rows", total, rows)
	}
	return lens, vals, nil
}

// fillRuns expands validated runs into a plain column with one typed
// bulk fill per run — this path handles whole compacted segments and
// must not box a value per row.
func fillRuns(kind value.Kind, lens []int, vals []value.Value, rows int) (*table.Column, error) {
	var valid []bool
	for _, v := range vals {
		if v.IsNull() {
			valid = make([]bool, rows)
			for r := range valid {
				valid[r] = true
			}
			break
		}
	}
	if valid != nil {
		at := 0
		for i, n := range lens {
			if vals[i].IsNull() {
				for j := 0; j < n; j++ {
					valid[at+j] = false
				}
			}
			at += n
		}
	}
	var col *table.Column
	switch kind {
	case value.KindBool:
		out := make([]bool, rows)
		at := 0
		for i, n := range lens {
			if !vals[i].IsNull() {
				v := vals[i].Bool()
				for j := 0; j < n; j++ {
					out[at+j] = v
				}
			}
			at += n
		}
		col = table.BoolColumn(out)
	case value.KindInt64:
		out := make([]int64, rows)
		at := 0
		for i, n := range lens {
			if !vals[i].IsNull() {
				v := vals[i].Int()
				for j := 0; j < n; j++ {
					out[at+j] = v
				}
			}
			at += n
		}
		col = table.IntColumn(out)
	case value.KindFloat64:
		out := make([]float64, rows)
		at := 0
		for i, n := range lens {
			if !vals[i].IsNull() {
				v := vals[i].Float()
				for j := 0; j < n; j++ {
					out[at+j] = v
				}
			}
			at += n
		}
		col = table.FloatColumn(out)
	case value.KindString:
		out := make([]string, rows)
		at := 0
		for i, n := range lens {
			if !vals[i].IsNull() {
				v := vals[i].Str()
				for j := 0; j < n; j++ {
					out[at+j] = v
				}
			}
			at += n
		}
		col = table.StringColumn(out)
	default:
		return nil, fmt.Errorf("storage: rle page of kind %v", kind)
	}
	if valid != nil {
		col = col.WithValidity(valid)
	}
	return col, nil
}
