// Package wire implements the binary wire format of the nexus framework:
// values, schemas, whole tables, scalar expressions and algebra plans all
// encode to compact byte strings, and a length-prefixed message layer
// carries them between clients and servers. Shipping a query as one
// encoded expression tree — rather than a conversation of per-operator
// calls — is the LINQ property the paper singles out: it "cuts down on
// communication between client and Provider, but also permits
// optimization and query planning at the Provider".
package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Encoder accumulates a binary encoding. The zero Encoder is ready to
// use.
type Encoder struct {
	buf []byte
}

// Bytes returns the accumulated encoding.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoding size.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// I64 appends an int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 (IEEE-754 bits).
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Raw appends bytes verbatim (caller framed them already).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// grow extends the buffer by n bytes and returns the new region.
func (e *Encoder) grow(n int) []byte {
	at := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...)
	return e.buf[at:]
}

// The slice kernels below are the one place a typed column turns into
// bytes and back: the table codec and every storage page codec go
// through them. The layout is exactly that of the scalar method called
// once per element.

// I64s appends every element as I64 would.
func (e *Encoder) I64s(vs []int64) {
	b := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(b[8*i:], uint64(v))
	}
}

// F64s appends every element as F64 would.
func (e *Encoder) F64s(vs []float64) {
	b := e.grow(8 * len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// U32s appends every element as U32 would.
func (e *Encoder) U32s(vs []uint32) {
	b := e.grow(4 * len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint32(b[4*i:], v)
	}
}

// Bools appends every element as Bool would.
func (e *Encoder) Bools(vs []bool) {
	b := e.grow(len(vs))
	for i, v := range vs {
		if v {
			b[i] = 1
		}
	}
}

// Strs appends every element as Str would.
func (e *Encoder) Strs(vs []string) {
	for _, v := range vs {
		e.Str(v)
	}
}

// Decoder consumes a binary encoding with a sticky error: after the first
// malformed read every subsequent read returns zero values, and Err
// reports the failure — callers check once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a byte string for decoding.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(op string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated input reading %s at offset %d", op, d.off)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail("u8")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail("u32")
		return 0
	}
	b := d.buf[d.off:]
	d.off += 4
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	b := d.buf[d.off:]
	d.off += 8
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool byte.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// RawN reads n bytes verbatim; the returned slice aliases the input.
func (d *Decoder) RawN(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("raw")
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// rawElems reads n fixed-width elements' bytes; a count the input cannot
// hold fails the decoder before anything is allocated.
func (d *Decoder) rawElems(n, width int) []byte {
	if n < 0 || n > d.Remaining()/width {
		d.fail("slice")
		return nil
	}
	return d.RawN(n * width)
}

// I64s reads n int64s into a fresh slice: one bounds check, one loop.
func (d *Decoder) I64s(n int) []int64 {
	b := d.rawElems(n, 8)
	if d.err != nil {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	return vs
}

// F64s reads n float64s (see I64s).
func (d *Decoder) F64s(n int) []float64 {
	b := d.rawElems(n, 8)
	if d.err != nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return vs
}

// Bools reads n bool bytes (see I64s).
func (d *Decoder) Bools(n int) []bool {
	b := d.rawElems(n, 1)
	if d.err != nil {
		return nil
	}
	vs := make([]bool, n)
	for i, x := range b {
		vs[i] = x != 0
	}
	return vs
}

// Strs reads n length-prefixed strings; each needs at least its u32
// length, which bounds n before the slice is allocated.
func (d *Decoder) Strs(n int) []string {
	if d.err != nil || n < 0 || n > d.Remaining()/4 {
		d.fail("strings")
		return nil
	}
	vs := make([]string, n)
	for i := range vs {
		vs[i] = d.Str()
	}
	return vs
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail("string")
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// ---------------------------------------------------------------------------
// Values

// PutValue encodes a value.
func PutValue(e *Encoder, v value.Value) {
	e.U8(uint8(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindBool:
		e.Bool(v.Bool())
	case value.KindInt64:
		e.I64(v.Int())
	case value.KindFloat64:
		e.F64(v.Float())
	case value.KindString:
		e.Str(v.Str())
	}
}

// GetValue decodes a value.
func GetValue(d *Decoder) value.Value {
	k := value.Kind(d.U8())
	switch k {
	case value.KindNull:
		return value.Null
	case value.KindBool:
		return value.NewBool(d.Bool())
	case value.KindInt64:
		return value.NewInt(d.I64())
	case value.KindFloat64:
		return value.NewFloat(d.F64())
	case value.KindString:
		return value.NewString(d.Str())
	}
	if d.err == nil {
		d.err = fmt.Errorf("wire: bad value kind %d", k)
	}
	return value.Null
}

// ---------------------------------------------------------------------------
// Schemas

// PutSchema encodes a schema.
func PutSchema(e *Encoder, s schema.Schema) {
	e.U32(uint32(s.Len()))
	for i := 0; i < s.Len(); i++ {
		a := s.At(i)
		e.Str(a.Name)
		e.U8(uint8(a.Kind))
		e.Bool(a.Dim)
	}
}

// GetSchema decodes a schema.
func GetSchema(d *Decoder) schema.Schema {
	n := int(d.U32())
	if d.err != nil || n > d.Remaining() { // each attr needs ≥ 6 bytes
		d.fail("schema")
		return schema.Schema{}
	}
	attrs := make([]schema.Attribute, 0, n)
	for i := 0; i < n; i++ {
		attrs = append(attrs, schema.Attribute{
			Name: d.Str(),
			Kind: value.Kind(d.U8()),
			Dim:  d.Bool(),
		})
	}
	if d.err != nil {
		return schema.Schema{}
	}
	s, err := schema.TryNew(attrs...)
	if err != nil {
		d.err = fmt.Errorf("wire: %w", err)
		return schema.Schema{}
	}
	return s
}

// ---------------------------------------------------------------------------
// Tables

// PutTable encodes a whole table column-wise.
func PutTable(e *Encoder, t *table.Table) {
	PutSchema(e, t.Schema())
	e.U32(uint32(t.NumRows()))
	for c := 0; c < t.NumCols(); c++ {
		PutColumn(e, t.Col(c))
	}
}

// PutColumn encodes one column: bool hasNulls | [rows validity bools] |
// raw values. The row count and kind travel outside (table header,
// segment page header).
func PutColumn(e *Encoder, col *table.Column) {
	PutValidity(e, col)
	switch col.Kind() {
	case value.KindBool:
		e.Bools(col.Bools())
	case value.KindInt64:
		e.I64s(col.Ints())
	case value.KindFloat64:
		e.F64s(col.Floats())
	case value.KindString:
		e.Strs(col.Strs())
	}
}

// PutValidity encodes a column's validity: bool hasNulls | [rows bools].
func PutValidity(e *Encoder, col *table.Column) {
	hasNulls := col.HasNulls()
	e.Bool(hasNulls)
	if hasNulls {
		e.Bools(col.Validity())
	}
}

// GetValidity decodes what PutValidity wrote for a column of rows rows;
// nil means every row is valid.
func GetValidity(d *Decoder, rows int) []bool {
	if !d.Bool() {
		return nil
	}
	return d.Bools(rows)
}

// GetColumn decodes what PutColumn wrote for a column of the given kind
// and row count. A row count the remaining input cannot hold fails the
// decoder before anything is allocated.
func GetColumn(d *Decoder, kind value.Kind, rows int) *table.Column {
	valid := GetValidity(d, rows)
	var col *table.Column
	switch kind {
	case value.KindBool:
		col = table.BoolColumn(d.Bools(rows))
	case value.KindInt64:
		col = table.IntColumn(d.I64s(rows))
	case value.KindFloat64:
		col = table.FloatColumn(d.F64s(rows))
	case value.KindString:
		col = table.StringColumn(d.Strs(rows))
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: bad column kind %v", kind)
		}
	}
	if d.err != nil {
		return nil
	}
	if valid != nil {
		col = col.WithValidity(valid)
	}
	return col
}

// GetTable decodes a table.
func GetTable(d *Decoder) *table.Table {
	sch := GetSchema(d)
	if d.err != nil {
		return nil
	}
	rows := int(d.U32())
	if d.err != nil || rows > d.Remaining()+1 { // loose sanity bound
		d.fail("table rows")
		return nil
	}
	cols := make([]*table.Column, sch.Len())
	for c := range cols {
		if cols[c] = GetColumn(d, sch.At(c).Kind, rows); cols[c] == nil {
			return nil
		}
	}
	t, err := table.New(sch, cols)
	if err != nil {
		d.err = fmt.Errorf("wire: %w", err)
		return nil
	}
	return t
}

// EncodeTable returns the byte encoding of a table.
func EncodeTable(t *table.Table) []byte {
	var e Encoder
	PutTable(&e, t)
	return e.Bytes()
}

// DecodeTable parses a table encoding.
func DecodeTable(b []byte) (*table.Table, error) {
	d := NewDecoder(b)
	t := GetTable(d)
	if d.Err() != nil {
		return nil, d.Err()
	}
	return t, nil
}
