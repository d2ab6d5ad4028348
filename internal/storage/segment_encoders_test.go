package storage

import (
	"bytes"
	"hash/crc32"

	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// readTable reads the given column positions (nil = every column) of a
// segment encoding through the one segment reader, resolving shared-dict
// pages through dicts, and materializes them: the decode the format
// tests compare against.
func readTable(b []byte, positions []int, dicts DictSet) (*table.Table, *EncodedSegment, error) {
	g := newWorkGroup()
	es, err := readSegmentEncoded(bytes.NewReader(b), positions, dicts, g)
	if err != nil {
		return nil, nil, err
	}
	t, err := es.materialize(g, nil)
	return t, es, err
}

// pageColumn parses one column page and materializes every row.
func pageColumn(b []byte, kind value.Kind, ctx pageCtx) (*table.Column, error) {
	ec, err := parsePageEncoded(b, kind, ctx)
	if err != nil {
		return nil, err
	}
	return ec.Materialize()
}

// encodeSegment serializes a table as one segment without shared
// dictionaries (a v2 file; see EncodeSegmentDict for the layout).
func encodeSegment(t *table.Table) []byte {
	return EncodeSegmentDict(t, nil, false)
}

// encodeSegmentV1 serializes a table in the legacy v1 layout:
//
//	magic | u8 version=1 | u32 bodyLen | body | u32 crc32(body)
//	body := table pages (wire.PutTable) | footer
//	footer := schema hash | row count | zone maps
//
// The writer no longer emits v1; this encoder is executable
// documentation of the layout and feeds the mixed-version read tests and
// FuzzSegment's seeds. TestFormatBytesUnchanged pins its output, so it
// cannot drift from the bytes older stores hold.
func encodeSegmentV1(t *table.Table) []byte {
	var body wire.Encoder
	wire.PutTable(&body, t)
	body.U64(SchemaHash(t.Schema()))
	body.I64(int64(t.NumRows()))
	putZones(&body, ComputeZones(t))

	var e wire.Encoder
	e.Raw(segMagic)
	e.U8(segVersionV1)
	e.U32(uint32(body.Len()))
	e.Raw(body.Bytes())
	e.U32(crc32.ChecksumIEEE(body.Bytes()))
	return e.Bytes()
}
