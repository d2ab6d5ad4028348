package storage

import (
	"hash/crc32"

	"nexus/internal/table"
	"nexus/internal/wire"
)

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
