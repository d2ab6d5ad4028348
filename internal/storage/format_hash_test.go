package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// formatHashTable is a fixed table that makes the writer use every page
// encoding: unique ints and strings (plain), a clustered int (RLE),
// low-cardinality strings and floats with NULLs (dict, shared dict), a
// bool column, and a float column with NULLs (plain with validity).
func formatHashTable() *table.Table {
	sch := schema.New(
		schema.Attribute{Name: "id", Kind: value.KindInt64},
		schema.Attribute{Name: "bucket", Kind: value.KindInt64},
		schema.Attribute{Name: "tier", Kind: value.KindString},
		schema.Attribute{Name: "score", Kind: value.KindFloat64},
		schema.Attribute{Name: "wide", Kind: value.KindString},
		schema.Attribute{Name: "flag", Kind: value.KindBool},
		schema.Attribute{Name: "price", Kind: value.KindFloat64},
	)
	tiers := []string{"gold", "silver", "bronze", "iron"}
	b := table.NewBuilder(sch, 300)
	for i := int64(0); i < 300; i++ {
		tier, score, price := value.Value(value.Null), value.Value(value.Null), value.Value(value.Null)
		if i%7 != 3 {
			tier = value.NewString(tiers[(i*i)%4])
		}
		if i%5 != 1 {
			score = value.NewFloat(float64(i%6) + 0.25)
		}
		if i%11 != 0 {
			price = value.NewFloat(float64(i*37%1000) / 4)
		}
		b.MustAppend(value.NewInt(i*3-100), value.NewInt(i/19), tier, score,
			value.NewString(fmt.Sprintf("w-%05d", i*7919%100000)), value.NewBool(i%3 == 0), price)
	}
	return b.Build()
}

// TestFormatBytesUnchanged pins the bytes the writers produce for a
// fixed table to the SHA-256 values recorded when the read path was
// rebuilt around lazy pages and bulk codecs: segment v2, segment v3
// (shared dictionary), legacy v1, the wire table codec (WAL records and
// query results) and the manifest. A change to any of these hashes is an
// on-disk or on-wire format change and needs a version bump, not a new
// hash.
func TestFormatBytesUnchanged(t *testing.T) {
	tbl := formatHashTable()
	dicts := DictSet{}
	v3 := EncodeSegmentDict(tbl, dicts, true)
	man := &Manifest{Gen: 3, WalGen: 3, NextSeg: 2}
	dm := DatasetManifest{Name: "d", Schema: tbl.Schema(), OrderEpoch: 1,
		Segments: []SegmentRef{{File: "seg-000001.nxs", Meta: SegmentMeta{SchemaHash: SchemaHash(tbl.Schema()), Rows: int64(tbl.NumRows()), Zones: ComputeZones(tbl)}}}}
	dm.setDicts(dicts)
	man.Datasets = append(man.Datasets, dm)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"segment v2", encodeSegment(tbl), "6d5fc4ad4dc1030823cb1890268ff2b7eb42226dd4a425e5de57ec7e502a1290"},
		{"segment v3", v3, "defb5077e45b63fe82b5c187718180cab0fd95d4d2213d3e1d8c23345094348e"},
		{"segment v1", encodeSegmentV1(tbl), "2e2b9269cb8d0017abd14ff35b3dc76c522490e2c4ba0fa01f16561a7be85ea1"},
		{"wire table", wire.EncodeTable(tbl), "77f563bc1235eec7c2e73ae504745956f6527a89b49160382eaf2c27250d721f"},
		{"manifest", EncodeManifest(man), "e0bad9e5cca8431ab4743a4377d4d811183bb84c06709b13a8adb80def88ffc6"},
	} {
		sum := sha256.Sum256(c.data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: sha256 of %d bytes = %s, want %s", c.name, len(c.data), got, c.want)
		}
	}
	if v3[len(segMagic)] != segVersionV3 {
		t.Fatalf("shared-dictionary segment is v%d, want v3", v3[len(segMagic)])
	}
}
