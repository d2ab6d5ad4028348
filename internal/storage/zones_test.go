package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// boxedZones is the zone-map oracle: value.Compare folded over every
// boxed row, first row first. ComputeZones must reproduce it exactly.
func boxedZones(t *table.Table) []ZoneMap {
	zones := make([]ZoneMap, t.NumCols())
	for c := range zones {
		col := t.Col(c)
		z := ZoneMap{Min: value.Null, Max: value.Null}
		for r := 0; r < col.Len(); r++ {
			v := col.Value(r)
			if v.IsNull() {
				z.Nulls++
			}
			if r == 0 {
				z.Min, z.Max = v, v
				continue
			}
			if value.Compare(v, z.Min) < 0 {
				z.Min = v
			}
			if value.Compare(v, z.Max) > 0 {
				z.Max = v
			}
		}
		zones[c] = z
	}
	return zones
}

// zoneBytes is the footer encoding of zone maps: equal bytes mean equal
// kinds, equal bit patterns (-0 vs +0, NaN payloads) and equal counts.
func zoneBytes(zones []ZoneMap) []byte {
	var e wire.Encoder
	putZones(&e, zones)
	return e.Bytes()
}

func checkZones(t *testing.T, tbl *table.Table, what string) {
	t.Helper()
	want, got := boxedZones(tbl), ComputeZones(tbl)
	if !bytes.Equal(zoneBytes(want), zoneBytes(got)) {
		t.Fatalf("%s: typed zones %v, boxed oracle %v", what, got, want)
	}
}

// oneColumn builds a single-column table from boxed values.
func oneColumn(kind value.Kind, vals ...value.Value) *table.Table {
	b := table.NewBuilder(schema.New(schema.Attribute{Name: "c", Kind: kind}), len(vals))
	for _, v := range vals {
		b.MustAppend(v)
	}
	return b.Build()
}

// TestComputeZonesMatchesBoxedOracle holds the typed zone kernel to the
// boxed fold at the edges of value.Compare's order: NULL first (at the
// head, the tail and everywhere), NaN below -Inf (and a second NaN
// payload that must not displace the first), ±Inf, -0 against +0 in
// both orders, int64 above 2^53 where a float would round, the empty and
// the all-NULL column, and bools.
func TestComputeZonesMatchesBoxedOracle(t *testing.T) {
	i, f, s, b, null := value.NewInt, value.NewFloat, value.NewString, value.NewBool, value.Null
	nan2 := math.Float64frombits(0x7ff8000000000001)
	negZero := math.Copysign(0, -1)
	big := int64(1) << 53
	cases := []struct {
		name string
		tbl  *table.Table
	}{
		{"empty int", oneColumn(value.KindInt64)},
		{"empty string", oneColumn(value.KindString)},
		{"all null", oneColumn(value.KindFloat64, null, null, null)},
		{"null first", oneColumn(value.KindInt64, null, i(3), i(-2), i(7))},
		{"null last", oneColumn(value.KindInt64, i(3), i(-2), i(7), null)},
		{"null only row", oneColumn(value.KindString, null)},
		{"int above 2^53", oneColumn(value.KindInt64, i(big+1), i(big), i(big+2), i(-big-1))},
		{"int extremes", oneColumn(value.KindInt64, i(0), i(math.MaxInt64), i(math.MinInt64))},
		{"nan below -inf", oneColumn(value.KindFloat64, f(1), f(math.Inf(-1)), f(math.NaN()), f(math.Inf(1)))},
		{"nan first", oneColumn(value.KindFloat64, f(math.NaN()), f(2), f(-3))},
		{"two nan payloads", oneColumn(value.KindFloat64, f(4), f(nan2), f(math.NaN()), f(-1))},
		{"all nan", oneColumn(value.KindFloat64, f(nan2), f(math.NaN()))},
		{"nan and null", oneColumn(value.KindFloat64, f(math.NaN()), null, f(5))},
		{"-0 then +0", oneColumn(value.KindFloat64, f(negZero), f(0))},
		{"+0 then -0", oneColumn(value.KindFloat64, f(0), f(negZero))},
		{"-0 among negatives", oneColumn(value.KindFloat64, f(-1), f(negZero), f(0), f(-1))},
		{"strings", oneColumn(value.KindString, s("m"), s(""), s("zz"), s("a"), s("zz"))},
		{"strings with null", oneColumn(value.KindString, s("b"), null, s("a"))},
		{"bools", oneColumn(value.KindBool, b(true), b(false), b(true))},
		{"bools all true", oneColumn(value.KindBool, b(true), b(true))},
		{"bools with null", oneColumn(value.KindBool, b(false), null)},
	}
	for _, c := range cases {
		checkZones(t, c.tbl, c.name)
		// A slice of the column shares its payload at an offset.
		if n := c.tbl.NumRows(); n > 1 {
			checkZones(t, c.tbl.Slice(1, n), c.name+" sliced")
		}
	}

	// Random tables drawn from the same edge values, several columns.
	rng := rand.New(rand.NewSource(41))
	floats := []float64{math.NaN(), nan2, math.Inf(1), math.Inf(-1), 0, negZero, 1.5, -2.25, float64(big)}
	ints := []int64{big, big + 1, -big, 0, 7, math.MaxInt64, math.MinInt64}
	strs := []string{"", "a", "ab", "b", "\xff"}
	sch := schema.New(
		schema.Attribute{Name: "i", Kind: value.KindInt64},
		schema.Attribute{Name: "f", Kind: value.KindFloat64},
		schema.Attribute{Name: "s", Kind: value.KindString},
		schema.Attribute{Name: "b", Kind: value.KindBool},
	)
	for trial := 0; trial < 300; trial++ {
		rows := rng.Intn(12)
		nullRate := rng.Intn(4) // 0: no NULLs
		bld := table.NewBuilder(sch, rows)
		for r := 0; r < rows; r++ {
			row := []value.Value{
				i(ints[rng.Intn(len(ints))]), f(floats[rng.Intn(len(floats))]),
				s(strs[rng.Intn(len(strs))]), b(rng.Intn(2) == 0),
			}
			for c := range row {
				if nullRate > 0 && rng.Intn(8) < nullRate {
					row[c] = null
				}
			}
			bld.MustAppend(row...)
		}
		checkZones(t, bld.Build(), fmt.Sprintf("random table %d", trial))
	}
}

// BenchmarkComputeZones times zone maps over the ingest shape — int64
// ids, two small int64 columns, a float64 and a low-cardinality string —
// at one 256-row append and one 200k-row flush, typed and boxed.
func BenchmarkComputeZones(b *testing.B) {
	sch := schema.New(
		schema.Attribute{Name: "event_id", Kind: value.KindInt64},
		schema.Attribute{Name: "device", Kind: value.KindInt64},
		schema.Attribute{Name: "kind", Kind: value.KindInt64},
		schema.Attribute{Name: "value", Kind: value.KindFloat64},
		schema.Attribute{Name: "region", Kind: value.KindString},
	)
	regions := []string{"eu-west", "us-east", "ap-south", "sa-east"}
	for _, rows := range []int{256, 200_000} {
		rng := rand.New(rand.NewSource(1))
		bld := table.NewBuilder(sch, rows)
		for r := 0; r < rows; r++ {
			bld.MustAppend(value.NewInt(int64(r)), value.NewInt(rng.Int63n(1000)), value.NewInt(rng.Int63n(8)),
				value.NewFloat(rng.Float64()*100), value.NewString(regions[rng.Intn(len(regions))]))
		}
		tbl := bld.Build()
		b.Run(fmt.Sprintf("typed/rows=%d", rows), func(b *testing.B) {
			for b.Loop() {
				ComputeZones(tbl)
			}
		})
		b.Run(fmt.Sprintf("boxed/rows=%d", rows), func(b *testing.B) {
			for b.Loop() {
				boxedZones(tbl)
			}
		})
	}
}
