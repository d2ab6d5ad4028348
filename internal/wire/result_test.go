package wire

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"nexus/internal/datagen"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// TestTableSizeExact: the size the table codecs presize their buffer to
// is exactly the length PutTable writes — no regrowth, no slack — and
// the presized encoders write the bytes an unsized Encoder writes.
func TestTableSizeExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tabs := []*table.Table{datagen.Sales(1, 5000, 50, 20), datagen.Sales(2, 300, 5, 5).Slice(17, 211)}
	for i := 0; i < 300; i++ {
		tabs = append(tabs, randomTable(r))
	}
	for i, tab := range tabs {
		var ref Encoder
		ref.U64(9)
		PutTable(&ref, tab)
		got := EncodeResult(9, tab)
		if !bytes.Equal(got, ref.Bytes()) {
			t.Fatalf("table %d: presized result encoding differs from the unsized one", i)
		}
		if len(got) != cap(got) || tableSize(tab) != len(got)-8 {
			t.Fatalf("table %d: tableSize %d, encoding %d bytes in a %d-byte buffer", i, tableSize(tab), len(got)-8, cap(got))
		}
	}
}

// salesResult is the warm_wide-shaped result frame: 50k rows of the six
// sales columns.
func salesResult() []byte { return EncodeResult(1, datagen.Sales(1, 50000, 1000, 100)) }

// TestResultCodecAllocs: encoding a result allocates its frame once,
// at its final size, and decoding one costs a fixed number of
// allocations however many rows it has — strings included. (The race
// detector's instrumentation moves an allocation or two, so decoding
// gets that much slack.)
func TestResultCodecAllocs(t *testing.T) {
	tab := datagen.Sales(1, 50000, 10, 10)
	frame := EncodeResult(1, tab)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const n = 5
	for i := 0; i < n; i++ {
		EncodeResult(1, tab)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / n; perOp > uint64(len(frame))*11/10 {
		t.Fatalf("EncodeResult allocates %d bytes for a %d-byte frame", perOp, len(frame))
	}

	decAllocs := func(rows int) float64 {
		b := EncodeResult(1, datagen.Sales(1, rows, 10, 10))
		return testing.AllocsPerRun(20, func() {
			if _, _, err := DecodeResult(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := decAllocs(100), decAllocs(50000)
	if large > small+2 || large > 64 {
		t.Fatalf("DecodeResult: %v allocs at 100 rows, %v at 50k; want about the same, at most 64", small, large)
	}
}

func BenchmarkEncodeResult(b *testing.B) {
	tab := datagen.Sales(1, 50000, 1000, 100)
	b.SetBytes(int64(len(EncodeResult(1, tab))))
	b.ReportAllocs()
	for b.Loop() {
		EncodeResult(1, tab)
	}
}

func BenchmarkDecodeResult(b *testing.B) {
	buf := salesResult()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodeResult(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecodeResult: no input panics the result decoder, and whatever it
// accepts re-encodes to a canonical form that decodes and re-encodes to
// the same bytes.
func FuzzDecodeResult(f *testing.F) {
	strs := schema.New(schema.Attribute{Name: "s", Kind: value.KindString}, schema.Attribute{Name: "n", Kind: value.KindInt64})
	empty := table.MustNew(strs, []*table.Column{table.StringColumn([]string{}), table.IntColumn([]int64{})})
	blanks := table.MustNew(strs, []*table.Column{table.StringColumn([]string{"", "", "x", ""}), table.IntColumn([]int64{1, 2, 3, 4})})
	nulls := table.MustNew(strs, []*table.Column{
		table.StringColumn([]string{"a", "b"}).WithValidity([]bool{false, false}),
		table.IntColumn([]int64{0, 0}).WithValidity([]bool{false, false}),
	})
	f.Add(EncodeResult(1, empty))
	f.Add(EncodeResult(2, blanks))
	f.Add(EncodeResult(3, nulls))
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		f.Add(EncodeResult(uint64(i), randomTable(r)))
	}
	whole := EncodeResult(4, datagen.Sales(1, 20, 3, 3))
	f.Add(whole[:len(whole)-3]) // the last string's bytes cut short
	f.Add(EncodeResult(5, blanks)[:40])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		id, tab, err := DecodeResult(data)
		if err != nil {
			return
		}
		canon := EncodeResult(id, tab)
		id2, tab2, err := DecodeResult(canon)
		if err != nil || id2 != id {
			t.Fatalf("re-encoded result does not decode: id %d -> %d, %v", id, id2, err)
		}
		if again := EncodeResult(id2, tab2); !bytes.Equal(again, canon) {
			t.Fatalf("decode/encode is not stable:\n% x\n% x", canon, again)
		}
	})
}
