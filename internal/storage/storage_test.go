package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nexus/internal/core"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// rows builds a (k int64, s string, f float64) table covering [lo, hi).
func rowsTable(lo, hi int64) *table.Table {
	sch := schema.New(
		schema.Attribute{Name: "k", Kind: value.KindInt64},
		schema.Attribute{Name: "s", Kind: value.KindString},
		schema.Attribute{Name: "f", Kind: value.KindFloat64},
	)
	b := table.NewBuilder(sch, int(hi-lo))
	for i := lo; i < hi; i++ {
		b.MustAppend(value.NewInt(i), value.NewString(fmt.Sprintf("s%03d", i)), value.NewFloat(float64(i)+0.5))
	}
	return b.Build()
}

func TestSegmentRoundtrip(t *testing.T) {
	in := rowsTable(0, 100)
	data := encodeSegment(in)
	got, es, err := readTable(data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualRows(in, got) {
		t.Fatal("segment rows differ after roundtrip")
	}
	if es.Meta.Rows != 100 {
		t.Fatalf("meta rows = %d", es.Meta.Rows)
	}
	z := es.Meta.Zones[0]
	if z.Min.Int() != 0 || z.Max.Int() != 99 || z.Nulls != 0 {
		t.Fatalf("zone map = %+v", z)
	}
	// Flip one byte anywhere in the body: decode must fail, not misread.
	for _, off := range []int{len(segMagic) + 6, len(data) / 2, len(data) - 3} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x40
		if _, _, err := readTable(bad, nil, nil); err == nil {
			t.Fatalf("corrupt byte at %d decoded successfully", off)
		}
	}
	// Truncations must fail too.
	for _, n := range []int{0, 4, len(data) - 1} {
		if _, _, err := readTable(data[:n], nil, nil); err == nil {
			t.Fatalf("truncated to %d decoded successfully", n)
		}
	}
}

func TestZoneMapNullsSortFirst(t *testing.T) {
	sch := schema.New(schema.Attribute{Name: "k", Kind: value.KindInt64})
	b := table.NewBuilder(sch, 3)
	b.MustAppend(value.NewInt(10))
	b.MustAppend(value.Null)
	b.MustAppend(value.NewInt(20))
	zones := ComputeZones(b.Build())
	z := zones[0]
	if !z.Min.IsNull() || z.Max.Int() != 20 || z.Nulls != 1 {
		t.Fatalf("zone = %+v", z)
	}
	// NULL sorts first under the total order, so k < 5 can match (the
	// NULL row passes value.Compare) and the zone must not prune it.
	if !z.MayMatch(value.OpLt, value.NewInt(5)) {
		t.Fatal("zone with NULLs pruned a < predicate NULL rows satisfy")
	}
	if z.MayMatch(value.OpGt, value.NewInt(20)) {
		t.Fatal("zone failed to prune > max")
	}
}

func TestWALReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(WalRecord{Kind: walAppend, Dataset: "d", Table: rowsTable(int64(i*10), int64(i*10+10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: append garbage that looks like the
	// start of a record.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{0, 0, 1, 0, walAppend, 1, 2, 3})
	f.Close()

	var got []WalRecord
	size, err := ReplayWAL(path, func(r WalRecord) error { got = append(got, r); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	if fi, _ := os.Stat(path); fi.Size() != size {
		t.Fatalf("torn tail not truncated: file %d bytes, valid prefix %d", fi.Size(), size)
	}
	for i, r := range got {
		if r.Dataset != "d" || r.Table.NumRows() != 10 || r.Table.Value(0, 0).Int() != int64(i*10) {
			t.Fatalf("record %d wrong: %+v", i, r)
		}
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	w, err := CreateWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := w.Append(WalRecord{Kind: walAppend, Dataset: fmt.Sprintf("d%d", g), Table: rowsTable(0, 3)}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	w.Close()
	n := 0
	if _, err := ReplayWAL(filepath.Join(dir, "wal.log"), func(WalRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 32*8 {
		t.Fatalf("replayed %d records, want %d", n, 32*8)
	}
}

func TestStoreRecoverAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append("d", rowsTable(0, 50)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil { // first 50 rows become a segment
		t.Fatal(err)
	}
	if err := st.Append("d", rowsTable(50, 80)); err != nil { // WAL only
		t.Fatal(err)
	}
	if err := st.Append("other", rowsTable(0, 5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Drop("other"); err != nil {
		t.Fatal(err)
	}
	// No Close: reopen simulates a crash after the last fsynced ack.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := st2.Dataset("d")
	if err != nil || !ok {
		t.Fatalf("dataset d: ok=%v err=%v", ok, err)
	}
	if !table.EqualRows(rowsTable(0, 80), got) {
		t.Fatalf("recovered rows differ: got %d rows", got.NumRows())
	}
	if _, ok, _ := st2.Dataset("other"); ok {
		t.Fatal("dropped dataset survived recovery")
	}
	// Replace semantics recover too.
	if err := st2.Replace("d", rowsTable(100, 110)); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got3, _, _ := st3.Dataset("d")
	if !table.EqualRows(rowsTable(100, 110), got3) {
		t.Fatal("replace did not survive recovery")
	}
	st3.Close()
}

func TestStoreFlushRotatesAndGarbageCollects(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append("d", rowsTable(int64(i*10), int64(i*10+10))); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	refs, _, _ := st.Segments("d")
	if len(refs) != 3 {
		t.Fatalf("%d segments after 3 flushes, want 3", len(refs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Exactly one manifest and one (empty) WAL generation remain.
	entries, _ := os.ReadDir(dir)
	var manifests, wals int
	for _, ent := range entries {
		name := ent.Name()
		if len(name) > 8 && name[:9] == "MANIFEST-" {
			manifests++
		}
		if len(name) > 4 && name[:4] == "wal-" {
			wals++
		}
	}
	if manifests != 1 || wals != 1 {
		t.Fatalf("dir holds %d manifests, %d wals; want 1 and 1", manifests, wals)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"sub/alpha#0", "sub/alpha#1", "plain"}
	for i, k := range keys {
		if err := st.SaveCheckpoint(k, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite is atomic-replace.
	if err := st.SaveCheckpoint("plain", []byte("payload-new")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, ok, err := st2.LoadCheckpoint("plain")
	if err != nil || !ok || string(got) != "payload-new" {
		t.Fatalf("plain checkpoint: %q ok=%v err=%v", got, ok, err)
	}
	list, err := st2.Checkpoints()
	if err != nil || len(list) != 3 {
		t.Fatalf("checkpoints = %v err=%v", list, err)
	}
	if err := st2.DeleteCheckpoint("sub/alpha#0"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st2.LoadCheckpoint("sub/alpha#0"); ok {
		t.Fatal("deleted checkpoint still loads")
	}
}

// TestEnginePrunedScanDifferential is the zone-map acceptance test: a
// filtered cold scan over many segments must skip non-matching segments
// and still return rows byte-identical to the in-memory relational
// engine over the same data.
func TestEnginePrunedScanDifferential(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	mem := relational.New("mem")

	// Ten segments with disjoint key ranges [i*100, i*100+100).
	for i := int64(0); i < 10; i++ {
		part := rowsTable(i*100, i*100+100)
		if err := eng.Append("d", part); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	whole := rowsTable(0, 1000)
	if err := mem.Store("d", whole); err != nil {
		t.Fatal(err)
	}

	preds := []expr.Expr{
		expr.And(expr.Ge(expr.Column("k"), expr.CInt(250)), expr.Lt(expr.Column("k"), expr.CInt(450))),
		expr.Eq(expr.Column("k"), expr.CInt(777)),
		expr.Gt(expr.Column("k"), expr.CInt(899)),
		expr.Lt(expr.CInt(950), expr.Column("k")), // constant on the left
		expr.Eq(expr.Column("s"), expr.CStr("s123")),
	}
	for i, pred := range preds {
		eng.DropCache() // force the cold path every time
		sc, _ := core.NewScan("d", whole.Schema())
		f, err := core.NewFilter(sc, pred)
		if err != nil {
			t.Fatal(err)
		}
		skippedBefore := eng.SegmentsSkipped()
		got, err := eng.Execute(f)
		if err != nil {
			t.Fatalf("pred %d: %v", i, err)
		}
		want, err := mem.Execute(f)
		if err != nil {
			t.Fatalf("pred %d mem: %v", i, err)
		}
		if !table.EqualRows(want, got) {
			t.Fatalf("pred %d: cold pruned scan differs from in-memory result", i)
		}
		if eng.SegmentsSkipped() == skippedBefore {
			t.Fatalf("pred %d: no segments were pruned", i)
		}
	}

	// A non-prunable predicate must still be correct (and skip nothing).
	eng.DropCache()
	sc, _ := core.NewScan("d", whole.Schema())
	f, _ := core.NewFilter(sc, expr.Gt(expr.Column("f"), expr.Column("k")))
	got, err := eng.Execute(f)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mem.Execute(f)
	if !table.EqualRows(want, got) {
		t.Fatal("non-prunable filter differs from in-memory result")
	}
}

// TestEngineWarmMatchesCold pins warm (RAM) and cold (segment) scans to
// identical bytes for a whole-table read.
func TestEngineWarmMatchesCold(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Append("d", rowsTable(0, 300)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append("d", rowsTable(300, 321)); err != nil { // tail rows, WAL only
		t.Fatal(err)
	}
	sc, _ := core.NewScan("d", rowsTable(0, 1).Schema())
	eng.DropCache()
	cold, err := eng.Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !table.EqualRows(cold, warm) || !table.EqualRows(rowsTable(0, 321), cold) {
		t.Fatal("cold/warm scans disagree")
	}
}
