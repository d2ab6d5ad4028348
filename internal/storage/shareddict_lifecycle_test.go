package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nexus/internal/core"
	"nexus/internal/expr"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Shared-dictionary lifecycle: codes are append-only within an epoch
// (so segments written years apart agree on what code 2 means), survive
// crash recovery byte-for-byte, and are only ever reassigned by a
// whole-dataset compaction rewrite — which bumps the epoch so anything
// still holding old codes is refused, not silently misread.

func dictSnapshot(t *testing.T, st *Store, dataset, col string) (uint64, []string) {
	t.Helper()
	d := st.SharedDicts(dataset)[col]
	if d == nil {
		t.Fatalf("dataset %q has no shared dictionary for %q", dataset, col)
	}
	return d.Epoch, append([]string(nil), d.Vals...)
}

func segmentEncodings(t *testing.T, st *Store, dataset string) map[uint8]int {
	t.Helper()
	refs, _, ok := st.Segments(dataset)
	if !ok {
		t.Fatalf("dataset %q missing", dataset)
	}
	counts := map[uint8]int{}
	for _, ref := range refs {
		raw, err := os.ReadFile(filepath.Join(st.Dir(), ref.File))
		if err != nil {
			t.Fatal(err)
		}
		_, es, err := readTable(raw, nil, st.SharedDicts(dataset))
		if err != nil {
			t.Fatalf("%s: %v", ref.File, err)
		}
		for _, ec := range es.Cols {
			counts[ec.Encoding()]++
		}
	}
	return counts
}

// TestSharedDictGrowsAcrossAppends pins the append-only contract: a
// later flush that introduces new values extends the dictionary in
// place — same epoch, existing codes untouched — and segments written
// against the shorter prefix still decode against the grown dictionary.
func TestSharedDictGrowsAcrossAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	mk := func(rows int, tiers []string) *table.Table {
		b := table.NewBuilder(lowCardTable(1).Schema(), rows)
		for i := 0; i < rows; i++ {
			b.MustAppend(value.NewInt(int64(i/9)), value.NewString(tiers[i%len(tiers)]), value.NewFloat(float64(i%3)))
		}
		return b.Build()
	}

	first := mk(100, []string{"gold", "silver"})
	if err := st.Append("d", first); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	epoch1, vals1 := dictSnapshot(t, st, "d", "s")
	if epoch1 != dictEpochFirst {
		t.Fatalf("first epoch = %d, want %d", epoch1, dictEpochFirst)
	}

	second := mk(120, []string{"bronze", "gold", "iron"})
	if err := st.Append("d", second); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	epoch2, vals2 := dictSnapshot(t, st, "d", "s")
	if epoch2 != epoch1 {
		t.Fatalf("append bumped the dict epoch %d -> %d", epoch1, epoch2)
	}
	if len(vals2) <= len(vals1) {
		t.Fatalf("dictionary did not grow: %d -> %d entries", len(vals1), len(vals2))
	}
	for i, v := range vals1 {
		if vals2[i] != v {
			t.Fatalf("code %d reassigned %q -> %q within an epoch", i, v, vals2[i])
		}
	}

	if counts := segmentEncodings(t, st, "d"); counts[PageEncDictShared] == 0 {
		t.Fatalf("no shared-dict pages written (encodings: %v)", counts)
	}

	// Both generations of segments must read back through the one grown
	// dictionary.
	whole, err := first.Concat(second)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Dataset("d")
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	if !table.EqualRows(whole, got) {
		t.Fatal("rows changed after dictionary growth")
	}
}

// TestSharedDictSurvivesCrashRecovery freezes the store's directory
// mid-life — flushed segments plus a WAL tail, exactly what a SIGKILL
// leaves — and reopens the copy: WAL replay must restore the same rows
// and the dictionary with identical codes and epoch, so pre-crash
// segments remain readable.
func TestSharedDictSurvivesCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.Append("d", lowCardTable(130)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	// Tail rows live only in the WAL at crash time.
	tail := lowCardTable(40)
	if err := st.Append("d", tail); err != nil {
		t.Fatal(err)
	}
	epoch0, vals0 := dictSnapshot(t, st, "d", "s")
	want, ok, err := st.Dataset("d")
	if err != nil || !ok {
		t.Fatalf("pre-crash read: ok=%v err=%v", ok, err)
	}

	// The crash image: every durable byte as it sits right now, with the
	// original store still open (nothing it would write on Close may be
	// required for recovery).
	img := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st2, err := Open(img)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st2.Close()
	epoch1, vals1 := dictSnapshot(t, st2, "d", "s")
	if epoch1 != epoch0 {
		t.Fatalf("recovery changed dict epoch %d -> %d", epoch0, epoch1)
	}
	if len(vals1) != len(vals0) {
		t.Fatalf("recovery changed dict size %d -> %d", len(vals0), len(vals1))
	}
	for i := range vals0 {
		if vals1[i] != vals0[i] {
			t.Fatalf("recovery reassigned code %d: %q -> %q", i, vals0[i], vals1[i])
		}
	}
	got, ok, err := st2.Dataset("d")
	if err != nil || !ok {
		t.Fatalf("post-recovery read: ok=%v err=%v", ok, err)
	}
	if !table.EqualRows(want, got) {
		t.Fatal("rows differ after WAL replay")
	}
}

// TestCompactionRebuildBumpsDictEpoch pins the one legal reassignment
// point: a clustering rewrite starts fresh dictionaries at epoch+1, and
// segments encoded against the old epoch are refused with the stale-
// dictionary error rather than misread through the new code space.
func TestCompactionRebuildBumpsDictEpoch(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for i := 0; i < 3; i++ {
		if err := st.Append("d", lowCardTable(100)); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	epoch0, _ := dictSnapshot(t, st, "d", "s")
	want, _, err := st.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}

	// Keep one pre-rewrite segment's bytes: after the rebuild its codes
	// belong to a dead epoch.
	refs, _, _ := st.Segments("d")
	oldRaw, err := os.ReadFile(filepath.Join(dir, refs[0].File))
	if err != nil {
		t.Fatal(err)
	}

	stats, err := st.Compact(CompactOptions{ClusterBy: map[string]string{"d": "s"}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Merged == 0 {
		t.Fatalf("clustering rewrite merged nothing: %+v", stats)
	}
	epoch1, _ := dictSnapshot(t, st, "d", "s")
	if epoch1 != epoch0+1 {
		t.Fatalf("rewrite moved epoch %d -> %d, want %d", epoch0, epoch1, epoch0+1)
	}

	// Old-epoch segment vs new dictionaries: refused as stale.
	if _, _, err := readTable(oldRaw, nil, st.SharedDicts("d")); !isStaleDict(err) {
		t.Fatalf("old-epoch segment decoded as %v, want stale-dict refusal", err)
	}

	// The rewritten dataset still holds the same multiset of rows (order
	// changed by clustering), readable through the new dictionary.
	got, _, err := st.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("rewrite changed row count %d -> %d", want.NumRows(), got.NumRows())
	}
	if !table.EqualRows(sortRows(want), sortRows(got)) {
		t.Fatal("rewrite changed row contents")
	}
}

// sortRows returns the table's rows in a canonical order (by encoded
// key of the whole row) for order-insensitive comparison.
func sortRows(tbl *table.Table) *table.Table {
	n := tbl.NumRows()
	keys := make([]string, n)
	idx := make([]int, n)
	for r := 0; r < n; r++ {
		var buf []byte
		for c := 0; c < tbl.NumCols(); c++ {
			buf = value.AppendKey(buf, tbl.Value(r, c))
		}
		keys[r] = string(buf)
		idx[r] = r
	}
	for i := 1; i < n; i++ { // insertion sort: test-sized inputs
		for j := i; j > 0 && keys[idx[j]] < keys[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	b := table.NewBuilder(tbl.Schema(), n)
	row := make([]value.Value, tbl.NumCols())
	for _, r := range idx {
		for c := range row {
			row[c] = tbl.Value(r, c)
		}
		b.MustAppend(row...)
	}
	return b.Build()
}

// TestCompactionReChoosesEncodings pins the satellite fix: segments
// flushed as under-64-row plain pages must come out of a merge with the
// encodings the merged shape earns — RLE for the clustered key, shared
// dict for the low-cardinality strings — not the inputs' plain pages.
func TestCompactionReChoosesEncodings(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// 8 segments × 20 rows: every page plain (below the 64-row floor).
	for i := 0; i < 8; i++ {
		if err := st.Append("d", lowCardTable(20)); err != nil {
			t.Fatal(err)
		}
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := segmentEncodings(t, st, "d")
	if len(before) != 1 || before[PageEncPlain] == 0 {
		t.Fatalf("seed segments should be all-plain, got %v", before)
	}

	if _, err := st.Compact(CompactOptions{ClusterBy: map[string]string{"d": "s"}}); err != nil {
		t.Fatal(err)
	}
	after := segmentEncodings(t, st, "d")
	// 160 rows sorted by s: the string column runs in 4 blocks (RLE),
	// k/f have few distinct values (dict family). Nothing should need to
	// stay plain, but the load-bearing claim is that non-plain encodings
	// appear at all.
	if after[PageEncRLE] == 0 {
		t.Fatalf("merge did not re-choose RLE for the clustered column: %v", after)
	}
	if after[PageEncDict]+after[PageEncDictShared] == 0 {
		t.Fatalf("merge did not re-choose dictionary encodings: %v", after)
	}
}

// TestEncodedExecCompactionRaceSoak runs encoded scans and aggregates
// against continuous append/flush/compact churn. Run with -race: the
// assertions are "no data race, no error, no stale result escapes" —
// readSnapshot retries stale-dict refusals internally, so readers must
// never observe one.
func TestEncodedExecCompactionRaceSoak(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(17))
	var next int64
	if err := eng.Append("d", genDiffTable(rng, 200, &next)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	sch := diffSchema()

	mkScan := func() core.Node {
		sc, _ := core.NewScan("d", sch)
		f, _ := core.NewFilter(sc, expr.Eq(expr.Column("tier"), expr.CStr("gold")))
		p, _ := core.NewProject(f, []string{"id", "tier"})
		return p
	}
	mkAgg := func() core.Node {
		sc, _ := core.NewScan("d", sch)
		f, _ := core.NewFilter(sc, expr.Gt(expr.Column("bucket"), expr.CInt(1)))
		g, _ := core.NewGroupAgg(f, []string{"tier"}, []core.AggSpec{
			{Func: core.AggCount, As: "n"},
			{Func: core.AggSum, Arg: expr.Column("score"), As: "s"},
		})
		return g
	}

	const readers = 4
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := eng.Execute(mkScan()); err != nil {
					errs <- err
					return
				}
				if _, err := eng.Execute(mkAgg()); err != nil {
					errs <- err
					return
				}
				if i%10 == 0 {
					eng.DropCache()
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(19))
		var wnext int64 = 1 << 20
		for i := 0; i < 15; i++ {
			if err := eng.Append("d", genDiffTable(wrng, 64, &wnext)); err != nil {
				errs <- err
				return
			}
			if err := eng.Flush(); err != nil {
				errs <- err
				return
			}
			if i%3 == 2 {
				if _, err := eng.Compact(CompactOptions{ClusterBy: map[string]string{"d": "tier"}}); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("soak: %v", err)
	}
	if eng.EncodedScans() == 0 && eng.EncodedAggs() == 0 {
		t.Fatal("soak never exercised the encoded paths")
	}
}
