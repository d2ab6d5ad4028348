package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/errfs"
	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/table"
	"nexus/internal/value"
)

// Background flush: a flush seals the tails and rotates the WAL under
// the store lock, writes the sealed prefixes with no store lock held,
// and commits the manifest plus the tail trim under the lock again.
// These tests pin what writes between the seal and the commit see, what
// a failed flush keeps, and what a crash between the two recovers.

// storeOp is one step of a scripted store history.
type storeOp struct {
	name string
	do   func(st *Store) error
}

func opAppend(ds string, lo, hi int64) storeOp {
	return storeOp{fmt.Sprintf("append %s[%d,%d)", ds, lo, hi), func(st *Store) error { return st.Append(ds, rowsTable(lo, hi)) }}
}

func opReplace(ds string, t *table.Table) storeOp {
	return storeOp{fmt.Sprintf("replace %s (%d rows)", ds, t.NumRows()), func(st *Store) error { return st.Replace(ds, t) }}
}

func opDrop(ds string) storeOp {
	return storeOp{"drop " + ds, func(st *Store) error { return st.Drop(ds) }}
}

// wideTable is rows of a schema other than rowsTable's, so a replace or
// a recreate after drop changes the dataset's schema.
func wideTable(lo, hi int64) *table.Table {
	b := table.NewBuilder(schema.New(
		schema.Attribute{Name: "id", Kind: value.KindInt64},
		schema.Attribute{Name: "on", Kind: value.KindBool},
	), int(hi-lo))
	for i := lo; i < hi; i++ {
		b.MustAppend(value.NewInt(i), value.NewBool(i%2 == 0))
	}
	return b.Build()
}

// storeState renders everything a reader can observe of the named
// datasets: the catalog listing, and per dataset its order epoch,
// schema and contents.
func storeState(t *testing.T, st *Store, names []string) string {
	t.Helper()
	var b strings.Builder
	ds := st.Datasets()
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
	for _, d := range ds {
		fmt.Fprintf(&b, "listed %s %v rows=%d\n", d.Name, d.Schema, d.Rows)
	}
	for _, n := range names {
		sch, ok := st.Schema(n)
		fmt.Fprintf(&b, "%s: epoch=%d schema=%v ok=%v", n, st.OrderEpoch(n), sch, ok)
		tbl, ok, err := st.Dataset(n)
		if err != nil {
			t.Fatalf("read %s: %v", n, err)
		}
		if ok {
			fmt.Fprintf(&b, " rows=%d sum=%x", tbl.NumRows(), tbl.OrderedChecksum())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func runOps(t *testing.T, st *Store, ops []storeOp) {
	t.Helper()
	for _, op := range ops {
		if err := op.do(st); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
}

func walFiles(t *testing.T, dir string) (wals, manifests int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		switch name := ent.Name(); {
		case strings.HasPrefix(name, "wal-"):
			wals++
		case strings.HasPrefix(name, "MANIFEST-"):
			manifests++
		}
	}
	return wals, manifests
}

// TestSealBoundarySemantics splits a flush at its seal and runs appends,
// replaces, drops and drop + recreate before its commit. After every
// step — the seal, each write, the commit, each later write — order
// epochs, schemas, the catalog listing and the contents equal those of
// the same history on a store that never flushed, and after the commit
// also those of the history with a synchronous flush at the seal point;
// after reopening, they are equal again. The one exception is a dataset
// the sealed prefix dropped: the commit takes it out of the manifest,
// so from then on its recreation restarts the epoch exactly as after a
// synchronous flush, and only that history is compared against.
func TestSealBoundarySemantics(t *testing.T) {
	names := []string{"d", "e", "f"}
	base := []storeOp{opAppend("d", 0, 10), opAppend("e", 0, 5)}
	cases := []struct {
		name          string
		pre, mid, end []storeOp
		sealedDrop    bool // the sealed prefix drops a dataset the mid steps recreate
	}{
		{name: "append",
			pre: []storeOp{opAppend("d", 10, 20)},
			mid: []storeOp{opAppend("d", 20, 30), opAppend("e", 5, 8)},
			end: []storeOp{opAppend("d", 30, 35)}},
		{name: "replace",
			pre: []storeOp{opAppend("d", 10, 20)},
			mid: []storeOp{opReplace("d", wideTable(0, 4))},
			end: []storeOp{{"append wide", func(st *Store) error { return st.Append("d", wideTable(4, 6)) }}}},
		{name: "drop",
			pre: []storeOp{opAppend("d", 10, 20)},
			mid: []storeOp{opDrop("d")},
			end: []storeOp{opAppend("e", 5, 6)}},
		{name: "drop+append",
			pre: []storeOp{opAppend("d", 10, 20)},
			mid: []storeOp{opDrop("d"), {"recreate wide", func(st *Store) error { return st.Append("d", wideTable(0, 3)) }}},
			end: []storeOp{{"append wide", func(st *Store) error { return st.Append("d", wideTable(3, 5)) }}}},
		{name: "sealed replace, then append",
			pre: []storeOp{opReplace("d", rowsTable(100, 110))},
			mid: []storeOp{opAppend("d", 110, 120)},
			end: []storeOp{opReplace("d", rowsTable(0, 2))}},
		{name: "new dataset",
			pre: []storeOp{opAppend("f", 0, 4)},
			mid: []storeOp{opAppend("f", 4, 8), opDrop("e")},
			end: []storeOp{opAppend("e", 40, 41)}},
		{name: "sealed drop, then recreate", sealedDrop: true,
			pre: []storeOp{opAppend("d", 10, 20), opDrop("d")},
			mid: []storeOp{opAppend("d", 50, 60)},
			end: []storeOp{opReplace("d", rowsTable(0, 2))}},
		{name: "sealed drop, then replace", sealedDrop: true,
			pre: []storeOp{opDrop("d")},
			mid: []storeOp{opReplace("d", rowsTable(50, 60)), opAppend("d", 60, 61)},
			end: []storeOp{opDrop("d"), opAppend("d", 0, 1)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			splitDir := t.TempDir()
			stores := make([]*Store, 3) // split, never flushed, flushed at the seal point
			for i := range stores {
				dir := splitDir
				if i > 0 {
					dir = t.TempDir()
				}
				st, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				runOps(t, st, base)
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
				runOps(t, st, c.pre)
				stores[i] = st
			}
			split, never, atomic := stores[0], stores[1], stores[2]
			if err := atomic.Flush(); err != nil {
				t.Fatal(err)
			}
			committed := false
			same := func(step string) {
				t.Helper()
				got := storeState(t, split, names)
				for i, ref := range []*Store{never, atomic} {
					if i == 0 && committed && c.sealedDrop || i == 1 && !committed {
						continue
					}
					if want := storeState(t, ref, names); got != want {
						t.Fatalf("after %s:\nsplit flush:\n%s\nreference %d:\n%s", step, got, i, want)
					}
				}
			}
			both := func(op storeOp) {
				t.Helper()
				for _, st := range stores {
					if err := op.do(st); err != nil {
						t.Fatalf("%s: %v", op.name, err)
					}
				}
			}

			split.flushmu.Lock()
			seal, retired, err := split.seal()
			if err != nil || seal == nil {
				split.flushmu.Unlock()
				t.Fatalf("seal: %v (sealed %d tails)", err, len(seal))
			}
			same("seal")
			for _, op := range c.mid {
				for _, st := range stores {
					if err := op.do(st); err != nil {
						split.flushmu.Unlock()
						t.Fatalf("%s: %v", op.name, err)
					}
				}
				same(op.name + " between seal and commit")
			}
			err = split.finishFlush(seal, retired)
			split.flushmu.Unlock()
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed = true
			same("commit")
			if wals, _ := walFiles(t, splitDir); wals != 1 {
				t.Fatalf("commit left %d WAL generations, want 1", wals)
			}
			for _, op := range c.end {
				both(op)
				same(op.name + " after commit")
			}

			// Reopen: first the split store alone, abandoned without a
			// final flush (the crash shape: its WAL replays over the
			// committed generation), then every store after a clean close.
			split.mu.Lock()
			split.closed = true
			split.wal.Close()
			split.mu.Unlock()
			if stores[0], err = Open(splitDir); err != nil {
				t.Fatal(err)
			}
			split = stores[0]
			same("reopen of the abandoned store")
			for i, st := range stores {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if stores[i], err = Open(st.Dir()); err != nil {
					t.Fatal(err)
				}
			}
			split, never, atomic = stores[0], stores[1], stores[2]
			same("close and reopen")
			for _, st := range stores {
				st.Close()
			}
		})
	}
}

// waitFlushIdle waits for the running background flush, if any.
func waitFlushIdle(st *Store) {
	st.mu.Lock()
	done := st.flushDone
	st.mu.Unlock()
	if done != nil {
		<-done
	}
}

// appendUntilFlush appends 10-row batches from *next on until an
// append has started a background flush, and returns with that flush
// finished.
func appendUntilFlush(t *testing.T, st *Store, next *int64) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if err := st.Append("d", rowsTable(*next, *next+10)); err != nil {
			t.Fatalf("append [%d,+10): %v", *next, err)
		}
		*next += 10
		st.mu.Lock()
		started := st.flushDone != nil
		st.mu.Unlock()
		if started {
			waitFlushIdle(st)
			return
		}
	}
	t.Fatal("no background flush started")
}

// TestFailedBackgroundFlushKeepsRows fails the segment write of every
// background flush: appends keep being acked, the sealed rows stay in
// the tail and their WAL on disk, Health reports the failure while it
// stands, and the next Flush commits the old prefix together with the
// newer rows. Reopen returns exactly the acked rows.
func TestFailedBackgroundFlushKeepsRows(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.FlushBytes = 4 << 10
	var next int64
	appendUntilFlush(t, st, &next) // one healthy flush first
	if err := st.Health(); err != nil {
		t.Fatalf("healthy flush reported %v", err)
	}
	refs0, _, _ := st.Segments("d")
	var segRows int64
	for _, ref := range refs0 {
		segRows += ref.Meta.Rows
	}

	injected := errors.New("injected segment write failure")
	fl := &errfs.Faults{}
	fl.FailWrites(injected)
	remove := errfs.Install(filepath.Join(dir, ".tmp-seg-"), fl)
	defer remove()
	appendUntilFlush(t, st, &next)
	if fl.WriteFaults.Load() == 0 {
		t.Fatal("the background flush never reached the segment write")
	}
	if err := st.Health(); err == nil || !errors.Is(err, injected) {
		t.Fatalf("Health after a failed flush = %v, want the injected error", err)
	}
	if wals, _ := walFiles(t, dir); wals < 2 {
		t.Fatalf("the failed flush's WAL is gone: %d WAL files", wals)
	}
	for i := 0; i < 20; i++ { // appends keep being acked, more flushes fail
		if err := st.Append("d", rowsTable(next, next+10)); err != nil {
			t.Fatalf("append while flushes fail: %v", err)
		}
		next += 10
	}
	waitFlushIdle(st)
	refs, parts, _ := st.Segments("d")
	if len(refs) != len(refs0) {
		t.Fatalf("a failed flush changed the segments: %d, had %d", len(refs), len(refs0))
	}
	var tailRows int64
	for _, p := range parts {
		tailRows += int64(p.NumRows())
	}
	if tailRows != next-segRows {
		t.Fatalf("tail holds %d rows, want the %d rows no flush committed", tailRows, next-segRows)
	}
	got, _, err := st.Dataset("d")
	if err != nil || !table.EqualRows(rowsTable(0, next), got) {
		t.Fatalf("rows while flushes fail differ from the acked rows (err %v)", err)
	}

	fl.FailWrites(nil)
	if err := st.Flush(); err != nil {
		t.Fatalf("flush after the fault cleared: %v", err)
	}
	if err := st.Health(); err != nil {
		t.Fatalf("Health after a successful flush = %v", err)
	}
	if _, parts, _ := st.Segments("d"); len(parts) != 0 {
		t.Fatalf("%d tail parts survive the retried flush", len(parts))
	}
	if wals, manifests := walFiles(t, dir); wals != 1 || manifests != 1 {
		t.Fatalf("retried flush left %d WALs, %d manifests; want 1 and 1", wals, manifests)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, ok, err := st.Dataset("d")
	if err != nil || !ok || !table.EqualRows(rowsTable(0, next), got) {
		t.Fatalf("reopen differs from the %d acked rows (ok %v, err %v)", next, ok, err)
	}
}

// TestCloseWaitsForBackgroundFlush closes a store while a slowed
// background flush is in flight: Close returns only after it finished
// and leaves no goroutine behind.
func TestCloseWaitsForBackgroundFlush(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.FlushBytes = 4 << 10
	baseline := runtime.NumGoroutine()
	fl := &errfs.Faults{SyncDelay: 50 * time.Millisecond}
	remove := errfs.Install(filepath.Join(dir, ".tmp-seg-"), fl)
	defer remove()
	var next int64
	for inFlight := false; !inFlight; {
		if err := st.Append("d", rowsTable(next, next+10)); err != nil {
			t.Fatal(err)
		}
		next += 10
		st.mu.Lock()
		inFlight = st.flushDone != nil
		st.mu.Unlock()
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st.mu.Lock()
	running := st.flushDone != nil
	st.mu.Unlock()
	if running {
		t.Fatal("Close returned with a background flush still running")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("%d goroutines after Close, %d before the flush", got, baseline)
	}
	remove()
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, ok, err := st.Dataset("d")
	if err != nil || !ok || !table.EqualRows(rowsTable(0, next), got) {
		t.Fatalf("reopen differs from the %d acked rows (ok %v, err %v)", next, ok, err)
	}
}

// TestBackgroundFlushSoak runs one appender (whose appends start the
// background flushes), a compactor and key-range readers side by side.
// Every range below the acked watermark must return exactly its rows —
// no row twice (from a segment and a tail part both) and none missing —
// through the pruned scan and the encoded count alike.
func TestBackgroundFlushSoak(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.FlushBytes = 8 << 10
	eng := NewEngine("disk", st)
	sch := rowsTable(0, 1).Schema()
	const batch = 10
	appends := 400
	if testing.Short() {
		appends = 100
	}
	var acked atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)

	wg.Add(1)
	go func() { // compactor
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if _, err := eng.Compact(CompactOptions{ClusterBy: map[string]string{"d": "k"}, TargetBytes: 64 << 10}); err != nil {
				errs <- fmt.Errorf("compact: %w", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) { // key-range reader
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				hi := acked.Load()
				if hi == 0 {
					runtime.Gosched()
					continue
				}
				lo := rng.Int63n(hi)
				hi = lo + 1 + rng.Int63n(min(hi-lo, 64))
				if err := checkRange(eng, sch, lo, hi); err != nil {
					errs <- err
					return
				}
			}
		}(int64(r + 1))
	}

	for i := int64(0); i < int64(appends); i++ {
		if err := eng.Append("d", rowsTable(i*batch, i*batch+batch)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		acked.Store(i*batch + batch)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, ok, err := st.Dataset("d")
	if err != nil || !ok || !table.EqualRows(rowsTable(0, acked.Load()), got) {
		t.Fatalf("reopen differs from the %d acked rows (ok %v, err %v)", acked.Load(), ok, err)
	}
}

// checkRange reads keys [lo, hi) through the pruned scan and the encoded
// aggregate and requires each key exactly once.
func checkRange(eng *Engine, sch schema.Schema, lo, hi int64) error {
	pred := expr.And(expr.Ge(expr.Column("k"), expr.CInt(lo)), expr.Lt(expr.Column("k"), expr.CInt(hi)))
	sc, _ := core.NewScan("d", sch)
	f, err := core.NewFilter(sc, pred)
	if err != nil {
		return err
	}
	got, err := eng.Execute(f)
	if err != nil {
		return fmt.Errorf("scan [%d,%d): %w", lo, hi, err)
	}
	keys := append([]int64(nil), got.Col(0).Ints()...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if int64(len(keys)) != hi-lo {
		return fmt.Errorf("scan [%d,%d): %d rows, want %d", lo, hi, len(keys), hi-lo)
	}
	for i, k := range keys {
		if k != lo+int64(i) {
			return fmt.Errorf("scan [%d,%d): key %d at position %d", lo, hi, k, i)
		}
	}
	g, err := core.NewGroupAgg(f, nil, []core.AggSpec{{Func: core.AggCount, As: "n"}})
	if err != nil {
		return err
	}
	cnt, err := eng.Execute(g)
	if err != nil {
		return fmt.Errorf("count [%d,%d): %w", lo, hi, err)
	}
	if n := cnt.Value(0, 0); n.Int() != hi-lo {
		return fmt.Errorf("count [%d,%d) = %v, want %d", lo, hi, n, hi-lo)
	}
	return nil
}

// TestCrashRecoverMidBackgroundFlush kills a writer whose tiny flush
// threshold keeps background flushes running while it appends, so the
// SIGKILL lands between seals and commits. Recovery replays the WAL
// chain, finishes the flush, and returns every acked row, byte-identical
// and in order, under one manifest and one WAL generation.
func TestCrashRecoverMidBackgroundFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	chains := 0
	for round, minAcks := range []int{30, 45, 60, 75} {
		dir := t.TempDir()
		acked := runCrashChild(t, dir, "bgflush", minAcks)
		if wals, _ := walFiles(t, dir); wals > 1 {
			chains++
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("round %d: reopen after SIGKILL: %v", round, err)
		}
		got, ok, err := st.Dataset("d")
		if err != nil || !ok {
			t.Fatalf("round %d: dataset d after recovery: ok=%v err=%v", round, ok, err)
		}
		rows := int64(got.NumRows())
		if committed := (acked + 1) * 10; rows < committed {
			t.Fatalf("round %d: lost acked rows: recovered %d, acked %d", round, rows, committed)
		}
		if rows%10 != 0 || !table.EqualRows(rowsTable(0, rows), got) {
			t.Fatalf("round %d: recovered rows are not the written rows in order", round)
		}
		if wals, manifests := walFiles(t, dir); wals != 1 || manifests != 1 {
			t.Fatalf("round %d: recovery left %d WALs, %d manifests; want 1 and 1", round, wals, manifests)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d of 4 kills left a WAL chain behind", chains)
}
