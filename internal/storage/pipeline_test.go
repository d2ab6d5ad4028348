package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/expr"
	"nexus/internal/table"
)

// The per-segment read pipeline under failure and under concurrency.

// pipelinePlans returns one plan per engine read path over dataset "d"
// of rowsTable's schema, each selecting exactly the rows with k < below:
// a projected filtered scan and a full-width filtered scan (accessTable,
// encoded pre-filter over some or every column) and a global count under
// the same filter (aggTable).
func pipelinePlans(t *testing.T, below int64) (scans []core.Node, count core.Node) {
	t.Helper()
	sch := rowsTable(0, 1).Schema()
	filtered := func() core.Node {
		sc, _ := core.NewScan("d", sch)
		f, err := core.NewFilter(sc, expr.Lt(expr.Column("k"), expr.CInt(below)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	proj, err := core.NewProject(filtered(), []string{"k", "f"})
	if err != nil {
		t.Fatal(err)
	}
	count, err = core.NewGroupAgg(filtered(), nil, []core.AggSpec{{Func: core.AggCount, As: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	return []core.Node{proj, filtered()}, count
}

// TestFailedScanLeavesNoGoroutines deletes a segment file out from
// under the catalog, so every attempt of every read path fails part-way
// through its segments (the first error must cancel the rest, and
// readSnapshot re-runs the body up to its retry limit). When Execute
// returns, every worker of every attempt must have exited.
func TestFailedScanLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir := t.TempDir()
	eng, err := OpenEngine("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i := int64(0); i < 8; i++ {
		if err := eng.Append("d", rowsTable(i*100, i*100+100)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	scans, count := pipelinePlans(t, 1<<40)
	sc, _ := core.NewScan("d", rowsTable(0, 1).Schema())
	plans := append(scans, count, sc)
	for _, plan := range plans { // control: everything reads while the files exist
		eng.DropCache()
		if _, err := eng.Execute(plan); err != nil {
			t.Fatalf("control: %v", err)
		}
	}
	refs, _, _ := eng.Backing().Segments("d")
	if err := os.Remove(filepath.Join(dir, refs[5].File)); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		for i, plan := range plans {
			eng.DropCache()
			if _, err := eng.Execute(plan); err == nil {
				t.Fatalf("plan %d read a dataset with a deleted segment file", i)
			}
		}
	}
	// Workers are joined before Execute returns; the short wait only
	// lets goroutines the runtime itself parked (GC workers) settle.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after failed scans, %d before:\n%s", got, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestBareScanReportsReadError corrupts the last page of a flushed
// segment: a cold whole-dataset scan must fail with the storage error
// naming the checksum, not report the dataset as unknown.
func TestBareScanReportsReadError(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine("disk", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Append("d", rowsTable(0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	refs, _, _ := eng.Backing().Segments("d")
	path := filepath.Join(dir, refs[0].File)
	data := mustReadFile(t, path)
	data[len(data)-10] ^= 0xff // inside the last page, before its CRC
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	eng.DropCache()
	sc, _ := core.NewScan("d", rowsTable(0, 1).Schema())
	if _, err := eng.Execute(sc); err == nil || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("scan over a corrupt segment: got %v, want a crc mismatch", err)
	}
}

// TestWorkGroupContainsPanics: a task that panics — here on the caller
// and on a worker goroutine at once — fails forEach with an error
// carrying the panic value and stack instead of killing the process, and
// every worker has exited when forEach returns.
func TestWorkGroupContainsPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	baseline := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		var started sync.WaitGroup
		started.Add(2)
		err := newWorkGroup().forEach(2, func(i int) error {
			started.Done()
			started.Wait() // both tasks run at once, so one is on a worker
			panic(fmt.Sprintf("task %d exploded", i))
		})
		if err == nil || !strings.Contains(err.Error(), "exploded") || !strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("round %d: forEach returned %v, want the panic value and stack", round, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("%d goroutines after panicking tasks, %d before", got, baseline)
	}
}

// TestColdScanSoak races concurrent cold reads of every path against
// cache drops and compaction swaps (run it under -race). Rows with
// k < 400 are loaded up front and never change, so whichever snapshot a
// read lands on — before or after a swap, mid-append — must yield
// exactly those rows.
func TestColdScanSoak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	eng, err := OpenEngine("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const stable = 400
	for i := int64(0); i < 4; i++ {
		if err := eng.Append("d", rowsTable(i*100, i*100+100)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	scans, count := pipelinePlans(t, stable)
	want := make([]*table.Table, len(scans))
	for i, plan := range scans {
		if want[i], err = eng.Execute(plan); err != nil {
			t.Fatal(err)
		}
		if want[i].NumRows() != stable {
			t.Fatalf("scan %d returned %d rows before the soak, want %d", i, want[i].NumRows(), stable)
		}
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	background := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				fn()
			}
		}()
	}
	background(func() { eng.DropCache(); runtime.Gosched() })
	next := int64(stable)
	var swaps atomic.Int64
	background(func() {
		// Two more small segments, then a compaction that merges every
		// segment and deletes the files readers may be holding.
		for i := 0; i < 2; i++ {
			if err := eng.Append("d", rowsTable(next, next+50)); err != nil {
				t.Error(err)
			}
			next += 50
			if err := eng.Flush(); err != nil {
				t.Error(err)
			}
		}
		stats, err := eng.Compact(CompactOptions{ClusterBy: map[string]string{"d": "k"}})
		if err != nil {
			t.Error(err)
		}
		if stats.Merged > 0 {
			swaps.Add(1)
		}
	})

	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			// At least 40 rounds, and on until three swaps have happened
			// under the readers (bounded, should the compactor starve).
			for round := 0; round < 40 || (swaps.Load() < 3 && round < 4000); round++ {
				i := (w + round) % len(scans)
				got, err := eng.Execute(scans[i])
				if err != nil {
					t.Errorf("reader %d round %d: %v", w, round, err)
					return
				}
				if !table.EqualUnordered(want[i], got) {
					t.Errorf("reader %d round %d: scan %d returned %d rows that are not the stable %d", w, round, i, got.NumRows(), stable)
					return
				}
				n, err := eng.Execute(count)
				if err != nil {
					t.Errorf("reader %d round %d: count: %v", w, round, err)
					return
				}
				if n.NumRows() != 1 || n.Value(0, 0).Int() != stable {
					t.Errorf("reader %d round %d: count = %v, want %d", w, round, n.Value(0, 0), stable)
					return
				}
			}
		}(w)
	}
	readers.Wait()
	stop.Store(true)
	wg.Wait()
	if swaps.Load() == 0 || eng.EncodedScans() == 0 || eng.EncodedAggs() == 0 {
		t.Fatalf("soak ran vacuously: %d swaps, %d encoded scans, %d encoded aggregates",
			swaps.Load(), eng.EncodedScans(), eng.EncodedAggs())
	}
}
