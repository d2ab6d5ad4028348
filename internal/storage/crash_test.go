package storage

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"nexus/internal/table"
)

// SIGKILL crash tests: a child process (this test binary re-executed
// with -test.run=TestCrashHelper and a mode in the environment) writes
// to a store and prints an ACK line after each committed operation. The
// parent kills it with SIGKILL mid-write, reopens the directory, and
// asserts that everything acked survived — and that what survived is
// byte-identical to what was written.

// TestCrashHelper is the child-process entry point. Without the mode
// variable it is skipped, so a normal test run never enters it.
func TestCrashHelper(t *testing.T) {
	mode := os.Getenv("NEXUS_CRASH_MODE")
	if mode == "" {
		t.Skip("crash helper (only runs re-executed)")
	}
	dir := os.Getenv("NEXUS_CRASH_DIR")
	switch mode {
	case "append":
		st, err := Open(dir)
		if err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		// Small flush threshold so the kill also lands around segment
		// flushes and manifest swaps, not only WAL appends.
		st.FlushBytes = 4 << 10
		for i := int64(0); i < 100000; i++ {
			if err := st.Append("d", rowsTable(i*10, i*10+10)); err != nil {
				fmt.Println("ERR", err)
				os.Exit(1)
			}
			fmt.Println("ACK", i)
		}
	case "ckpt":
		st, err := Open(dir)
		if err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		for i := int64(0); i < 1000000; i++ {
			payload := []byte(strings.Repeat(fmt.Sprintf("payload-%06d;", i), 64))
			if err := st.SaveCheckpoint("job", payload); err != nil {
				fmt.Println("ERR", err)
				os.Exit(1)
			}
			fmt.Println("ACK", i)
		}
	case "compact":
		st, err := Open(dir)
		if err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		// Tiny flush threshold: every few appends seals a small segment,
		// and every third batch runs a compaction pass — so the SIGKILL
		// lands inside merges, manifest writes and CURRENT swaps, not
		// only WAL appends.
		st.FlushBytes = 2 << 10
		for i := int64(0); i < 100000; i++ {
			if err := st.Append("d", rowsTable(i*10, i*10+10)); err != nil {
				fmt.Println("ERR", err)
				os.Exit(1)
			}
			if i%3 == 2 {
				if _, err := st.Compact(CompactOptions{ClusterBy: map[string]string{"d": "k"}}); err != nil {
					fmt.Println("ERR", err)
					os.Exit(1)
				}
			}
			fmt.Println("ACK", i)
		}
	case "bgflush":
		st, err := Open(dir)
		if err != nil {
			fmt.Println("ERR", err)
			os.Exit(1)
		}
		// Tiny flush threshold and no explicit flush: every flush runs in
		// the background while the appends go on, so the SIGKILL lands
		// between seals and commits, not only in WAL appends.
		st.FlushBytes = 2 << 10
		for i := int64(0); i < 100000; i++ {
			if err := st.Append("d", rowsTable(i*10, i*10+10)); err != nil {
				fmt.Println("ERR", err)
				os.Exit(1)
			}
			fmt.Println("ACK", i)
		}
	default:
		fmt.Println("ERR unknown mode", mode)
		os.Exit(1)
	}
}

// TestCrashRecoverMidCompaction kills a writer whose every third batch
// triggers a compaction pass, so the SIGKILL lands in the middle of
// segment merges and manifest generation swaps. Recovery must expose a
// consistent generation — pre- or post-compaction — holding every acked
// row, byte-identical to what was written (the clustering key is the
// append order, so even merged generations keep the global row order).
func TestCrashRecoverMidCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	acked := runCrashChild(t, dir, "compact", 25)

	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after SIGKILL mid-compaction: %v", err)
	}
	defer st.Close()
	got, ok, err := st.Dataset("d")
	if err != nil || !ok {
		t.Fatalf("dataset d after recovery: ok=%v err=%v", ok, err)
	}
	committed := (acked + 1) * 10
	rows := int64(got.NumRows())
	if rows < committed {
		t.Fatalf("lost committed rows across compaction crash: recovered %d, acked %d", rows, committed)
	}
	if rows%10 != 0 {
		t.Fatalf("recovered a torn batch: %d rows", rows)
	}
	if !table.EqualRows(rowsTable(0, rows), got) {
		t.Fatal("recovered rows are not byte-identical to what was written")
	}
	// Recovery settled on exactly one manifest and one WAL generation.
	entries, _ := os.ReadDir(dir)
	var manifests, wals int
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasPrefix(name, "MANIFEST-") {
			manifests++
		}
		if strings.HasPrefix(name, "wal-") {
			wals++
		}
	}
	if manifests != 1 || wals != 1 {
		t.Fatalf("recovery left %d manifests, %d wals; want 1 and 1", manifests, wals)
	}
}

// runCrashChild re-executes the test binary in the given mode, waits
// for minAcks acked operations, SIGKILLs it, and returns the highest
// acked sequence number.
func runCrashChild(t *testing.T, dir, mode string, minAcks int) int64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "NEXUS_CRASH_MODE="+mode, "NEXUS_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	acked := int64(-1)
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "ERR") {
			cmd.Process.Kill()
			t.Fatalf("crash child failed: %s", line)
		}
		if strings.HasPrefix(line, "ACK ") {
			n, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "ACK ")), 10, 64)
			acked = n
			if acked >= int64(minAcks-1) {
				break
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("crash child made no progress")
		}
	}
	// SIGKILL, no warning: the child gets no chance to flush anything.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if acked < int64(minAcks-1) {
		t.Fatalf("child acked only %d operations", acked+1)
	}
	return acked
}

// TestCrashRecoverMidAppend kills the writer mid-append and asserts
// zero committed-row loss with byte-identical contents.
func TestCrashRecoverMidAppend(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	acked := runCrashChild(t, dir, "append", 25)

	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer st.Close()
	got, ok, err := st.Dataset("d")
	if err != nil || !ok {
		t.Fatalf("dataset d after recovery: ok=%v err=%v", ok, err)
	}
	committed := (acked + 1) * 10
	rows := int64(got.NumRows())
	// Every acked row must be present; rows beyond the last ack may have
	// committed in the instant before the kill.
	if rows < committed {
		t.Fatalf("lost committed rows: recovered %d, acked %d", rows, committed)
	}
	if rows%10 != 0 {
		t.Fatalf("recovered a torn batch: %d rows", rows)
	}
	if !table.EqualRows(rowsTable(0, rows), got) {
		t.Fatal("recovered rows are not byte-identical to what was written")
	}
}

// TestCrashRecoverMidCheckpoint kills the writer mid-checkpoint and
// asserts the surviving checkpoint is a complete, untorn version.
func TestCrashRecoverMidCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash test")
	}
	dir := t.TempDir()
	acked := runCrashChild(t, dir, "ckpt", 50)

	st, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer st.Close()
	data, ok, err := st.LoadCheckpoint("job")
	if err != nil {
		t.Fatalf("checkpoint corrupted by crash: %v", err)
	}
	if !ok {
		t.Fatal("acked checkpoint vanished")
	}
	// The payload must be exactly version j for some j >= acked (the
	// last acked version, or the next one if its rename won the race
	// with the kill) — never a torn mix.
	s := string(data)
	first := s[:strings.Index(s, ";")+1]
	if strings.Repeat(first, 64) != s {
		t.Fatalf("checkpoint payload is torn: %.60q...", s)
	}
	var ver int64
	if _, err := fmt.Sscanf(first, "payload-%d;", &ver); err != nil {
		t.Fatalf("checkpoint payload malformed: %.60q", s)
	}
	if ver < acked {
		t.Fatalf("checkpoint went backwards: acked %d, recovered version %d", acked, ver)
	}
}
