package federation

import (
	"context"
	"testing"
	"time"

	"nexus/internal/server"
	"nexus/internal/storage"
)

// TestFailoverCloseKeepsCheckpoint: FailoverSub.Close abandons the
// stream the way a dropped connection would — the server keeps the
// durable checkpoint — so a later SubscribeFailover under the same key
// resumes mid-stream instead of replaying from scratch.
func TestFailoverCloseKeepsCheckpoint(t *testing.T) {
	events := evTable(73, 1200, 6)
	pk := diffPipelines()[0] // tumbling windows
	want := sortedRows(t, inProcOracle(t, events, pk, 0, 1))

	eng, err := storage.OpenEngine("ckpt", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.Store("events", events); err != nil {
		t.Fatal(err)
	}
	// No periodic saves: the only checkpoint is the one the first leg's
	// end leaves behind.
	ckpts := eng.Backing()
	srv, err := server.ServeWithCheckpoints(eng, "127.0.0.1:0", ckpts, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	t.Cleanup(srv.Close)

	sub := muxEventsSub(t, events, pk, 2) // small credit: the server paces itself
	sub.Durable = "job"
	opts := FailoverOpts{Backoff: NewBackoff(1)}
	first, err := SubscribeFailover(context.Background(), []string{srv.Addr()}, sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for b := range first.Batches() {
		if b.Table != nil {
			if got++; got == 3 {
				break
			}
		}
	}
	first.Close()

	// The server saves the checkpoint once its pipeline stops; poll.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := ckpts.LoadCheckpoint("job"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Close retired the durable checkpoint instead of keeping it")
		}
		time.Sleep(5 * time.Millisecond)
	}

	sub.Credit = 64
	second, err := SubscribeFailover(context.Background(), []string{srv.Addr()}, sub, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	var resumed []string
	for b := range second.Batches() {
		if b.Table != nil {
			resumed = append(resumed, sortedRowsNoT(b.Table)...)
		}
	}
	if err := second.Err(); err != nil {
		t.Fatal(err)
	}
	if len(resumed) == 0 || len(resumed) >= len(want) {
		t.Fatalf("resumed leg delivered %d of %d rows; want a proper suffix", len(resumed), len(want))
	}
	// Every resumed window is complete: the restored state carried the
	// open windows' partial aggregates across.
	wantSet := map[string]int{}
	for _, r := range want {
		wantSet[r]++
	}
	for _, r := range resumed {
		if wantSet[r] == 0 {
			t.Fatal("resumed leg emitted a row the uninterrupted run does not have")
		}
		wantSet[r]--
	}
}
