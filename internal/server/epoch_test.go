package server

import (
	"net"
	"strings"
	"testing"

	"nexus/internal/engines/exec"
	"nexus/internal/storage"
	"nexus/internal/wire"
)

// subscribeDataset sends a dataset-replay subscription and returns the
// server's first answer frame.
func subscribeDataset(t *testing.T, conn net.Conn, sub wire.StreamSub) (wire.MsgType, []byte) {
	t.Helper()
	if _, err := wire.WriteFrame(conn, wire.MsgSubscribeStream, wire.EncodeSubscribeStream(sub)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}

// TestStaleResumeEpochRefused locks down the order-epoch guard on
// client-held resume tokens: a detached dataset-replay subscription's
// state resumes fine while the dataset keeps its row order, but once
// compaction re-sorts the rows (bumping the order epoch) the same state
// is refused with a clear error instead of silently skipping the wrong
// prefix.
func TestStaleResumeEpochRefused(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.OpenEngine("dur", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Four small appends, each flushed to its own segment, so a
	// compaction pass has something to merge (and re-sort).
	events := eventsTable(100)
	for lo := 0; lo < 100; lo += 25 {
		if err := eng.Append("events", events.Slice(lo, lo+25)); err != nil {
			t.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	cli, srv := net.Pipe()
	go func() { _ = ServeConnCached(eng, srv, exec.NewExprCache()) }()
	t.Cleanup(func() { cli.Close() })

	// Subscribe with one batch of credit so the pipeline stalls
	// mid-stream, then detach to capture a resumable state.
	sub := wire.StreamSub{
		ID: 1, SourceKind: wire.StreamSrcDataset,
		Dataset: "events", TimeCol: "ts",
		Spec: windowedSpec(t), Credit: 1,
	}
	typ, _ := subscribeDataset(t, cli, sub)
	if typ != wire.MsgSubAck {
		t.Fatalf("subscribe answered %v", typ)
	}
	for {
		typ, _, _, err := wire.ReadFrame(cli)
		if err != nil {
			t.Fatal(err)
		}
		if typ == wire.MsgStreamBatch {
			break
		}
	}
	if _, err := wire.WriteFrame(cli, wire.MsgStreamClose, wire.EncodeStreamClose(1, wire.CloseDetach)); err != nil {
		t.Fatal(err)
	}
	tabs, term, payload := readUntilEnd(t, cli)
	if term != wire.MsgWindowState {
		t.Fatalf("detach terminal %v", term)
	}
	_, state, err := wire.DecodeWindowState(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.DatasetOrderEpoch("events"); state.Epoch != got {
		t.Fatalf("detached state carries epoch %d, dataset is at %d", state.Epoch, got)
	}
	if state.Events <= 0 || state.Events >= 100 {
		t.Fatalf("detach consumed %d events, want mid-stream", state.Events)
	}

	// Positive control: the token resumes cleanly while the epoch holds.
	resume := sub
	resume.ID = 2
	resume.Credit = 1000
	resume.Resume = state
	typ, _ = subscribeDataset(t, cli, resume)
	if typ != wire.MsgSubAck {
		t.Fatalf("same-epoch resume answered %v", typ)
	}
	more, term, _ := readUntilEnd(t, cli)
	if term != wire.MsgStreamEnd {
		t.Fatalf("resumed stream ended with %v", term)
	}
	if len(tabs)+len(more) == 0 {
		t.Fatal("no windows delivered across detach+resume")
	}

	// Re-sort the rows: a compaction pass that actually merges segments
	// bumps the dataset's order epoch.
	stats, err := eng.Compact(storage.CompactOptions{ClusterBy: map[string]string{"events": "k"}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Merged == 0 {
		t.Fatal("compaction merged nothing; epoch cannot have moved")
	}
	if got := eng.DatasetOrderEpoch("events"); got != state.Epoch+1 {
		t.Fatalf("epoch after compaction = %d, want %d", got, state.Epoch+1)
	}

	// The client-held token now points into an ordering that no longer
	// exists: the resume must be refused, naming the epochs.
	stale := sub
	stale.ID = 3
	stale.Credit = 1000
	stale.Resume = state
	typ, payload = subscribeDataset(t, cli, stale)
	if typ != wire.MsgError {
		t.Fatalf("stale resume answered %v, want refusal", typ)
	}
	_, msg, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "order epoch") || !strings.Contains(msg, "stale") {
		t.Fatalf("refusal does not explain the stale epoch: %q", msg)
	}
}
