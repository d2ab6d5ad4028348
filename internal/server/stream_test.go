package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

func eventSchema() schema.Schema {
	return schema.New(
		schema.Attribute{Name: "ts", Kind: value.KindInt64},
		schema.Attribute{Name: "k", Kind: value.KindInt64},
		schema.Attribute{Name: "v", Kind: value.KindInt64},
	)
}

func eventsTable(n int) *table.Table {
	b := table.NewBuilder(eventSchema(), n)
	for i := 0; i < n; i++ {
		b.MustAppend(value.NewInt(int64(i)), value.NewInt(int64(i%4)), value.NewInt(int64(i)*3))
	}
	return b.Build()
}

func windowedSpec(t *testing.T) stream.Spec {
	t.Helper()
	v, err := core.NewVar(stream.BatchVar, eventSchema())
	if err != nil {
		t.Fatal(err)
	}
	return stream.Spec{
		Pre:       v,
		Windowed:  true,
		Win:       core.StreamWindow{Kind: core.WindowTumbling, Size: 10, Slide: 10},
		Keys:      []string{"k"},
		Aggs:      []core.AggSpec{{Func: core.AggSum, Arg: expr.Column("v"), As: "s"}, {Func: core.AggCount, As: "n"}},
		BatchSize: 16,
	}
}

// oracleRun executes the spec in-process over a replay of the events.
func oracleRun(t *testing.T, events *table.Table, sp stream.Spec) *table.Table {
	t.Helper()
	p, err := stream.FromSpec(stream.NewReplay(events, "ts"), sp)
	if err != nil {
		t.Fatal(err)
	}
	sink := stream.NewCollect(p.OutputSchema())
	if _, err := p.Run(context.Background(), sink); err != nil {
		t.Fatal(err)
	}
	out, err := sink.Table()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// readUntilEnd consumes subscription frames, collecting result tables,
// until a terminal frame arrives. It returns the collected tables and
// the terminal type.
func readUntilEnd(t *testing.T, conn net.Conn) ([]*table.Table, wire.MsgType, []byte) {
	t.Helper()
	var tabs []*table.Table
	for {
		typ, payload, _, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch typ {
		case wire.MsgStreamBatch:
			_, _, _, tab, err := wire.DecodeStreamBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			tabs = append(tabs, tab)
		case wire.MsgWatermark, wire.MsgCredit:
		case wire.MsgStreamEnd, wire.MsgWindowState, wire.MsgError:
			return tabs, typ, payload
		default:
			t.Fatalf("unexpected frame %v", typ)
		}
	}
}

func concatBytes(t *testing.T, tabs []*table.Table, sch schema.Schema) []byte {
	t.Helper()
	all, err := table.Empty(sch).Concat(tabs...)
	if err != nil {
		t.Fatal(err)
	}
	return wire.EncodeTable(all)
}

// TestSubscribeDatasetStream: a windowed subscription over a stored
// dataset streams exactly what the in-process pipeline produces.
func TestSubscribeDatasetStream(t *testing.T) {
	eng := relational.New("srv")
	events := eventsTable(100)
	if err := eng.Store("events", events); err != nil {
		t.Fatal(err)
	}
	s, err := Serve(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = t.Logf
	t.Cleanup(s.Close)

	conn := dial(t, s.Addr())
	sub := wire.StreamSub{
		ID: 1, SourceKind: wire.StreamSrcDataset,
		Dataset: "events", TimeCol: "ts",
		Spec: windowedSpec(t), Credit: 1000,
	}
	if _, err := wire.WriteFrame(conn, wire.MsgSubscribeStream, wire.EncodeSubscribeStream(sub)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgSubAck {
		t.Fatalf("got %v", typ)
	}
	_, outSch, err := wire.DecodeSubAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	tabs, term, _ := readUntilEnd(t, conn)
	if term != wire.MsgStreamEnd {
		t.Fatalf("terminal %v", term)
	}
	want := oracleRun(t, events, windowedSpec(t))
	if !bytes.Equal(concatBytes(t, tabs, outSch), wire.EncodeTable(want)) {
		t.Fatal("federated results differ from in-process oracle")
	}
}

// TestSubscriberGone: dropping the connection while the pipeline waits
// for credit surfaces ErrSubscriberGone — queued batches are not
// silently discarded.
func TestSubscriberGone(t *testing.T) {
	eng := relational.New("srv")
	if err := eng.Store("events", eventsTable(5000)); err != nil {
		t.Fatal(err)
	}
	cli, srv := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- ServeConnCached(eng, srv, exec.NewExprCache()) }()

	sub := wire.StreamSub{
		ID: 1, SourceKind: wire.StreamSrcDataset,
		Dataset: "events", TimeCol: "ts",
		Spec: windowedSpec(t), Credit: 1, // exhausts after one batch
	}
	if _, err := wire.WriteFrame(cli, wire.MsgSubscribeStream, wire.EncodeSubscribeStream(sub)); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := wire.ReadFrame(cli)
	if err != nil || typ != wire.MsgSubAck {
		t.Fatalf("%v %v", typ, err)
	}
	// Take the first batch (skipping watermark progress), then vanish
	// without granting more credit.
	for {
		typ, _, _, err = wire.ReadFrame(cli)
		if err != nil {
			t.Fatal(err)
		}
		if typ == wire.MsgWatermark {
			continue
		}
		if typ != wire.MsgStreamBatch {
			t.Fatalf("got %v", typ)
		}
		break
	}
	cli.Close()

	select {
	case err := <-served:
		if !errors.Is(err, ErrSubscriberGone) {
			t.Fatalf("ServeConnCached returned %v, want ErrSubscriberGone", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not release the orphaned subscription")
	}
}

// TestPushStream: published event batches flow through the pipeline;
// publish credits come back as the pipeline consumes; EndInput flushes
// final windows and terminates with stats.
func TestPushStream(t *testing.T) {
	eng := relational.New("srv")
	cli, srv := net.Pipe()
	go func() { _ = ServeConnCached(eng, srv, exec.NewExprCache()) }()
	t.Cleanup(func() { cli.Close() })

	events := eventsTable(40)
	sub := wire.StreamSub{
		ID: 1, SourceKind: wire.StreamSrcPush,
		TimeCol: "ts", SrcSchema: eventSchema(),
		Spec: windowedSpec(t), Credit: 1000,
	}
	if _, err := wire.WriteFrame(cli, wire.MsgSubscribeStream, wire.EncodeSubscribeStream(sub)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.ReadFrame(cli)
	if err != nil || typ != wire.MsgSubAck {
		t.Fatalf("%v %v", typ, err)
	}
	_, outSch, err := wire.DecodeSubAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	// Publish in two halves, then end input.
	if _, err := wire.WriteFrame(cli, wire.MsgStreamPublish, wire.EncodeStreamPublish(1, events.Slice(0, 20))); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WriteFrame(cli, wire.MsgStreamPublish, wire.EncodeStreamPublish(1, events.Slice(20, 40))); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WriteFrame(cli, wire.MsgStreamClose, wire.EncodeStreamClose(1, wire.CloseEndInput)); err != nil {
		t.Fatal(err)
	}
	tabs, term, payload := readUntilEnd(t, cli)
	if term != wire.MsgStreamEnd {
		t.Fatalf("terminal %v", term)
	}
	_, stats, err := wire.DecodeStreamEnd(payload)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 40 {
		t.Fatalf("stats.Events = %d, want 40", stats.Events)
	}
	want := oracleRun(t, events, windowedSpec(t))
	if !bytes.Equal(concatBytes(t, tabs, outSch), wire.EncodeTable(want)) {
		t.Fatal("push-mode results differ from in-process oracle")
	}
}

// TestSubscribeErrors: bad subscriptions are refused with MsgError, and
// duplicate IDs are rejected.
func TestSubscribeErrors(t *testing.T) {
	eng := relational.New("srv")
	cli, srv := net.Pipe()
	go func() { _ = ServeConnCached(eng, srv, exec.NewExprCache()) }()
	t.Cleanup(func() { cli.Close() })

	sub := wire.StreamSub{
		ID: 1, SourceKind: wire.StreamSrcDataset,
		Dataset: "nosuch", TimeCol: "ts",
		Spec: windowedSpec(t), Credit: 8,
	}
	if _, err := wire.WriteFrame(cli, wire.MsgSubscribeStream, wire.EncodeSubscribeStream(sub)); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.ReadFrame(cli)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("%v %v", typ, err)
	}
	if _, msg, _ := wire.DecodeError(payload); msg == "" {
		t.Fatal("empty refusal")
	}
}
