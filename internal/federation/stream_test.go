package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/schema"
	"nexus/internal/server"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// ---------------------------------------------------------------------------
// Fixtures

func evSchema() schema.Schema {
	return schema.New(
		schema.Attribute{Name: "ts", Kind: value.KindInt64},
		schema.Attribute{Name: "k", Kind: value.KindInt64},
		schema.Attribute{Name: "v", Kind: value.KindFloat64},
	)
}

// evTable generates n pseudo-random events with timestamps up to jitter
// out of order.
func evTable(seed int64, n int, jitter int64) *table.Table {
	r := rand.New(rand.NewSource(seed))
	b := table.NewBuilder(evSchema(), n)
	for i := 0; i < n; i++ {
		ts := int64(i) - r.Int63n(jitter+1)
		if ts < 0 {
			ts = 0
		}
		b.MustAppend(value.NewInt(ts), value.NewInt(r.Int63n(8)), value.NewFloat(float64(r.Intn(200))/8))
	}
	return b.Build()
}

// dimTable is the bounded enrichment relation: key → name.
func dimTable() *table.Table {
	sch := schema.New(
		schema.Attribute{Name: "dk", Kind: value.KindInt64},
		schema.Attribute{Name: "name", Kind: value.KindString},
	)
	b := table.NewBuilder(sch, 8)
	for i := int64(0); i < 8; i++ {
		b.MustAppend(value.NewInt(i), value.NewString(fmt.Sprintf("key-%d", i)))
	}
	return b.Build()
}

// pipelineKind names a differential scenario.
type pipelineKind struct {
	name     string
	lateness int64
	build    func(src stream.Source) *stream.Builder
}

func diffPipelines() []pipelineKind {
	agg := []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Column("v"), As: "sv"},
		{Func: core.AggCount, As: "n"},
		{Func: core.AggMax, Arg: expr.Column("v"), As: "mx"},
	}
	return []pipelineKind{
		{"tumbling", 8, func(src stream.Source) *stream.Builder {
			return stream.NewBuilder(src).WithBatchSize(16).WithLateness(8).
				Aggregate(core.StreamWindow{Kind: core.WindowTumbling, Size: 10, Slide: 10}, []string{"k"}, agg)
		}},
		{"sliding", 8, func(src stream.Source) *stream.Builder {
			return stream.NewBuilder(src).WithBatchSize(16).WithLateness(8).
				Aggregate(core.StreamWindow{Kind: core.WindowSliding, Size: 20, Slide: 5}, []string{"k"}, agg)
		}},
		{"count", 0, func(src stream.Source) *stream.Builder {
			return stream.NewBuilder(src).WithBatchSize(16).
				Aggregate(core.StreamWindow{Kind: core.WindowCount, Size: 9}, []string{"k"}, agg)
		}},
		{"join", 8, func(src stream.Source) *stream.Builder {
			return stream.NewBuilder(src).WithBatchSize(16).WithLateness(8).
				Filter(expr.Gt(expr.Column("v"), expr.CFloat(1))).
				JoinTable(dimTable(), core.JoinInner, []string{"k"}, []string{"dk"}, nil).
				Aggregate(core.StreamWindow{Kind: core.WindowTumbling, Size: 10, Slide: 10}, []string{"name"}, agg)
		}},
	}
}

// sortedRows renders a table as sorted canonical row encodings — the
// "byte-identical sorted results" the differential suite compares.
func sortedRows(t *testing.T, tab *table.Table) []string {
	t.Helper()
	rows := make([]string, tab.NumRows())
	var buf []byte
	for i := 0; i < tab.NumRows(); i++ {
		buf = buf[:0]
		for c := 0; c < tab.NumCols(); c++ {
			buf = value.AppendKey(buf, tab.Value(i, c))
		}
		rows[i] = string(buf)
	}
	sort.Strings(rows)
	return rows
}

// inProcOracle runs the pipeline in-process over a replay, optionally
// filtered to one partition, and returns the collected output.
func inProcOracle(t *testing.T, events *table.Table, pk pipelineKind, partIdx, partCnt uint32) *table.Table {
	t.Helper()
	var src stream.Source = stream.NewReplay(events, "ts")
	if partCnt > 1 {
		var err error
		src, err = stream.NewPartition(src, "k", partIdx, partCnt)
		if err != nil {
			t.Fatal(err)
		}
	}
	sp, err := pk.build(stream.NewReplay(events, "ts")).Spec()
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.FromSpec(src, sp)
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

// oracleRows: the partitioned differential oracle — the union of
// per-partition in-process runs. With one partition this is exactly the
// plain in-process pipeline. For time-based windows the union equals the
// global pipeline whenever no event is dropped (window bounds are
// event-time, partition-invariant); count windows are defined
// per-partition, and the oracle mirrors that.
func oracleRows(t *testing.T, events *table.Table, pk pipelineKind, parts uint32) []string {
	t.Helper()
	var all []string
	for i := uint32(0); i < parts; i++ {
		all = append(all, sortedRows(t, inProcOracle(t, events, pk, i, parts))...)
	}
	sort.Strings(all)
	return all
}

// subscribeDataset opens one dataset-mode subscription per transport.
func subscribeDataset(t *testing.T, trs []StreamTransport, pk pipelineKind, events *table.Table, credit uint32) []*Subscription {
	t.Helper()
	sp, err := pk.build(stream.NewReplay(events, "ts")).Spec()
	if err != nil {
		t.Fatal(err)
	}
	n := uint32(len(trs))
	subs := make([]*Subscription, n)
	for i, tr := range trs {
		sub := wire.StreamSub{
			SourceKind: wire.StreamSrcDataset,
			Dataset:    "events", TimeCol: "ts",
			Spec:   sp,
			Credit: credit,
		}
		if n > 1 {
			sub.PartKey, sub.PartIdx, sub.PartCnt = "k", uint32(i), n
		}
		s, err := tr.Subscribe(sub)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	return subs
}

// mergedRows drains the subscriptions through the watermark-ordered
// merge and returns sorted canonical rows.
func mergedRows(t *testing.T, subs []*Subscription, outSch schema.Schema) []string {
	t.Helper()
	collect := stream.NewCollect(outSch)
	var err error
	if len(subs) == 1 {
		for b := range subs[0].Batches() {
			if b.Table != nil {
				if e := collect.Emit(b.Table); e != nil {
					t.Fatal(e)
				}
			}
		}
		if _, err = subs[0].Wait(); err != nil {
			t.Fatal(err)
		}
	} else {
		if _, err = MergeWindows(subs, collect.Emit); err != nil {
			t.Fatal(err)
		}
	}
	out, err := collect.Table()
	if err != nil {
		t.Fatal(err)
	}
	return sortedRows(t, out)
}

// inprocTransports builds n in-process providers all hosting the events
// dataset.
func inprocTransports(t *testing.T, events *table.Table, n int) []StreamTransport {
	t.Helper()
	trs := make([]StreamTransport, n)
	for i := 0; i < n; i++ {
		eng := relational.New(fmt.Sprintf("p%d", i))
		if err := eng.Store("events", events); err != nil {
			t.Fatal(err)
		}
		trs[i] = NewInProc(eng)
	}
	return trs
}

// tcpTransports starts n TCP servers all hosting the events dataset and
// dials a mux to each.
func tcpTransports(t *testing.T, events *table.Table, n int) []StreamTransport {
	t.Helper()
	trs := make([]StreamTransport, n)
	for i := 0; i < n; i++ {
		eng := relational.New(fmt.Sprintf("s%d", i))
		if err := eng.Store("events", events); err != nil {
			t.Fatal(err)
		}
		srv, err := server.Serve(eng, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.Logf = func(string, ...any) {}
		t.Cleanup(srv.Close)
		mx, err := DialMux(srv.Addr(), DialOpts{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mx.Close)
		trs[i] = mx
	}
	return trs
}

// ---------------------------------------------------------------------------
// Differential suite

// TestDifferentialFederatedStreams: every window kind and the enrichment
// join produce byte-identical sorted results in-process and through
// federated subscriptions — 1 and 2 providers, a mux over an in-process
// pipe (InProc) and over a TCP socket, late events included (jitter
// reaches the allowed lateness bound, so some events are dropped on
// both sides alike).
func TestDifferentialFederatedStreams(t *testing.T) {
	events := evTable(99, 400, 8)
	transports := map[string]func(*testing.T, *table.Table, int) []StreamTransport{
		"inproc": inprocTransports,
		"tcp":    tcpTransports,
	}
	for _, pk := range diffPipelines() {
		for trName, mk := range transports {
			for _, parts := range []int{1, 2} {
				name := fmt.Sprintf("%s/%s/%dpart", pk.name, trName, parts)
				t.Run(name, func(t *testing.T) {
					want := oracleRows(t, events, pk, uint32(parts))
					trs := mk(t, events, parts)
					subs := subscribeDataset(t, trs, pk, events, 64)
					got := mergedRows(t, subs, subs[0].OutputSchema())
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("federated rows differ from oracle: got %d rows, want %d", len(got), len(want))
					}
				})
			}
		}
	}
}

// TestDifferentialLateDrops: events later than the allowed lateness are
// dropped identically in-process and federated (single partition, where
// watermark semantics match the global pipeline exactly).
func TestDifferentialLateDrops(t *testing.T) {
	// Jitter far beyond lateness: drops must happen.
	events := evTable(7, 300, 40)
	pk := diffPipelines()[0] // tumbling, lateness 8
	want := oracleRows(t, events, pk, 1)
	trs := inprocTransports(t, events, 1)
	subs := subscribeDataset(t, trs, pk, events, 64)
	got := mergedRows(t, subs, subs[0].OutputSchema())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("late-event handling diverged: got %d rows, want %d", len(got), len(want))
	}
	stats, err := subs[0].Wait()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Late == 0 {
		t.Fatal("scenario produced no late drops; jitter too small to prove anything")
	}
}

// ---------------------------------------------------------------------------
// Reconnect with state handoff

// TestReconnectStateHandoffTCP: a subscriber over TCP detaches mid-stream,
// receives the pipeline's window state, and resumes on a DIFFERENT
// server (migration). The combined output is byte-identical to the
// uninterrupted in-process run.
func TestReconnectStateHandoffTCP(t *testing.T) {
	events := evTable(21, 400, 6)
	pk := diffPipelines()[0] // tumbling windows
	want := sortedRows(t, inProcOracle(t, events, pk, 0, 1))

	trs := tcpTransports(t, events, 2)
	sp, err := pk.build(stream.NewReplay(events, "ts")).Spec()
	if err != nil {
		t.Fatal(err)
	}
	sub := wire.StreamSub{
		SourceKind: wire.StreamSrcDataset,
		Dataset:    "events", TimeCol: "ts",
		Spec:   sp,
		Credit: 2, // force the server to pace itself so the detach lands mid-stream
	}
	s1, err := trs[0].Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	collect := stream.NewCollect(s1.OutputSchema())
	got := 0
	for b := range s1.Batches() {
		if b.Table == nil {
			continue
		}
		if err := collect.Emit(b.Table); err != nil {
			t.Fatal(err)
		}
		got++
		if got == 3 {
			break
		}
	}
	state, pending, err := s1.Detach()
	if err != nil {
		t.Fatal(err)
	}
	// Batches delivered-but-unconsumed at detach time belong to the
	// subscriber, not the state.
	for _, b := range pending {
		if b.Table != nil {
			if err := collect.Emit(b.Table); err != nil {
				t.Fatal(err)
			}
		}
	}
	if state.Events == 0 || state.Events >= int64(events.NumRows()) {
		t.Fatalf("detach landed at the stream edge (events=%d); not a mid-stream handoff", state.Events)
	}
	// Resume on the OTHER server.
	sub.Resume = state
	sub.Credit = 64
	s2, err := trs[1].Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	for b := range s2.Batches() {
		if b.Table == nil {
			continue
		}
		if err := collect.Emit(b.Table); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s2.Wait(); err != nil {
		t.Fatal(err)
	}
	out, err := collect.Table()
	if err != nil {
		t.Fatal(err)
	}
	if gotRows := sortedRows(t, out); !reflect.DeepEqual(gotRows, want) {
		t.Fatalf("migrated stream differs from oracle: got %d rows, want %d", len(gotRows), len(want))
	}
}

// ---------------------------------------------------------------------------
// Push mode via the federation client

// TestPushSubscription: publishing batches through the Subscription
// client produces the oracle's results.
func TestPushSubscription(t *testing.T) {
	events := evTable(5, 200, 4)
	pk := diffPipelines()[1] // sliding
	want := sortedRows(t, inProcOracle(t, events, pk, 0, 1))
	eng := relational.New("push")
	tr := NewInProc(eng)
	sp, err := pk.build(stream.NewReplay(events, "ts")).Spec()
	if err != nil {
		t.Fatal(err)
	}
	s, err := tr.Subscribe(wire.StreamSub{
		SourceKind: wire.StreamSrcPush,
		TimeCol:    "ts", SrcSchema: evSchema(),
		Spec: sp, Credit: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for lo := 0; lo < events.NumRows(); lo += 32 {
			hi := lo + 32
			if hi > events.NumRows() {
				hi = events.NumRows()
			}
			if err := s.Publish(events.Slice(lo, hi)); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
		}
		if err := s.EndInput(); err != nil {
			t.Errorf("end input: %v", err)
		}
	}()
	collect := stream.NewCollect(s.OutputSchema())
	for b := range s.Batches() {
		if b.Table != nil {
			if err := collect.Emit(b.Table); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	out, err := collect.Table()
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(t, out); !reflect.DeepEqual(got, want) {
		t.Fatalf("push-mode rows differ: got %d want %d", len(got), len(want))
	}
}

// noCreditServer scripts the server half of one push subscription on
// conn: it answers the hello and the subscribe, swallows one publish
// window of batches without ever granting credit, ends the stream, and
// drains until the client hangs up.
func noCreditServer(conn net.Conn) {
	defer conn.Close()
	if _, _, _, err := wire.ReadFrame(conn); err != nil { // the hello
		return
	}
	if _, err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.EncodeHelloAck(wire.HelloInfo{Name: "scripted"})); err != nil {
		return
	}
	_, payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		return
	}
	sub, err := wire.DecodeSubscribeStream(payload)
	if err != nil {
		return
	}
	if _, err := wire.WriteFrame(conn, wire.MsgSubAck, wire.EncodeSubAck(sub.ID, sub.SrcSchema)); err != nil {
		return
	}
	for i := 0; i < server.PublishWindow; i++ {
		if _, _, _, err := wire.ReadFrame(conn); err != nil {
			return
		}
	}
	if _, err := wire.WriteFrame(conn, wire.MsgStreamEnd, wire.EncodeStreamEnd(sub.ID, stream.Stats{})); err != nil {
		return
	}
	for {
		if _, _, _, err := wire.ReadFrame(conn); err != nil {
			return
		}
	}
}

// TestPublishReturnsWhenStreamEnds regresses a lost wakeup: a Publish
// blocked on exhausted publish credit must return once the stream
// terminates. The scripted server never grants credit and ends the
// stream as soon as the window is spent, so the terminal frame races
// the publishers into their wait; any one run rarely loses the race,
// hence the loop.
func TestPublishReturnsWhenStreamEnds(t *testing.T) {
	spec := minimalSpec(t)
	srcSch := schema.New(schema.Attribute{Name: "ts", Kind: value.KindInt64})
	b := table.NewBuilder(srcSch, 1)
	b.MustAppend(value.NewInt(0))
	batch := b.Build()
	for run := 0; run < 1000; run++ {
		cli, srv := net.Pipe()
		go noCreditServer(srv)
		mx, err := newMux(cli, "", DialOpts{}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		s, err := mx.subscribeOwned(wire.StreamSub{SourceKind: wire.StreamSrcPush, TimeCol: "ts", SrcSchema: srcSch, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < server.PublishWindow; i++ {
			if err := s.Publish(batch); err != nil {
				t.Fatal(err)
			}
		}
		// Several blocked publishers: each wakeup is one more chance to
		// re-check before the stream's end became visible.
		const pubs = 8
		blocked := make(chan error, pubs)
		for p := 0; p < pubs; p++ {
			go func() { blocked <- s.Publish(batch) }()
		}
		deadline := time.After(time.Second)
		for p := 0; p < pubs; p++ {
			select {
			case err := <-blocked:
				if err == nil {
					t.Fatal("publish beyond the window of an ended stream succeeded")
				}
			case <-deadline:
				t.Fatalf("run %d: Publish still blocked 1s after the stream ended", run)
			}
		}
		if _, err := s.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Hello handshake leak

// TestDialTCPNoLeakOnBadHello: a server that answers the hello with
// garbage must leave no open client socket behind — the server side
// observes EOF promptly after the failed dial.
func TestDialTCPNoLeakOnBadHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sawEOF := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			sawEOF <- err
			return
		}
		defer conn.Close()
		if _, _, _, err := wire.ReadFrame(conn); err != nil { // the hello
			sawEOF <- err
			return
		}
		// Reply with the wrong frame type.
		if _, err := wire.WriteFrame(conn, wire.MsgResult, []byte{1, 2, 3}); err != nil {
			sawEOF <- err
			return
		}
		// If the client closed its side, this read sees EOF.
		_, _, _, err = wire.ReadFrame(conn)
		sawEOF <- err
	}()

	if _, err := DialMux(ln.Addr().String(), DialOpts{}); err == nil {
		t.Fatal("dial succeeded against a broken hello")
	}
	select {
	case err := <-sawEOF:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("server saw %v, want EOF proving the client closed its socket", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client connection leaked: server never saw EOF")
	}
}

// ---------------------------------------------------------------------------
// Race/soak

// TestSoakPartitionedConcurrent exercises the concurrency surface under
// -race: partitioned fan-out across 3 in-proc transports with a
// mid-window detach + resume on one partition, while a push-mode
// subscription with 4 concurrent producers runs on the side. The merged
// outputs must still match the oracles exactly.
func TestSoakPartitionedConcurrent(t *testing.T) {
	events := evTable(31, 900, 6)
	pk := diffPipelines()[0] // tumbling
	const parts = 3
	want := oracleRows(t, events, pk, parts)
	trs := inprocTransports(t, events, parts)
	sp, err := pk.build(stream.NewReplay(events, "ts")).Spec()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var all []string

	// Partitions 0 and 1: drain straight through.
	for i := 0; i < 2; i++ {
		sub := wire.StreamSub{
			SourceKind: wire.StreamSrcDataset, Dataset: "events", TimeCol: "ts",
			Spec: sp, Credit: 8,
			PartKey: "k", PartIdx: uint32(i), PartCnt: parts,
		}
		s, err := trs[i].Subscribe(sub)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Subscription) {
			defer wg.Done()
			for b := range s.Batches() {
				if b.Table == nil {
					continue
				}
				rows := sortedRowsNoT(b.Table)
				mu.Lock()
				all = append(all, rows...)
				mu.Unlock()
			}
			if _, err := s.Wait(); err != nil {
				t.Errorf("partition drain: %v", err)
			}
		}(s)
	}

	// Partition 2: read a little, detach mid-window, resume, drain.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub := wire.StreamSub{
			SourceKind: wire.StreamSrcDataset, Dataset: "events", TimeCol: "ts",
			Spec: sp, Credit: 2,
			PartKey: "k", PartIdx: 2, PartCnt: parts,
		}
		s, err := trs[2].Subscribe(sub)
		if err != nil {
			t.Error(err)
			return
		}
		got := 0
		for b := range s.Batches() {
			if b.Table == nil {
				continue
			}
			rows := sortedRowsNoT(b.Table)
			mu.Lock()
			all = append(all, rows...)
			mu.Unlock()
			if got++; got == 2 {
				break
			}
		}
		state, pending, err := s.Detach()
		if err != nil {
			t.Errorf("detach: %v", err)
			return
		}
		for _, b := range pending {
			if b.Table != nil {
				rows := sortedRowsNoT(b.Table)
				mu.Lock()
				all = append(all, rows...)
				mu.Unlock()
			}
		}
		sub.Resume = state
		sub.Credit = 16
		s2, err := trs[2].Subscribe(sub)
		if err != nil {
			t.Error(err)
			return
		}
		for b := range s2.Batches() {
			if b.Table == nil {
				continue
			}
			rows := sortedRowsNoT(b.Table)
			mu.Lock()
			all = append(all, rows...)
			mu.Unlock()
		}
		if _, err := s2.Wait(); err != nil {
			t.Errorf("resumed drain: %v", err)
		}
	}()

	// Side stream: push mode with 4 concurrent producers publishing
	// disjoint slices (Publish is safe for concurrent use).
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, err := trs[0].Subscribe(wire.StreamSub{
			SourceKind: wire.StreamSrcPush, TimeCol: "ts", SrcSchema: evSchema(),
			Spec: sp, Credit: 16,
		})
		if err != nil {
			t.Error(err)
			return
		}
		var pwg sync.WaitGroup
		for w := 0; w < 4; w++ {
			pwg.Add(1)
			go func(w int) {
				defer pwg.Done()
				for lo := w * 64; lo < events.NumRows(); lo += 4 * 64 {
					hi := lo + 64
					if hi > events.NumRows() {
						hi = events.NumRows()
					}
					if err := s.Publish(events.Slice(lo, hi)); err != nil {
						t.Errorf("producer %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range s.Batches() {
			}
		}()
		pwg.Wait()
		if err := s.EndInput(); err != nil {
			t.Errorf("end input: %v", err)
		}
		<-drained
		if _, err := s.Wait(); err != nil {
			t.Errorf("push soak: %v", err)
		}
	}()

	wg.Wait()
	mu.Lock()
	sort.Strings(all)
	got := all
	mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("soak output differs from oracle: got %d rows, want %d", len(got), len(want))
	}
}

// sortedRowsNoT is sortedRows without the testing.T (goroutine use).
func sortedRowsNoT(tab *table.Table) []string {
	rows := make([]string, tab.NumRows())
	var buf []byte
	for i := 0; i < tab.NumRows(); i++ {
		buf = buf[:0]
		for c := 0; c < tab.NumCols(); c++ {
			buf = value.AppendKey(buf, tab.Value(i, c))
		}
		rows[i] = string(buf)
	}
	sort.Strings(rows)
	return rows
}
