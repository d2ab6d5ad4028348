package nexus_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"nexus"
	"nexus/internal/server"
	"nexus/internal/storage"
)

// TestSessionOpenPersistDurable covers the public durability surface:
// Open a data directory as a provider, Persist an in-memory dataset
// onto it, observe the Durable flag in the catalog, and read the data
// back through a fresh session over the same directory.
func TestSessionOpenPersistDurable(t *testing.T) {
	dir := t.TempDir()

	s := nexus.NewSession()
	memName, err := s.AddEngine(nexus.Relational, "mem")
	if err != nil {
		t.Fatal(err)
	}
	durName, err := s.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store(memName, "sales", eventTable(0, 200)); err != nil {
		t.Fatal(err)
	}
	if err := s.Persist(durName, "sales"); err != nil {
		t.Fatal(err)
	}

	durables := map[string]bool{}
	for _, ds := range s.Datasets() {
		if ds.Name == "sales" {
			durables[ds.Provider] = ds.Durable
		}
	}
	if durables[memName] || !durables[durName] {
		t.Fatalf("durable flags wrong: %v", durables)
	}

	// Appends are durable too, and Scan resolves across providers (the
	// in-memory copy is found first; query the durable one explicitly
	// via a second session with only the directory attached).
	if err := s.Append(durName, "sales", eventTable(200, 250)); err != nil {
		t.Fatal(err)
	}

	s2 := nexus.NewSession()
	if _, err := s2.Open(dir); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Scan("sales").Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := eventTable(0, 250)
	if !tablesEqual(got, want) {
		t.Fatalf("reopened durable dataset differs: %d rows, want %d", got.NumRows(), want.NumRows())
	}
}

// TestDetachResumePerPartition locks down the per-partition resume
// offsets: a push-mode stream partitioned across two providers is
// detached mid-flight, the tokens report each partition's consumed
// prefix, and resuming from them completes the job with every window
// of an uninterrupted run present and byte-identical.
func TestDetachResumePerPartition(t *testing.T) {
	const totalRows = 40000
	mkQuery := func(s *nexus.Session) *nexus.StreamQuery {
		src, err := nexus.GenerateSource("ts", totalRows, func(i int64) []any {
			syms := []string{"AAA", "BBB", "CCC", "DDD"}
			return []any{i, syms[i%4], i % 100, float64(i%50) + 0.5}
		},
			nexus.ColumnDef{Name: "ts", Type: nexus.Int64},
			nexus.ColumnDef{Name: "sym", Type: nexus.String},
			nexus.ColumnDef{Name: "vol", Type: nexus.Int64},
			nexus.ColumnDef{Name: "price", Type: nexus.Float64},
		)
		if err != nil {
			t.Fatal(err)
		}
		return s.StreamFrom(src).
			BatchSize(200).
			Window(nexus.Tumbling(1000)).
			GroupBy("sym").
			Agg(nexus.Count("n"), nexus.Sum("rev", nexus.Mul(nexus.Col("price"), nexus.Col("vol")))).
			PartitionBy("sym")
	}

	s := nexus.NewSession()
	p1, _ := s.AddEngine(nexus.Relational, "p1")
	p2, _ := s.AddEngine(nexus.Relational, "p2")
	providers := []string{p1, p2}

	var mu sync.Mutex
	var recovered []*nexus.Table
	got2 := make(chan struct{})
	seen := 0
	rs, err := mkQuery(s).SubscribeRemoteDetachable(context.Background(), providers, func(tab *nexus.Table) error {
		mu.Lock()
		recovered = append(recovered, tab)
		seen++
		if seen == 2 {
			close(got2)
		}
		n := seen
		mu.Unlock()
		if n >= 2 {
			time.Sleep(10 * time.Millisecond) // backpressure: keep pipelines mid-stream
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-got2
	tokens, err := rs.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 2 {
		t.Fatalf("detach returned %d tokens for 2 partitions", len(tokens))
	}
	var consumed int64
	for i, tok := range tokens {
		if tok.Provider != providers[i] || tok.Partition != i {
			t.Fatalf("token %d mislabeled: %+v", i, tok)
		}
		if tok.Offset() <= 0 {
			t.Fatalf("partition %d reports no resume offset", i)
		}
		consumed += tok.Offset()
	}
	if consumed >= totalRows {
		t.Fatalf("stream finished before detach (%d rows consumed); backpressure failed", consumed)
	}

	// Resume on the same providers from the tokens: the publisher skips
	// each partition's consumed prefix and the window state carries the
	// half-open windows across.
	stats, err := mkQuery(s).ResumeFrom(tokens).SubscribeRemote(context.Background(), providers, func(tab *nexus.Table) error {
		mu.Lock()
		recovered = append(recovered, tab)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != totalRows-consumed {
		t.Fatalf("resumed leg consumed %d events, want %d", stats.Events, totalRows-consumed)
	}

	// Reference: the same pipeline uninterrupted, in process.
	wantTab, err := mkQuery(s).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]string{}
	for r := 0; r < wantTab.NumRows(); r++ {
		key := cellString(wantTab, r, nexus.WindowStartCol) + "|" + cellString(wantTab, r, "sym")
		wantRows[key] = rowString(wantTab, r)
	}
	gotRows := map[string]string{}
	mu.Lock()
	for _, tab := range recovered {
		for r := 0; r < tab.NumRows(); r++ {
			key := cellString(tab, r, nexus.WindowStartCol) + "|" + cellString(tab, r, "sym")
			gotRows[key] = rowString(tab, r)
		}
	}
	mu.Unlock()
	if len(gotRows) != len(wantRows) {
		t.Fatalf("recovered %d distinct windows, uninterrupted run has %d", len(gotRows), len(wantRows))
	}
	for k, w := range wantRows {
		if g := gotRows[k]; g != w {
			t.Fatalf("window %s: got %s want %s", k, g, w)
		}
	}
}

// TestDurableCheckpointRetiredOnCompletion pins checkpoint pruning: a
// durable subscription that finishes its job must leave no checkpoint
// file behind, on every completion path — straight run to end-of-
// stream, detach-then-resume to end-of-stream, and an explicit cancel.
// Only involuntary exits (disconnects, errors) and detaches themselves
// may persist state.
func TestDurableCheckpointRetiredOnCompletion(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.OpenEngine("dur", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.ServeWithCheckpoints(eng, "127.0.0.1:0", eng.Backing(), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	defer srv.Close()

	const totalRows = 20000
	mkQuery := func(s *nexus.Session, durable string) *nexus.StreamQuery {
		src, err := nexus.GenerateSource("ts", totalRows, func(i int64) []any {
			syms := []string{"AAA", "BBB", "CCC", "DDD"}
			return []any{i, syms[i%4], float64(i%50) + 0.5}
		},
			nexus.ColumnDef{Name: "ts", Type: nexus.Int64},
			nexus.ColumnDef{Name: "sym", Type: nexus.String},
			nexus.ColumnDef{Name: "price", Type: nexus.Float64},
		)
		if err != nil {
			t.Fatal(err)
		}
		return s.StreamFrom(src).
			BatchSize(200).
			Window(nexus.Tumbling(1000)).
			GroupBy("sym").
			Agg(nexus.Count("n"), nexus.Sum("rev", nexus.Col("price"))).
			Durable(durable)
	}
	noCheckpoint := func(t *testing.T, key string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, ok, err := eng.Backing().LoadCheckpoint(key); err == nil && !ok {
				return
			}
			if time.Now().After(deadline) {
				keys, _ := eng.Backing().Checkpoints()
				t.Fatalf("checkpoint %q still present after completion (stored: %v)", key, keys)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	s := nexus.NewSession()
	prov, err := s.ConnectTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Path 1: a durable subscription runs straight to end-of-stream.
	// The 1ms checkpoint timer persists state during the run; the clean
	// end must retire it.
	if _, err := mkQuery(s, "clean").SubscribeRemote(context.Background(), []string{prov}, func(*nexus.Table) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	noCheckpoint(t, "clean")

	// Path 2: detach mid-stream (the checkpoint must survive the detach
	// — that is the resumable handoff), then resume under the same name
	// to end-of-stream: the finished job retires it.
	var mu sync.Mutex
	seen := 0
	got2 := make(chan struct{})
	rs, err := mkQuery(s, "detached").SubscribeRemoteDetachable(context.Background(), []string{prov}, func(*nexus.Table) error {
		mu.Lock()
		seen++
		if seen == 2 {
			close(got2)
		}
		n := seen
		mu.Unlock()
		if n >= 2 {
			time.Sleep(10 * time.Millisecond) // backpressure: stay mid-stream
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-got2
	tokens, err := rs.Detach()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := eng.Backing().LoadCheckpoint("detached"); err != nil || !ok {
		t.Fatalf("detach did not persist its checkpoint: ok=%v err=%v", ok, err)
	}
	if _, err := mkQuery(s, "detached").ResumeFrom(tokens).SubscribeRemote(context.Background(), []string{prov}, func(*nexus.Table) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	noCheckpoint(t, "detached")

	// Path 3: an explicit cancel (the subscriber callback erroring makes
	// the client cancel the subscription) finishes the job too — the
	// checkpoint the timer wrote mid-run must not linger.
	wantErr := fmt.Errorf("subscriber bails out")
	canceled := 0
	_, err = mkQuery(s, "canceled").SubscribeRemote(context.Background(), []string{prov}, func(*nexus.Table) error {
		canceled++
		if canceled >= 2 {
			time.Sleep(20 * time.Millisecond) // let the checkpoint timer fire
			return wantErr
		}
		return nil
	})
	if err == nil {
		t.Fatal("canceled subscription reported no error")
	}
	noCheckpoint(t, "canceled")
}

// TestDurablePushResumeAfterDisconnect covers the server-side skip for
// push-mode durable subscriptions: the client abandons the stream
// mid-flight, the server checkpoints the pipeline state (including the
// consumed-row offset the publisher never sees), and a re-subscription
// under the same durable name replays the source from the start while
// the server drops the consumed prefix — no window is lost and none is
// double-counted.
func TestDurablePushResumeAfterDisconnect(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.OpenEngine("dur", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.ServeWithCheckpoints(eng, "127.0.0.1:0", eng.Backing(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	defer srv.Close()

	const totalRows = 40000
	mkQuery := func(s *nexus.Session) *nexus.StreamQuery {
		src, err := nexus.GenerateSource("ts", totalRows, func(i int64) []any {
			syms := []string{"AAA", "BBB", "CCC", "DDD"}
			return []any{i, syms[i%4], i % 100, float64(i%50) + 0.5}
		},
			nexus.ColumnDef{Name: "ts", Type: nexus.Int64},
			nexus.ColumnDef{Name: "sym", Type: nexus.String},
			nexus.ColumnDef{Name: "vol", Type: nexus.Int64},
			nexus.ColumnDef{Name: "price", Type: nexus.Float64},
		)
		if err != nil {
			t.Fatal(err)
		}
		return s.StreamFrom(src).
			BatchSize(200).
			Window(nexus.Tumbling(1000)).
			GroupBy("sym").
			Agg(nexus.Count("n"), nexus.Sum("rev", nexus.Mul(nexus.Col("price"), nexus.Col("vol")))).
			Durable("pushjob")
	}

	s := nexus.NewSession()
	prov, err := s.ConnectTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: slow consumer, then abandon the stream mid-flight (ctx
	// cancel closes the subscription, which the server treats like a
	// dropped connection and persists the checkpoint).
	var mu sync.Mutex
	var recovered []*nexus.Table
	ctx1, cancel1 := context.WithCancel(context.Background())
	got2 := make(chan struct{})
	seen := 0
	rs, err := mkQuery(s).SubscribeRemoteDetachable(ctx1, []string{prov}, func(tab *nexus.Table) error {
		mu.Lock()
		recovered = append(recovered, tab)
		seen++
		if seen == 2 {
			close(got2)
		}
		n := seen
		mu.Unlock()
		if n >= 2 {
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-got2
	cancel1()
	_, _ = rs.Wait() // errors: the subscription was closed

	// The server persists the checkpoint when its pipeline notices the
	// gone subscriber; poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, _ := eng.Backing().LoadCheckpoint("pushjob"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never persisted the disconnect checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: re-subscribe durably with a fresh source. The publisher
	// replays everything; the server skips the consumed prefix.
	s2 := nexus.NewSession()
	prov2, err := s2.ConnectTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := mkQuery(s2).SubscribeRemote(context.Background(), []string{prov2}, func(tab *nexus.Table) error {
		mu.Lock()
		recovered = append(recovered, tab)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 || stats.Events >= totalRows {
		t.Fatalf("resumed leg consumed %d events; want a proper suffix of %d (server-side push skip broken?)", stats.Events, totalRows)
	}

	// Reference: uninterrupted in-process run; dedupe by window+key and
	// require byte-identical rows with nothing lost or double-counted.
	wantTab, err := mkQuery(s).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]string{}
	for r := 0; r < wantTab.NumRows(); r++ {
		key := cellString(wantTab, r, nexus.WindowStartCol) + "|" + cellString(wantTab, r, "sym")
		wantRows[key] = rowString(wantTab, r)
	}
	gotRows := map[string]string{}
	mu.Lock()
	for _, tab := range recovered {
		for r := 0; r < tab.NumRows(); r++ {
			key := cellString(tab, r, nexus.WindowStartCol) + "|" + cellString(tab, r, "sym")
			gotRows[key] = rowString(tab, r)
		}
	}
	mu.Unlock()
	if len(gotRows) != len(wantRows) {
		t.Fatalf("recovered %d distinct windows, uninterrupted run has %d", len(gotRows), len(wantRows))
	}
	for k, w := range wantRows {
		if g := gotRows[k]; g != w {
			t.Fatalf("window %s: got %s want %s (double-counted rows?)", k, g, w)
		}
	}
}
