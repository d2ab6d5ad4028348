package federation

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/engines/relational"
	"nexus/internal/server"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// muxServer starts one TCP server hosting the events dataset and
// returns it (the mux tests all multiplex against a single server).
func muxServer(t *testing.T, events *table.Table) *server.Server {
	t.Helper()
	eng := relational.New("muxsrv")
	if err := eng.Store("events", events); err != nil {
		t.Fatal(err)
	}
	srv, err := server.Serve(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	t.Cleanup(srv.Close)
	return srv
}

// muxEventsSub builds the standard dataset-replay subscription the mux
// tests open many copies of.
func muxEventsSub(t *testing.T, events *table.Table, pk pipelineKind, credit uint32) wire.StreamSub {
	t.Helper()
	sp, err := pk.build(stream.NewReplay(events, "ts")).Spec()
	if err != nil {
		t.Fatal(err)
	}
	return wire.StreamSub{
		SourceKind: wire.StreamSrcDataset,
		Dataset:    "events", TimeCol: "ts",
		Spec:   sp,
		Credit: credit,
	}
}

// canonRows renders a table as sorted canonical row encodings without a
// testing.T, so concurrent drain goroutines can use it.
func canonRows(tab *table.Table) []string {
	rows := make([]string, tab.NumRows())
	var buf []byte
	for i := 0; i < tab.NumRows(); i++ {
		buf = buf[:0]
		for c := 0; c < tab.NumCols(); c++ {
			buf = value.AppendKey(buf, tab.Value(i, c))
		}
		rows[i] = string(buf)
	}
	sortStrings(rows)
	return rows
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// baselineRows drains one subscription on a second, otherwise idle mux:
// the single-stream reference every multiplexed sibling must match.
func baselineRows(t *testing.T, srv *server.Server, sub wire.StreamSub) []string {
	t.Helper()
	mx, err := DialMux(srv.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	s, err := mx.Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := drainRows(s)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// drainRows consumes a subscription to its end and returns its sorted
// canonical rows (goroutine-safe: no testing.T).
func drainRows(s *Subscription) ([]string, error) {
	collect := stream.NewCollect(s.OutputSchema())
	for b := range s.Batches() {
		if b.Table == nil {
			continue
		}
		if err := collect.Emit(b.Table); err != nil {
			return nil, err
		}
	}
	if _, err := s.Wait(); err != nil {
		return nil, err
	}
	out, err := collect.Table()
	if err != nil {
		return nil, err
	}
	return canonRows(out), nil
}

// TestMuxManySubsByteIdentical is the acceptance differential: many
// subscriptions multiplexed over ONE TCP connection must each produce
// windows byte-identical to a subscription running alone on its own
// connection (256 subscriptions; 64 under -short).
func TestMuxManySubsByteIdentical(t *testing.T) {
	n := 256
	if testing.Short() {
		n = 64
	}
	events := evTable(41, 1200, 6)
	srv := muxServer(t, events)
	pk := diffPipelines()[0] // tumbling aggregate

	want := baselineRows(t, srv, muxEventsSub(t, events, pk, 8))
	if len(want) == 0 {
		t.Fatal("baseline produced no rows; differential is vacuous")
	}

	mx, err := DialMux(srv.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mx.Close)

	subs := make([]*Subscription, n)
	for i := range subs {
		s, err := mx.Subscribe(muxEventsSub(t, events, pk, 4))
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		subs[i] = s
	}
	got := make([][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = drainRows(subs[i])
		}(i)
	}
	wg.Wait()
	for i := range subs {
		if errs[i] != nil {
			t.Fatalf("mux subscription %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("mux subscription %d differs from the single-stream baseline (%d rows vs %d)", i, len(got[i]), len(want))
		}
	}
}

// TestMuxStalledSiblingIsolation proves per-stream credit independence:
// a subscription whose consumer reads NOTHING (credit exhausted, server
// stalled on it) must not stall a sibling sharing the connection — and
// once finally drained, the stalled stream is complete and correct too.
func TestMuxStalledSiblingIsolation(t *testing.T) {
	events := evTable(43, 1000, 6)
	srv := muxServer(t, events)
	pk := diffPipelines()[0]

	want := baselineRows(t, srv, muxEventsSub(t, events, pk, 8))

	mx, err := DialMux(srv.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mx.Close)

	// The stalled sibling: credit 1, nobody reading. The server emits
	// one batch and then blocks on credit for this stream only.
	slow, err := mx.Subscribe(muxEventsSub(t, events, pk, 1))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := mx.Subscribe(muxEventsSub(t, events, pk, 8))
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		rows []string
		err  error
	}
	fastDone := make(chan res, 1)
	go func() {
		rows, err := drainRows(fast)
		fastDone <- res{rows, err}
	}()
	select {
	case r := <-fastDone:
		if r.err != nil {
			t.Fatalf("fast sibling failed: %v", r.err)
		}
		if !reflect.DeepEqual(r.rows, want) {
			t.Fatal("fast sibling differs from baseline while sibling stalled")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fast sibling blocked behind a stalled stream: per-stream credit is not isolated")
	}

	// Now drain the stalled stream; nothing was lost while it waited.
	rows, err := drainRows(slow)
	if err != nil {
		t.Fatalf("stalled stream failed after resume: %v", err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatal("stalled stream differs from baseline after late drain")
	}
}

// TestMuxWatermarkBurstDoesNotOverflow regresses an inbox-overflow bug:
// watermark-only progress frames are not credit-bound (the server sends
// one per micro-batch), so a window spanning many micro-batches could
// flood a stalled stream's inbox with watermarks until the first
// must-deliver batch found it full and poisoned the whole mux. The fix
// caps watermarks to a dedicated slack (dropping the rest) so the
// credit-bound reserve is always free.
func TestMuxWatermarkBurstDoesNotOverflow(t *testing.T) {
	events := evTable(47, 4000, 0)
	srv := muxServer(t, events)
	// ~125 micro-batches — and as many watermark frames — per window:
	// far more than any inbox holds.
	burst := pipelineKind{"wmburst", 0, func(src stream.Source) *stream.Builder {
		return stream.NewBuilder(src).WithBatchSize(4).
			Aggregate(core.StreamWindow{Kind: core.WindowTumbling, Size: 500, Slide: 500},
				[]string{"k"}, []core.AggSpec{{Func: core.AggCount, As: "n"}})
	}}

	want := baselineRows(t, srv, muxEventsSub(t, events, burst, 8))
	if len(want) == 0 {
		t.Fatal("baseline produced no rows; regression is vacuous")
	}

	mx, err := DialMux(srv.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mx.Close)

	// The victim: credit 1 and nobody reading, so the watermark burst
	// arrives while its inbox has no consumer keeping up.
	held, err := mx.Subscribe(muxEventsSub(t, events, burst, 1))
	if err != nil {
		t.Fatal(err)
	}
	sib, err := mx.Subscribe(muxEventsSub(t, events, burst, 8))
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		rows []string
		err  error
	}
	sibDone := make(chan res, 1)
	go func() {
		rows, err := drainRows(sib)
		sibDone <- res{rows, err}
	}()
	select {
	case r := <-sibDone:
		if r.err != nil {
			t.Fatalf("sibling failed during watermark burst: %v", r.err)
		}
		if !reflect.DeepEqual(r.rows, want) {
			t.Fatal("sibling differs from baseline during watermark burst")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sibling blocked during watermark burst")
	}

	// The held stream must survive its own burst: late-drained it is
	// complete and correct, and the mux was never poisoned.
	rows, err := drainRows(held)
	if err != nil {
		t.Fatalf("held stream failed after watermark burst: %v", err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatal("held stream differs from baseline after watermark burst")
	}
	if err := mx.Err(); err != nil {
		t.Fatalf("mux poisoned by watermark burst: %v", err)
	}
}

// TestMuxInterleavedSoak mixes 64 concurrent subscriptions with
// interleaved Execute and Append calls over ONE multiplexed connection
// (run under -race in CI). Every subscription must match the
// single-stream baseline and every call must return the right answer.
func TestMuxInterleavedSoak(t *testing.T) {
	const nSubs = 64
	events := evTable(47, 800, 6)
	srv := muxServer(t, events)
	pk := diffPipelines()[2] // count windows: no lateness, quick

	want := baselineRows(t, srv, muxEventsSub(t, events, pk, 8))

	mx, err := DialMux(srv.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mx.Close)

	scan, err := core.NewScan("events", evSchema())
	if err != nil {
		t.Fatal(err)
	}
	wantScan := int64(events.NumRows())

	var wg sync.WaitGroup
	errCh := make(chan error, nSubs+8)

	for i := 0; i < nSubs; i++ {
		s, err := mx.Subscribe(muxEventsSub(t, events, pk, 4))
		if err != nil {
			t.Fatalf("subscribe %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int, s *Subscription) {
			defer wg.Done()
			rows, err := drainRows(s)
			if err != nil {
				errCh <- fmt.Errorf("sub %d: %w", i, err)
				return
			}
			if !reflect.DeepEqual(rows, want) {
				errCh <- fmt.Errorf("sub %d differs from baseline", i)
			}
		}(i, s)
	}
	// Interleaved queries on the same connection.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tab, err := mx.Execute(scan, nil)
				if err != nil {
					errCh <- fmt.Errorf("execute (worker %d, call %d): %w", g, i, err)
					return
				}
				if int64(tab.NumRows()) != wantScan {
					errCh <- fmt.Errorf("execute returned %d rows, want %d", tab.NumRows(), wantScan)
					return
				}
			}
		}(g)
	}
	// Interleaved appends to a separate sink dataset.
	chunk := evTable(48, 10, 0)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := mx.Append("soak_sink", chunk, nil); err != nil {
					errCh <- fmt.Errorf("append (worker %d, call %d): %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// All 30 appends of 10 rows landed exactly once.
	sink, err := mx.Execute(mustScan(t, "soak_sink", evSchema()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sink.NumRows() != 300 {
		t.Fatalf("sink has %d rows after 30 appends of 10, want 300", sink.NumRows())
	}
}

func mustScan(t *testing.T, name string, sch interface{ Len() int }) core.Node {
	t.Helper()
	n, err := core.NewScan(name, evSchema())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// silentServer accepts connections, answers the hello handshake, and
// then reads frames forever without ever replying — the hung-server
// scenario the per-request deadlines exist for.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, _, _, err := wire.ReadFrame(conn); err != nil { // hello
					return
				}
				if _, err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.EncodeHelloAck(wire.HelloInfo{Name: "silent"})); err != nil {
					return
				}
				for { // swallow every request, answer nothing
					if _, _, _, err := wire.ReadFrame(conn); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestMuxRequestTimeoutSilentServer is the regression for the client
// hang: a server that accepted a request and never answered used to
// hang the call forever. The exchange is bounded by RequestTimeout,
// fails with a typed *TimeoutError, and poisons the whole mux — FIFO
// correlation cannot skip a late reply, so later calls fail fast
// instead of reusing the connection.
func TestMuxRequestTimeoutSilentServer(t *testing.T) {
	addr := silentServer(t)
	mx, err := DialMuxContext(t.Context(), addr, DialOpts{RequestTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("handshake should succeed against the silent server: %v", err)
	}
	t.Cleanup(mx.Close)

	start := time.Now()
	err = mx.Store("x", evTable(1, 4, 0), nil)
	if !errors.Is(err, server.ErrTimeout) {
		t.Fatalf("want server.ErrTimeout, got %v", err)
	}
	var te *server.TimeoutError
	if !errors.As(err, &te) || te.Op != "store" {
		t.Fatalf("want *TimeoutError{Op: store}, got %#v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed out only after %v — the deadline did not bound the exchange", elapsed)
	}
	if mx.Err() == nil {
		t.Fatal("a timed-out call must poison the mux")
	}

	start = time.Now()
	if err := mx.Store("y", evTable(1, 4, 0), nil); err == nil {
		t.Fatal("store on a poisoned mux succeeded")
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("second store waited on the network instead of failing fast")
	}
}

// TestSubscribeNoLeakOnBadSubAck: a subscription on a mux dialed for it
// alone owns that mux, so a server that answers the subscribe handshake
// with garbage — or refuses it outright, which leaves a shared mux
// healthy — must leave no open client connection behind.
func TestSubscribeNoLeakOnBadSubAck(t *testing.T) {
	cases := []struct {
		name  string
		reply func(conn net.Conn, id uint64) error
	}{
		{"wrong-frame", func(conn net.Conn, _ uint64) error {
			_, err := wire.WriteFrame(conn, wire.MsgResult, []byte{9, 9})
			return err
		}},
		{"corrupt-ack", func(conn net.Conn, _ uint64) error {
			_, err := wire.WriteFrame(conn, wire.MsgSubAck, []byte{1})
			return err
		}},
		{"wrong-id-ack", func(conn net.Conn, _ uint64) error {
			var e wire.Encoder
			e.U64(99999) // not the requested subscription ID
			_, err := wire.WriteFrame(conn, wire.MsgSubAck, e.Bytes())
			return err
		}},
		{"error-reply", func(conn net.Conn, id uint64) error {
			_, err := wire.WriteFrame(conn, wire.MsgError, wire.EncodeError(id, "no such dataset"))
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			sawClose := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					sawClose <- err
					return
				}
				defer conn.Close()
				if _, _, _, err := wire.ReadFrame(conn); err != nil { // the hello
					sawClose <- err
					return
				}
				if _, err := wire.WriteFrame(conn, wire.MsgHelloAck, wire.EncodeHelloAck(wire.HelloInfo{Name: "bad"})); err != nil {
					sawClose <- err
					return
				}
				_, payload, _, err := wire.ReadFrame(conn) // the subscribe
				if err != nil {
					sawClose <- err
					return
				}
				if err := tc.reply(conn, wire.PeekID(payload)); err != nil {
					sawClose <- err
					return
				}
				// If the client closed its side, this read errors promptly.
				_, _, _, err = wire.ReadFrame(conn)
				sawClose <- err
			}()

			mx, err := DialMux(ln.Addr().String(), DialOpts{HandshakeTimeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			sub := muxEventsSub(t, evTable(3, 50, 0), diffPipelines()[0], 4)
			if _, err := mx.subscribeOwned(sub); err == nil {
				t.Fatal("subscribe succeeded against a broken handshake")
			}
			select {
			case err := <-sawClose:
				if err == nil {
					t.Fatal("server read succeeded after the failed handshake; expected the client socket closed")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("client connection leaked: server never saw it close")
			}
		})
	}
}

// TestAdmissionSubscriptionQuota: an over-quota tenant's new
// subscription is refused with the typed wire error while its in-quota
// streams — and other tenants — keep streaming; finished streams return
// their slot.
func TestAdmissionSubscriptionQuota(t *testing.T) {
	events := evTable(53, 600, 6)
	srv := muxServer(t, events)
	srv.SetAdmission(server.AdmissionConfig{
		Default: server.TenantQuota{MaxSubscriptions: 4},
		Tenants: map[string]server.TenantQuota{"gold": {MaxSubscriptions: 2}},
	})
	pk := diffPipelines()[0]

	gold, err := DialMux(srv.Addr(), DialOpts{Tenant: "gold"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gold.Close)

	// Two in-quota subscriptions, held open by withheld credit.
	s1, err := gold.Subscribe(muxEventsSub(t, events, pk, 1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := gold.Subscribe(muxEventsSub(t, events, pk, 1))
	if err != nil {
		t.Fatal(err)
	}

	// The third is over quota: typed refusal, not a generic error.
	_, err = gold.Subscribe(muxEventsSub(t, events, pk, 1))
	if err == nil {
		t.Fatal("over-quota subscribe admitted")
	}
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused, got %v", err)
	}
	var re *RefusedError
	if !errors.As(err, &re) || !re.OverQuota() {
		t.Fatalf("want *RefusedError{OverQuota}, got %#v", err)
	}

	// A different tenant is unaffected by gold's quota and streams to
	// completion while gold is at its cap.
	other, err := DialMux(srv.Addr(), DialOpts{Tenant: "bronze"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	b1, err := other.Subscribe(muxEventsSub(t, events, pk, 8))
	if err != nil {
		t.Fatalf("in-quota tenant refused while another tenant is over quota: %v", err)
	}
	if rows, err := drainRows(b1); err != nil || len(rows) == 0 {
		t.Fatalf("in-quota tenant did not stream: rows=%d err=%v", len(rows), err)
	}

	// Gold's held streams still complete (quota never touches admitted
	// streams), and a finished stream returns its slot.
	if _, err := drainRows(s1); err != nil {
		t.Fatal(err)
	}
	admitted := false
	for i := 0; i < 50; i++ { // slot release races the terminal frame
		if s4, err := gold.Subscribe(muxEventsSub(t, events, pk, 8)); err == nil {
			if _, err := drainRows(s4); err != nil {
				t.Fatal(err)
			}
			admitted = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !admitted {
		t.Fatal("slot not returned after a subscription completed")
	}
	if _, err := drainRows(s2); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionAppendQuota: append rows are charged against the
// tenant's token bucket; an exhausted bucket refuses with the typed
// error instead of failing the request generically.
func TestAdmissionAppendQuota(t *testing.T) {
	events := evTable(59, 50, 0)
	srv := muxServer(t, events)
	srv.SetAdmission(server.AdmissionConfig{
		Default: server.TenantQuota{AppendRowsPerSec: 1}, // burst 2
	})
	tr, err := DialMuxContext(t.Context(), srv.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)

	// First append is admitted (bucket positive) and overdraws it.
	if err := tr.Append("sink", evTable(60, 40, 0), nil); err != nil {
		t.Fatalf("first append refused: %v", err)
	}
	err = tr.Append("sink", evTable(61, 40, 0), nil)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused for the over-budget append, got %v", err)
	}
	var re *RefusedError
	if !errors.As(err, &re) || !re.OverQuota() {
		t.Fatalf("want *RefusedError{OverQuota}, got %#v", err)
	}
}

// TestAdmissionScanQuota: executes are admitted optimistically and
// charged by result rows; the debt refuses the next query.
func TestAdmissionScanQuota(t *testing.T) {
	events := evTable(67, 500, 0)
	srv := muxServer(t, events)
	srv.SetAdmission(server.AdmissionConfig{
		Default: server.TenantQuota{ScanRowsPerSec: 1}, // burst 2
	})
	tr, err := DialMuxContext(t.Context(), srv.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	scan, err := core.NewScan("events", evSchema())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := tr.Execute(scan, nil); err != nil {
		t.Fatalf("first execute refused: %v", err)
	}
	_, err = tr.Execute(scan, nil)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused for the over-budget execute, got %v", err)
	}
}

// TestAdmissionShedding: sustained credit stalls (slow consumers) push
// the windowed stall p99 over the configured bound, after which NEW
// subscriptions are shed with the typed error while the existing slow
// stream keeps running to completion.
func TestAdmissionShedding(t *testing.T) {
	events := evTable(71, 1500, 6)
	srv := muxServer(t, events)
	srv.SetAdmission(server.AdmissionConfig{
		ShedStallP99: time.Millisecond,
	})
	pk := diffPipelines()[0]

	mx, err := DialMux(srv.Addr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mx.Close)

	// A deliberately slow consumer: credit 1, ~10ms between reads. Each
	// server-side emit stalls on credit for ~the read gap, well over the
	// 1ms shed bound.
	slow, err := mx.Subscribe(muxEventsSub(t, events, pk, 1))
	if err != nil {
		t.Fatal(err)
	}
	collect := stream.NewCollect(slow.OutputSchema())
	reads := 0
	for b := range slow.Batches() {
		if b.Table != nil {
			if err := collect.Emit(b.Table); err != nil {
				t.Fatal(err)
			}
		}
		reads++
		if reads >= 6 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The server is now shedding: a new subscription is refused typed.
	_, err = mx.Subscribe(muxEventsSub(t, events, pk, 8))
	if err == nil {
		t.Fatal("subscribe admitted while the server is shedding")
	}
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused, got %v", err)
	}
	var re *RefusedError
	if !errors.As(err, &re) || !re.Shedding() {
		t.Fatalf("want *RefusedError{Shedding}, got %#v", err)
	}

	// The existing stream is untouched by shedding and completes.
	for b := range slow.Batches() {
		if b.Table != nil {
			if err := collect.Emit(b.Table); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := slow.Wait(); err != nil {
		t.Fatalf("existing stream killed by shedding: %v", err)
	}
}
