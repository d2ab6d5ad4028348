package federation

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/provider"
	"nexus/internal/server"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// parkProvider parks every Execute that scans the dataset "park", and
// every Store under that name, until release is closed; everything else
// runs at once. Each parked call announces itself on parked, and
// running/peak count the calls parked at once.
type parkProvider struct {
	provider.Provider
	release       chan struct{}
	parked        chan struct{}
	running, peak atomic.Int32
}

func (p *parkProvider) park() {
	n := p.running.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	p.parked <- struct{}{}
	<-p.release
	p.running.Add(-1)
}

func (p *parkProvider) Execute(plan core.Node) (*table.Table, error) {
	for _, ds := range core.DatasetNames(plan) {
		if ds == "park" {
			p.park()
		}
	}
	return p.Provider.Execute(plan)
}

func (p *parkProvider) Store(name string, t *table.Table) error {
	if name == "park" {
		p.park()
	}
	return p.Provider.Store(name, t)
}

// parkServer serves a parkProvider holding 100 sales rows as both
// "park" and "sales" over TCP, and returns it with scans of the two.
func parkServer(t *testing.T) (p *parkProvider, srv *server.Server, parkScan, fastScan core.Node) {
	t.Helper()
	e, fastScan := salesEngine(t, "park")
	if err := e.Store("park", datagen.Sales(3, 100, 10, 5)); err != nil {
		t.Fatal(err)
	}
	parkScan, err := core.NewScan("park", datagen.SalesSchema())
	if err != nil {
		t.Fatal(err)
	}
	p = &parkProvider{Provider: e, release: make(chan struct{}), parked: make(chan struct{}, 64)}
	srv, err = server.Serve(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {}
	t.Cleanup(srv.Close)
	t.Cleanup(p.unpark)
	return p, srv, parkScan, fastScan
}

// unpark releases every parked call, once.
func (p *parkProvider) unpark() {
	select {
	case <-p.release:
	default:
		close(p.release)
	}
}

// awaitParked waits until n more calls have parked.
func awaitParked(t *testing.T, p *parkProvider, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-p.parked:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d calls reached the provider", i, n)
		}
	}
}

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test: a server runs at
// most GOMAXPROCS executes per connection, and overtaking a parked
// execute needs a second slot.
func atLeastTwoProcs(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
}

// TestMuxBlockedExecuteDoesNotHoldBackSecond: a small query on a mux is
// answered while a large one sharing the connection is still running.
func TestMuxBlockedExecuteDoesNotHoldBackSecond(t *testing.T) {
	atLeastTwoProcs(t)
	p, srv, parkScan, fastScan := parkServer(t)
	mx, err := DialMux(srv.Addr(), DialOpts{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()

	slow := make(chan error, 1)
	go func() {
		res, err := mx.Execute(parkScan, nil)
		if err == nil && res.NumRows() != 100 {
			err = errors.New("parked execute: wrong row count")
		}
		slow <- err
	}()
	awaitParked(t, p, 1)
	start := time.Now()
	res, err := mx.Execute(fastScan, nil)
	if err != nil || res.NumRows() != 100 {
		t.Fatalf("second execute: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("second execute took %v", d)
	}
	select {
	case err := <-slow:
		t.Fatalf("the parked execute returned before its release: %v", err)
	default:
	}
	p.unpark()
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}

// TestMuxPushFlowsWhileExecuteBlocks: a push subscription's publishes
// and the server's credit grants keep flowing on a mux whose other call
// is a running execute.
func TestMuxPushFlowsWhileExecuteBlocks(t *testing.T) {
	p, srv, parkScan, _ := parkServer(t)
	mx, err := DialMux(srv.Addr(), DialOpts{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	slow := make(chan error, 1)
	go func() { _, err := mx.Execute(parkScan, nil); slow <- err }()
	awaitParked(t, p, 1)

	events := evTable(5, 2000, 4)
	pk := diffPipelines()[0]
	sp, err := pk.build(stream.NewReplay(events, "ts")).Spec()
	if err != nil {
		t.Fatal(err)
	}
	s, err := mx.Subscribe(wire.StreamSub{SourceKind: wire.StreamSrcPush, TimeCol: "ts", SrcSchema: evSchema(), Spec: sp, Credit: 4})
	if err != nil {
		t.Fatal(err)
	}
	// More batches than one publish window, so the stream finishes only
	// if the server's credit grants come back while the execute runs.
	pub := make(chan error, 1)
	go func() {
		for lo := 0; lo < events.NumRows(); lo += 20 {
			if err := s.Publish(events.Slice(lo, min(lo+20, events.NumRows()))); err != nil {
				pub <- err
				return
			}
		}
		pub <- s.EndInput()
	}()
	got, err := drainRows(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-pub; err != nil {
		t.Fatal(err)
	}
	want := baselineRowsOf(t, pk, events)
	if len(got) != len(want) {
		t.Fatalf("push rows: got %d, want %d", len(got), len(want))
	}
	select {
	case err := <-slow:
		t.Fatalf("the parked execute returned before its release: %v", err)
	default:
	}
	p.unpark()
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}

// baselineRowsOf is the push stream's oracle: the pipeline run in
// process over the whole table.
func baselineRowsOf(t *testing.T, pk pipelineKind, events *table.Table) []string {
	t.Helper()
	return canonRows(inProcOracle(t, events, pk, 0, 1))
}

// TestServerExecutesBoundedByGOMAXPROCS: at most GOMAXPROCS executes of
// one connection run at once; the rest wait for a slot and then run.
func TestServerExecutesBoundedByGOMAXPROCS(t *testing.T) {
	p, srv, parkScan, _ := parkServer(t)
	mx, err := DialMux(srv.Addr(), DialOpts{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	slots := runtime.GOMAXPROCS(0)
	n := slots + 2
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { _, err := mx.Execute(parkScan, nil); errs <- err }()
	}
	awaitParked(t, p, slots)
	time.Sleep(100 * time.Millisecond) // room for an execute beyond the bound to start
	if got := p.peak.Load(); got != int32(slots) {
		t.Fatalf("%d executes ran at once, want GOMAXPROCS = %d", got, slots)
	}
	p.unpark()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := p.peak.Load(); got > int32(slots) {
		t.Fatalf("%d executes ran at once, want at most %d", got, slots)
	}
}

// TestServerNoGoroutineLeftAfterCloseWithExecutes: closing a mux whose
// executes are still running leaves no server goroutine behind once
// they finish.
func TestServerNoGoroutineLeftAfterCloseWithExecutes(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		p, srv, parkScan, _ := parkServer(t)
		mx, err := DialMux(srv.Addr(), DialOpts{})
		if err != nil {
			t.Fatal(err)
		}
		n := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); _, _ = mx.Execute(parkScan, nil) }()
		}
		awaitParked(t, p, n)
		mx.Close()
		wg.Wait()
		p.unpark()
		srv.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMuxExecuteTimeoutKeepsMuxUsable: an execute that outlives its
// budget fails alone with a *TimeoutError; its late reply is dropped
// and counted, and the mux answers later calls — FIFO ones too.
func TestMuxExecuteTimeoutKeepsMuxUsable(t *testing.T) {
	p, srv, parkScan, fastScan := parkServer(t)
	mx, err := DialMux(srv.Addr(), DialOpts{RequestTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	late := metMuxLateReplies.Value()
	_, err = mx.Execute(parkScan, nil)
	var te *server.TimeoutError
	if !errors.As(err, &te) || te.Op != "execute" {
		t.Fatalf("want *TimeoutError{Op: execute}, got %v", err)
	}
	if mx.Err() != nil {
		t.Fatalf("a timed-out execute poisoned the mux: %v", mx.Err())
	}
	p.unpark()
	deadline := time.Now().Add(5 * time.Second)
	for metMuxLateReplies.Value() == late {
		if time.Now().After(deadline) {
			t.Fatal("the late reply was never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if res, err := mx.Execute(fastScan, nil); err != nil || res.NumRows() != 100 {
		t.Fatalf("execute after the timeout: %v", err)
	}
	if err := mx.Store("x", evTable(1, 4, 0), nil); err != nil {
		t.Fatalf("store after the timeout: %v", err)
	}
	if mx.Err() != nil {
		t.Fatalf("mux failed: %v", mx.Err())
	}
}

// TestMalformedExecuteBesideStore: an execute the server cannot decode
// is answered with its own ID, so the error reaches the execute and the
// store in flight beside it still gets its ack.
func TestMalformedExecuteBesideStore(t *testing.T) {
	p, srv, _, fastScan := parkServer(t)
	mx, err := DialMux(srv.Addr(), DialOpts{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	stored := make(chan error, 1)
	go func() { stored <- mx.Store("park", evTable(1, 4, 0), nil) }()
	awaitParked(t, p, 1) // the store is in flight, holding the read loop

	id := mx.allocID()
	bad := wire.EncodeExecute(id, fastScan)[:12]
	type reply struct {
		typ     wire.MsgType
		payload []byte
		err     error
	}
	exec := make(chan reply, 1)
	go func() {
		typ, payload, err := mx.call("execute", id, wire.MsgExecute, bad, nil)
		exec <- reply{typ, payload, err}
	}()
	time.Sleep(20 * time.Millisecond) // the execute frame is on the wire
	p.unpark()
	if err := <-stored; err != nil {
		t.Fatalf("store: %v", err)
	}
	r := <-exec
	if r.err != nil || r.typ != wire.MsgError {
		t.Fatalf("malformed execute: %v %v, want an error frame", r.typ, r.err)
	}
	if got, _, _ := wire.DecodeError(r.payload); got != id {
		t.Fatalf("error carries id %d, want %d", got, id)
	}
	if mx.Err() != nil {
		t.Fatalf("mux failed: %v", mx.Err())
	}
}

// flaglessProxy forwards connections to addr with the by-ID flag taken
// out of each hello: to the client it is a server that predates the
// flag and answers in request order.
func flaglessProxy(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				s, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				defer s.Close()
				typ, payload, _, err := wire.ReadFrame(c)
				if err != nil {
					return
				}
				h, err := wire.DecodeHello(payload)
				if err != nil {
					return
				}
				h.ByID = false
				if _, err := wire.WriteFrame(s, typ, wire.EncodeHello(h)); err != nil {
					return
				}
				go func() { _, _ = io.Copy(c, s); c.Close() }()
				_, _ = io.Copy(s, c)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestMuxAgainstServerIgnoringByID: against a server that answers in
// request order, concurrent executes and stores on one mux still each
// get their own answer.
func TestMuxAgainstServerIgnoringByID(t *testing.T) {
	_, srv, _, fastScan := parkServer(t)
	mx, err := DialMux(flaglessProxy(t, srv.Addr()), DialOpts{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if res, err := mx.Execute(fastScan, nil); err != nil || res.NumRows() != 100 {
				t.Errorf("execute: %v", err)
			}
		}()
		go func(i int) {
			defer wg.Done()
			if err := mx.Store("s", evTable(int64(i), 4, 0), nil); err != nil {
				t.Errorf("store: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if mx.Err() != nil {
		t.Fatalf("mux failed: %v", mx.Err())
	}
}
