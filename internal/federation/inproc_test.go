package federation

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/relational"
	"nexus/internal/provider"
	"nexus/internal/server"
	"nexus/internal/table"
)

// gatedProvider runs gate before every Execute.
type gatedProvider struct {
	provider.Provider
	gate func()
}

func (g gatedProvider) Execute(plan core.Node) (*table.Table, error) {
	g.gate()
	return g.Provider.Execute(plan)
}

// salesEngine is a relational engine holding 100 sales rows, and a scan
// of them.
func salesEngine(t *testing.T, name string) (*relational.Engine, core.Node) {
	t.Helper()
	e := relational.New(name)
	if err := e.Store("sales", datagen.Sales(3, 100, 10, 5)); err != nil {
		t.Fatal(err)
	}
	scan, err := core.NewScan("sales", datagen.SalesSchema())
	if err != nil {
		t.Fatal(err)
	}
	return e, scan
}

// An in-process call has no request budget: an Execute that runs past
// the default budget succeeds and leaves the transport usable, as a
// direct call to the provider would.
func TestInProcExecuteOutlastsRequestBudget(t *testing.T) {
	defer func(d time.Duration) { defaultRequestTimeout = d }(defaultRequestTimeout)
	defaultRequestTimeout = 20 * time.Millisecond
	e, scan := salesEngine(t, "slow")
	tr := inProc(t, gatedProvider{e, func() { time.Sleep(100 * time.Millisecond) }})

	// The shortened default does bound a mux that takes it.
	mx, err := DialMux(tr.PeerAddr(), DialOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	if _, err := mx.Execute(scan, nil); !server.IsTimeout(err) {
		t.Fatalf("default-budget mux: err = %v, want a timeout", err)
	}

	for i := 0; i < 2; i++ {
		res, err := tr.Execute(scan, nil)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if res.NumRows() != 100 {
			t.Fatalf("call %d: %d rows", i, res.NumRows())
		}
	}
}

// Concurrent calls through one in-process transport run in parallel, as
// against the provider itself: three Executes that each wait until all
// three are inside the provider all get there.
func TestInProcConcurrentExecutes(t *testing.T) {
	const n = 3
	var arrived sync.WaitGroup
	arrived.Add(n)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	var stalled atomic.Int32
	gate := func() {
		arrived.Done()
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			stalled.Add(1)
		}
	}
	e, scan := salesEngine(t, "par")
	tr := inProc(t, gatedProvider{e, gate})

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tr.Execute(scan, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s := stalled.Load(); s != 0 {
		t.Fatalf("%d of %d concurrent Executes waited for the others in vain: calls were serialized", s, n)
	}
}

// A transport dropped without Close does not pin its provider: once the
// transport is collected its pipes close and its address goes away.
func TestInProcDroppedWithoutCloseReleasesProvider(t *testing.T) {
	e, scan := salesEngine(t, "dropped")
	wp := weak.Make(e)
	tr := NewInProc(e)
	if _, err := tr.Execute(scan, nil); err != nil {
		t.Fatal(err)
	}
	addr := tr.PeerAddr()
	e, tr = nil, nil

	deadline := time.Now().Add(5 * time.Second)
	for wp.Value() != nil {
		if time.Now().After(deadline) {
			t.Fatal("provider still reachable after its transport was dropped")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if conn, err := server.DialPeer(context.Background(), addr, time.Second); err == nil {
		conn.Close()
		t.Fatalf("%s still resolves after its transport was collected", addr)
	}
}
