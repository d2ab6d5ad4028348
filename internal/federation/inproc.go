package federation

import (
	"fmt"
	"runtime"
	"sync"

	"nexus/internal/core"
	"nexus/internal/provider"
	"nexus/internal/server"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// InProc is the in-process transport: muxes whose connections are pipes
// into the same server code a TCP connection reaches, so every plan,
// result, store and peer push crosses real protocol frames and Metrics
// counts the bytes those frames carried. The provider is hosted at an
// in-process address (PeerAddr) that server.DialPeer resolves, so a
// server's ExecuteTo pushes to an InProc peer exactly as it pushes to a
// TCP one. Benchmarks use it to isolate protocol economics from socket
// noise.
//
// A server runs one connection's stores, appends and drops in order on
// its read loop, so each call borrows an idle mux and opens another
// pipe when every mux is busy: concurrent calls run in parallel, as
// against the provider itself.
// Calls carry no request budget, because the provider runs in this
// process for as long as a direct call would. Each subscription gets a
// pipe of its own.
type InProc struct {
	name string
	host *server.PipeHost
	pool *muxPool
}

var _ StreamTransport = (*InProc)(nil)

// NewInProc hosts a provider at a fresh in-process address. The first
// call opens a pipe; Close releases the pipes and the address. A
// transport dropped without Close releases them once it is collected.
func NewInProc(p provider.Provider) *InProc {
	h := server.HostPipe(p)
	t := &InProc{name: p.Name(), host: h, pool: &muxPool{addr: h.Addr}}
	runtime.AddCleanup(t, (*muxPool).close, t.pool)
	return t
}

// ProviderName implements Transport.
func (t *InProc) ProviderName() string { return t.name }

// PeerAddr implements Transport: the in-process address.
func (t *InProc) PeerAddr() string { return t.host.Addr }

// Execute implements Transport.
func (t *InProc) Execute(plan core.Node, met *Metrics) (tab *table.Table, err error) {
	err = t.pool.borrow(func(m *Mux) (err error) { tab, err = m.Execute(plan, met); return err })
	return tab, err
}

// ExecuteTo implements Transport.
func (t *InProc) ExecuteTo(plan core.Node, peer Transport, storeAs string, met *Metrics) error {
	return t.pool.borrow(func(m *Mux) error { return m.ExecuteTo(plan, peer, storeAs, met) })
}

// Store implements Transport.
func (t *InProc) Store(name string, tab *table.Table, met *Metrics) error {
	return t.pool.borrow(func(m *Mux) error { return m.Store(name, tab, met) })
}

// Drop implements Transport (best effort).
func (t *InProc) Drop(name string, met *Metrics) {
	_ = t.pool.borrow(func(m *Mux) error { m.Drop(name, met); return nil })
}

// Subscribe implements StreamTransport: the subscription owns a mux on
// a pipe of its own and closes it when its reader ends.
func (t *InProc) Subscribe(sub wire.StreamSub) (*Subscription, error) {
	m, err := t.pool.dial()
	if err != nil {
		return nil, err
	}
	return m.subscribeOwned(sub)
}

// Close shuts the transport's muxes and withdraws the in-process
// address. Subscriptions already open keep running.
func (t *InProc) Close() {
	t.pool.close()
	t.host.Close()
}

// muxPool holds the idle muxes of one in-process address. It must not
// reference its InProc, whose collection closes it.
type muxPool struct {
	addr string

	mu     sync.Mutex
	idle   []*Mux
	closed bool
}

// borrow runs f on an idle mux, dialing a new pipe when every mux is
// busy, and returns the mux afterwards. A failed mux, one returned
// after close, and one beyond GOMAXPROCS idle pipes are closed instead.
func (p *muxPool) borrow(f func(*Mux) error) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("federation: transport %s closed", p.addr)
	}
	var m *Mux
	if n := len(p.idle); n > 0 {
		m, p.idle = p.idle[n-1], p.idle[:n-1]
	}
	p.mu.Unlock()
	if m == nil {
		var err error
		if m, err = p.dial(); err != nil {
			return err
		}
	}
	err := f(m)
	p.mu.Lock()
	keep := !p.closed && m.Err() == nil && len(p.idle) < runtime.GOMAXPROCS(0)
	if keep {
		p.idle = append(p.idle, m)
	}
	p.mu.Unlock()
	if !keep {
		m.Close()
	}
	return err
}

// dial opens a mux on a fresh pipe, with no request budget.
func (p *muxPool) dial() (*Mux, error) {
	return DialMux(p.addr, DialOpts{RequestTimeout: -1})
}

// close closes the idle muxes; borrowed ones close when returned.
func (p *muxPool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, m := range idle {
		m.Close()
	}
}
