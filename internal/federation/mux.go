package federation

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"nexus/internal/core"
	"nexus/internal/obs"
	"nexus/internal/obs/trace"
	"nexus/internal/provider"
	"nexus/internal/server"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// Mux is the client transport: N concurrent subscriptions and
// request/response calls share ONE connection, demultiplexed by the
// per-sub wire IDs the protocol already carries. This is what "millions
// of users" needs — thousands of subscriptions per server must not mean
// thousands of sockets. The connection is usually a dialed TCP socket
// (DialMux); InProc runs the same mux over an in-memory pipe.
//
// Demultiplexing rules:
//
//   - Stream frames (batch, watermark, window state, credit, end) carry
//     a subscription ID and are routed to that subscription's inbox.
//     Each inbox is sized to the stream's whole credit window, so the
//     demux loop NEVER blocks on a slow consumer — per-stream credit
//     stays independent and one stalled subscriber cannot stall its
//     siblings. An inbox that overflows on a must-deliver frame means
//     the server overran the credit protocol, which poisons the mux.
//   - Watermark-only progress frames are droppable (the next batch
//     carries the mark), so they are discarded instead of overflowing a
//     busy inbox.
//   - Request/response replies (result, ack) answer calls in FIFO
//     order. This is sound because the server's dispatch loop is
//     sequential per connection: replies come back in request order.
//     Errors and refusals are routed by ID first (live stream, pending
//     subscribe, then the oldest call when the ID matches or is 0).
//
// Calls are bounded by DialOpts.RequestTimeout. A timed-out call
// poisons the whole mux: FIFO correlation cannot skip a late reply
// without crediting it to the next caller.
type Mux struct {
	name  string
	addr  string
	opts  DialOpts
	hello *wire.HelloInfo

	conn net.Conn

	// wmu serializes frame writes. Call registration happens under it,
	// so the FIFO call queue order always matches the order requests
	// hit the wire.
	wmu sync.Mutex

	mu          sync.Mutex
	failErr     error
	nextID      uint64
	calls       []*muxCall
	pendingSubs map[uint64]chan muxReply
	subs        map[uint64]chan subFrame

	done chan struct{} // demux loop exited; failErr final
}

var (
	_ Transport       = (*Mux)(nil)
	_ StreamTransport = (*Mux)(nil)
)

// muxWMSlack is the number of inbox slots watermark-only progress
// frames may occupy. Watermarks are not credit-bound (a replay sends
// one per micro-batch even when the consumer reads nothing), so they
// must never take the slots reserved for credit-bound frames — at most
// this many sit buffered; the rest are dropped and counted, and the
// next batch carries the mark anyway.
const muxWMSlack = 4

var (
	metMuxConns = obs.Default.Gauge("nexus_mux_connections",
		"Multiplexed client connections currently open.")
	metMuxSubs = obs.Default.Gauge("nexus_mux_subscriptions",
		"Client subscriptions currently open over multiplexed connections.")
	metMuxCalls = obs.Default.Counter("nexus_mux_calls_total",
		"Request/response calls sent over multiplexed connections.")
	metMuxDroppedWM = obs.Default.Counter("nexus_mux_dropped_watermarks_total",
		"Watermark-only progress frames dropped because a subscription's inbox was full (the next batch carries the mark).")
	metMuxRefusals = obs.Default.Counter("nexus_mux_refusals_total",
		"Admission-control refusals received over multiplexed connections.")
)

// muxCall is one in-flight request/response exchange.
type muxCall struct {
	op string
	id uint64 // the request's wire ID; 0 for store/append/drop
	ch chan muxReply
}

// muxReply is a demultiplexed answer to a call or subscribe handshake.
type muxReply struct {
	typ     wire.MsgType
	payload []byte
	err     error
}

// DialMux connects to a server: one hello exchange (carrying
// opts.Tenant) learns the provider's name, capabilities and datasets,
// then any number of concurrent subscriptions and calls share the
// connection.
func DialMux(addr string, opts DialOpts) (*Mux, error) {
	return DialMuxContext(context.Background(), addr, opts)
}

// DialMuxContext is DialMux with a caller-supplied context: the connect
// respects both ctx and opts.ConnectTimeout, and the hello exchange runs
// under opts.HandshakeTimeout, so a peer that accepts the connection but
// never answers cannot hang the caller. A budget that runs out surfaces
// as a *TimeoutError (matches ErrTimeout); a mid-handshake failure
// closes the connection before returning.
func DialMuxContext(ctx context.Context, addr string, opts DialOpts) (mx *Mux, err error) {
	opts = opts.withDefaults()
	sp, htc := clientSpan(opts.Trace, "client.dial_mux", trace.String("addr", addr))
	defer func() { sp.End(err) }()
	conn, err := dialConn(ctx, addr, opts)
	if err != nil {
		return nil, err
	}
	opts.Trace = htc // the server's handshake span parents under the dial span
	return newMux(conn, addr, opts)
}

// newMux runs the hello exchange on an established connection — a
// dialed socket or an in-process pipe — under opts.HandshakeTimeout and
// starts the demultiplexer. opts must carry its defaults. Every failure
// exit closes conn.
func newMux(conn net.Conn, addr string, opts DialOpts) (*Mux, error) {
	ok := false
	defer func() {
		if !ok {
			conn.Close()
		}
	}()
	_ = conn.SetDeadline(time.Now().Add(opts.HandshakeTimeout))
	if _, err := wire.WriteFrame(conn, wire.MsgHello, wire.EncodeHelloTrace(opts.Tenant, opts.Trace)); err != nil {
		if isTimeout(err) {
			return nil, &TimeoutError{Op: "hello", Addr: addr, Elapsed: opts.HandshakeTimeout}
		}
		return nil, err
	}
	typ, payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		if isTimeout(err) {
			return nil, &TimeoutError{Op: "hello", Addr: addr, Elapsed: opts.HandshakeTimeout}
		}
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	if typ != wire.MsgHelloAck {
		return nil, fmt.Errorf("federation: server replied %v to hello", typ)
	}
	h, err := wire.DecodeHelloAck(payload)
	if err != nil {
		return nil, err
	}
	m := &Mux{
		name:        h.Name,
		addr:        addr,
		opts:        opts,
		hello:       &h,
		conn:        conn,
		pendingSubs: map[uint64]chan muxReply{},
		subs:        map[uint64]chan subFrame{},
		done:        make(chan struct{}),
	}
	ok = true
	metMuxConns.Inc()
	go m.readLoop()
	return m, nil
}

// allocID hands out wire IDs. Calls and subscriptions draw from ONE
// counter, so an error frame's ID is unambiguous across both spaces.
func (m *Mux) allocID() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	return m.nextID
}

// readLoop is the single demultiplexer: every inbound frame is routed
// without blocking, so no stream or call can stall another.
func (m *Mux) readLoop() {
	defer metMuxConns.Dec()
	defer close(m.done)
	for {
		typ, payload, _, err := wire.ReadFrame(m.conn)
		if err != nil {
			m.failAll(fmt.Errorf("federation: mux read: %w", err))
			return
		}
		if rerr := m.route(typ, payload); rerr != nil {
			m.failAll(rerr)
			return
		}
	}
}

// peekID reads the leading u64 ID every routable payload starts with.
func peekID(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// route dispatches one inbound frame. A non-nil error is a protocol
// violation that poisons the mux.
func (m *Mux) route(typ wire.MsgType, payload []byte) error {
	switch typ {
	case wire.MsgStreamBatch, wire.MsgWindowState, wire.MsgStreamEnd, wire.MsgCredit, wire.MsgWatermark:
		id := peekID(payload)
		m.mu.Lock()
		defer m.mu.Unlock()
		inbox, ok := m.subs[id]
		if !ok {
			// The stream just ended or was cancelled locally; late
			// frames for it are expected and harmless.
			return nil
		}
		if typ == wire.MsgWatermark {
			// Watermark-only progress is NOT credit-bound — a replay can
			// send one per micro-batch while the consumer reads nothing —
			// so watermarks may only use the inbox's dedicated slack,
			// never the slots reserved for credit-bound frames. route is
			// the sole writer, so len is an upper bound on occupancy and
			// the send below cannot block.
			if len(inbox) >= muxWMSlack {
				metMuxDroppedWM.Inc()
				return nil
			}
			inbox <- subFrame{typ: typ, payload: payload}
			return nil
		}
		select {
		case inbox <- subFrame{typ: typ, payload: payload}:
			return nil
		default:
		}
		// Batches are bounded by the credit window, publish credits by
		// the publish window, and the terminal frame is one — the inbox
		// is sized for all of them plus the watermark slack, so a full
		// inbox on a must-deliver frame means the server broke the
		// credit protocol.
		return fmt.Errorf("federation: mux: subscription %d inbox overflow on %v (server overran credit)", id, typ)
	case wire.MsgSubAck:
		id := peekID(payload)
		m.mu.Lock()
		ch, ok := m.pendingSubs[id]
		if ok {
			delete(m.pendingSubs, id)
		}
		m.mu.Unlock()
		if !ok {
			return fmt.Errorf("federation: mux: subscribe ack for unknown subscription %d", id)
		}
		ch <- muxReply{typ: typ, payload: payload}
		return nil
	case wire.MsgError, wire.MsgRefused:
		if typ == wire.MsgRefused {
			metMuxRefusals.Inc()
		}
		id := peekID(payload)
		m.mu.Lock()
		if id != 0 {
			// A still-pending subscribe wins over the inbox (both are
			// registered before the request is written): the error IS the
			// handshake answer — e.g. an admission refusal.
			if ch, ok := m.pendingSubs[id]; ok {
				delete(m.pendingSubs, id)
				m.mu.Unlock()
				ch <- muxReply{typ: typ, payload: payload}
				return nil
			}
			if inbox, ok := m.subs[id]; ok {
				// Terminal error for a live stream: must-deliver, and the
				// inbox's terminal slot is reserved for exactly this.
				select {
				case inbox <- subFrame{typ: typ, payload: payload}:
					m.mu.Unlock()
					return nil
				default:
					m.mu.Unlock()
					return fmt.Errorf("federation: mux: subscription %d inbox overflow on %v", id, typ)
				}
			}
		}
		// A reply to the oldest call — but only when the ID agrees
		// (execute errors echo the call's ID; store/append/drop errors
		// carry 0). Anything else is an error for a stream that already
		// ended locally: drop it.
		if len(m.calls) > 0 && (id == 0 || id == m.calls[0].id) {
			c := m.calls[0]
			m.calls = m.calls[1:]
			m.mu.Unlock()
			c.ch <- muxReply{typ: typ, payload: payload}
			return nil
		}
		m.mu.Unlock()
		return nil
	default:
		// Result, ack, and every other request/response reply: answer
		// the oldest in-flight call (the server replies in FIFO order).
		m.mu.Lock()
		if len(m.calls) == 0 {
			m.mu.Unlock()
			return fmt.Errorf("federation: mux: unexpected %v with no call in flight", typ)
		}
		c := m.calls[0]
		m.calls = m.calls[1:]
		m.mu.Unlock()
		c.ch <- muxReply{typ: typ, payload: payload}
		return nil
	}
}

// failAll poisons the mux: every in-flight call and pending subscribe
// gets err, every live subscription's inbox is closed (their readers
// surface err via subSeverErr), and the connection is closed. The first
// error wins; later calls are no-ops for state already cleared.
func (m *Mux) failAll(err error) {
	m.mu.Lock()
	if m.failErr == nil {
		m.failErr = err
	}
	calls := m.calls
	m.calls = nil
	pend := m.pendingSubs
	m.pendingSubs = map[uint64]chan muxReply{}
	subs := m.subs
	m.subs = map[uint64]chan subFrame{}
	for _, c := range calls {
		c.ch <- muxReply{err: err}
	}
	for _, ch := range pend {
		ch <- muxReply{err: err}
	}
	for _, inbox := range subs {
		close(inbox)
	}
	m.mu.Unlock()
	m.conn.Close()
}

// severSub cuts one subscription loose from the demultiplexer (its
// reader sees a closed inbox). Idempotent.
func (m *Mux) severSub(id uint64) {
	m.mu.Lock()
	if inbox, ok := m.subs[id]; ok {
		delete(m.subs, id)
		close(inbox)
	}
	m.mu.Unlock()
}

// forgetSub is the per-subscription reader's cleanup: deregister and
// account. Runs exactly once per started subscription.
func (m *Mux) forgetSub(id uint64) {
	m.severSub(id)
	metMuxSubs.Dec()
}

// subSeverErr is the error a subscription reader reports when its inbox
// closed under it: the mux's terminal error, or a local close.
func (m *Mux) subSeverErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr != nil {
		return m.failErr
	}
	return fmt.Errorf("federation: subscription closed")
}

// Err returns the mux's terminal error, if any.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failErr
}

// Done is closed once the mux's demultiplexer has exited (Err final).
func (m *Mux) Done() <-chan struct{} { return m.done }

// Close shuts the mux down: all streams and calls fail promptly.
func (m *Mux) Close() {
	m.failAll(fmt.Errorf("federation: mux %s closed", m.name))
}

// writeRaw sends one frame that expects no direct reply (credits,
// publishes, stream closes) under the shared write lock.
func (m *Mux) writeRaw(t wire.MsgType, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	m.mu.Lock()
	ferr := m.failErr
	m.mu.Unlock()
	if ferr != nil {
		return ferr
	}
	if _, err := wire.WriteFrame(m.conn, t, payload); err != nil {
		return err
	}
	return nil
}

// call runs one request/response exchange: register in the FIFO queue
// and write under one lock hold (so queue order is wire order), then
// wait for the demux loop to deliver the answer, bounded by
// RequestTimeout.
func (m *Mux) call(op string, id uint64, msg wire.MsgType, payload []byte, met *Metrics) (wire.MsgType, []byte, error) {
	c := &muxCall{op: op, id: id, ch: make(chan muxReply, 1)}
	m.wmu.Lock()
	m.mu.Lock()
	if m.failErr != nil {
		err := m.failErr
		m.mu.Unlock()
		m.wmu.Unlock()
		return 0, nil, err
	}
	m.calls = append(m.calls, c)
	m.mu.Unlock()
	out, werr := wire.WriteFrame(m.conn, msg, payload)
	m.wmu.Unlock()
	if werr != nil {
		// A partial frame corrupts the connection's framing for every
		// stream sharing it; fail everything.
		m.failAll(fmt.Errorf("federation: mux write: %w", werr))
		return 0, nil, werr
	}
	metMuxCalls.Inc()
	var timeout <-chan time.Time
	if m.opts.RequestTimeout > 0 {
		tm := time.NewTimer(m.opts.RequestTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case r := <-c.ch:
		if r.err != nil {
			return 0, nil, r.err
		}
		if met != nil {
			met.ClientBytesOut += int64(out)
			met.ClientBytesIn += int64(5 + len(r.payload))
			met.RoundTrips++
		}
		return r.typ, r.payload, nil
	case <-timeout:
		terr := &TimeoutError{Op: op, Addr: m.addr, Elapsed: m.opts.RequestTimeout}
		// FIFO correlation cannot abandon one reply: a late answer
		// would be credited to the next call. Poison the whole mux.
		m.failAll(terr)
		return 0, nil, terr
	}
}

// ProviderName implements Transport.
func (m *Mux) ProviderName() string { return m.name }

// PeerAddr implements Transport.
func (m *Mux) PeerAddr() string { return m.addr }

// Hello returns the server's hello info (capabilities, datasets).
func (m *Mux) Hello() wire.HelloInfo { return *m.hello }

// Capabilities reconstructs the remote provider's capability set.
func (m *Mux) Capabilities() provider.Capabilities {
	return provider.FromBits(m.hello.CapBits, m.hello.Kernels)
}

// Execute implements Transport.
func (m *Mux) Execute(plan core.Node, met *Metrics) (tab *table.Table, err error) {
	id := m.allocID()
	sp, tc := clientSpan(metricsTrace(met), "client.execute", trace.String("provider", m.name))
	defer func() { sp.End(err) }()
	typ, reply, err := m.call("execute", id, wire.MsgExecute, wire.EncodeExecuteTrace(id, plan, tc), met)
	if err != nil {
		return nil, err
	}
	switch typ {
	case wire.MsgResult:
		_, tab, err := wire.DecodeResult(reply)
		return tab, err
	case wire.MsgError:
		_, msg, _ := wire.DecodeError(reply)
		return nil, fmt.Errorf("federation: server %s: %s", m.name, msg)
	case wire.MsgRefused:
		return nil, decodeRefused("execute", reply)
	}
	return nil, fmt.Errorf("federation: server %s replied %v to execute", m.name, typ)
}

// ExecuteTo implements Transport.
func (m *Mux) ExecuteTo(plan core.Node, peer Transport, storeAs string, met *Metrics) (err error) {
	peerAddr := peer.PeerAddr()
	if peerAddr == "" {
		return fmt.Errorf("federation: peer %s has no dialable address", peer.ProviderName())
	}
	id := m.allocID()
	sp, _ := clientSpan(metricsTrace(met), "client.executeto",
		trace.String("provider", m.name), trace.String("peer", peer.ProviderName()))
	defer func() { sp.End(err) }()
	typ, reply, err := m.call("executeto", id, wire.MsgExecuteTo, wire.EncodeExecuteTo(id, peerAddr, storeAs, plan), met)
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgAck:
		_, _, shipped, err := wire.DecodeAck(reply)
		if err != nil {
			return err
		}
		if met != nil {
			met.PeerBytes += shipped
		}
		return nil
	case wire.MsgError:
		_, msg, _ := wire.DecodeError(reply)
		return fmt.Errorf("federation: server %s: %s", m.name, msg)
	case wire.MsgRefused:
		return decodeRefused("executeto", reply)
	}
	return fmt.Errorf("federation: server %s replied %v to executeto", m.name, typ)
}

// Store implements Transport.
func (m *Mux) Store(name string, tab *table.Table, met *Metrics) (err error) {
	sp, tc := clientSpan(metricsTrace(met), "client.store",
		trace.String("provider", m.name), trace.String("dataset", name))
	defer func() { sp.End(err) }()
	typ, reply, err := m.call("store", 0, wire.MsgStore, wire.EncodeStoreTrace(name, tab, tc), met)
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgAck:
		return nil
	case wire.MsgError:
		_, msg, _ := wire.DecodeError(reply)
		return fmt.Errorf("federation: server %s: %s", m.name, msg)
	case wire.MsgRefused:
		return decodeRefused("store", reply)
	}
	return fmt.Errorf("federation: server %s replied %v to store", m.name, typ)
}

// Drop implements Transport (best effort).
func (m *Mux) Drop(name string, met *Metrics) {
	_, _, _ = m.call("drop", 0, wire.MsgDrop, wire.EncodeDrop(name), met)
}

// Append adds rows to a remote dataset without replacing it.
func (m *Mux) Append(name string, tab *table.Table, met *Metrics) (err error) {
	sp, tc := clientSpan(metricsTrace(met), "client.append",
		trace.String("provider", m.name), trace.String("dataset", name))
	defer func() { sp.End(err) }()
	typ, reply, err := m.call("append", 0, wire.MsgAppend, wire.EncodeStoreTrace(name, tab, tc), met)
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgAck:
		return nil
	case wire.MsgError:
		_, msg, _ := wire.DecodeError(reply)
		return fmt.Errorf("federation: server %s: %s", m.name, msg)
	case wire.MsgRefused:
		return decodeRefused("append", reply)
	}
	return fmt.Errorf("federation: server %s replied %v to append", m.name, typ)
}

// Subscribe implements StreamTransport: the subscription shares this
// mux's connection with every sibling. Its inbox reserves the whole
// credit window plus the publish window and the terminal frame for
// credit-bound frames, plus a bounded slack for droppable watermarks,
// so the demux loop can always route its frames without blocking —
// one stalled consumer stalls only its own stream.
func (m *Mux) Subscribe(sub wire.StreamSub) (*Subscription, error) {
	return m.subscribe(sub, false)
}

// subscribeOwned opens the one subscription a mux dialed for it alone
// carries (InProc, failover attempts): the subscription owns m and
// closes it when its reader ends, and a failed subscribe closes m at
// once.
func (m *Mux) subscribeOwned(sub wire.StreamSub) (*Subscription, error) {
	s, err := m.subscribe(sub, true)
	if err != nil {
		m.Close()
	}
	return s, err
}

func (m *Mux) subscribe(sub wire.StreamSub, ownsMux bool) (_ *Subscription, err error) {
	sub.ID = m.allocID()
	if sub.Credit == 0 {
		sub.Credit = DefaultCredit
	}
	// A traced subscription gets a client span that lives as long as
	// the stream; the server parents its subscription spans under it.
	// The span ends with the stream (reader teardown) — or here, with
	// the error, when the handshake never completes.
	sp, tc := clientSpan(sub.Trace, "client.subscribe", trace.String("provider", m.name))
	sub.Trace = tc
	defer func() {
		if err != nil {
			sp.End(err)
		}
	}()
	inbox := make(chan subFrame, int(sub.Credit)+server.PublishWindow+2+muxWMSlack)
	ack := make(chan muxReply, 1)
	m.wmu.Lock()
	m.mu.Lock()
	if m.failErr != nil {
		err := m.failErr
		m.mu.Unlock()
		m.wmu.Unlock()
		return nil, err
	}
	m.pendingSubs[sub.ID] = ack
	m.subs[sub.ID] = inbox
	m.mu.Unlock()
	_, werr := wire.WriteFrame(m.conn, wire.MsgSubscribeStream, wire.EncodeSubscribeStream(sub))
	m.wmu.Unlock()
	if werr != nil {
		m.failAll(fmt.Errorf("federation: mux write: %w", werr))
		return nil, werr
	}
	var timeout <-chan time.Time
	if m.opts.HandshakeTimeout > 0 {
		tm := time.NewTimer(m.opts.HandshakeTimeout)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case r := <-ack:
		if r.err != nil {
			return nil, r.err
		}
		switch r.typ {
		case wire.MsgSubAck:
			ackID, outSch, err := wire.DecodeSubAck(r.payload)
			if err != nil {
				m.severSub(sub.ID)
				return nil, err
			}
			if ackID != sub.ID {
				m.severSub(sub.ID)
				return nil, fmt.Errorf("federation: subscribe ack for id %d, want %d", ackID, sub.ID)
			}
			s := &Subscription{
				mx:        m,
				ownsMux:   ownsMux,
				inbox:     inbox,
				id:        sub.ID,
				outSch:    outSch,
				sp:        sp,
				out:       make(chan SubBatch, 1),
				done:      make(chan struct{}),
				closed:    make(chan struct{}),
				pubCredit: server.PublishWindow,
			}
			s.pubCond = sync.NewCond(&s.mu)
			metMuxSubs.Inc()
			go s.readLoop()
			return s, nil
		case wire.MsgError:
			m.severSub(sub.ID)
			_, msg, _ := wire.DecodeError(r.payload)
			return nil, fmt.Errorf("federation: subscribe: %s", msg)
		case wire.MsgRefused:
			m.severSub(sub.ID)
			return nil, decodeRefused("subscribe", r.payload)
		default:
			rerr := fmt.Errorf("federation: server replied %v to subscribe", r.typ)
			m.failAll(rerr)
			return nil, rerr
		}
	case <-timeout:
		// The server never acknowledged; if its pipeline starts later it
		// would stall on credit with nobody consuming. Poison the mux
		// rather than leak a half-open stream.
		terr := &TimeoutError{Op: "subscribe", Addr: m.addr, Elapsed: m.opts.HandshakeTimeout}
		m.failAll(terr)
		return nil, terr
	}
}

// TCP is the Mux under its former name.
//
// Deprecated: every connection is a Mux; use Mux.
type TCP = Mux

// DialTCP is DialMux with the default options.
//
// Deprecated: use DialMux.
func DialTCP(addr string) (*TCP, error) { return DialMux(addr, DialOpts{}) }
