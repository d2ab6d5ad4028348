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
// (DialMux); InProc runs the same mux over an in-process pipe.
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
//   - Execute and ExecuteTo calls carry a nonzero request ID, and the
//     hello asks the server to run them concurrently and answer each as
//     it finishes; their replies (result, ack, error, refusal) echo the
//     ID and are routed by it. A server that ignores the request
//     answers in request order, with the same IDs, so routing by ID is
//     right either way.
//   - Store, append, drop and list calls carry no ID. The server runs
//     them in order on its read loop, so their replies answer the
//     oldest such call (FIFO). Only result, ack, error and refusal
//     frames are peeked for an ID; every other reply is FIFO.
//   - An error or refusal whose ID names a pending subscribe or a live
//     stream goes there. A reply whose ID nothing awaits (a call that
//     timed out, a stream that ended locally) is dropped and counted.
//
// Calls are bounded by DialOpts.RequestTimeout. A timed-out ID call
// gives up its ID and fails alone; a timed-out FIFO call poisons the
// whole mux, since FIFO correlation cannot skip a late reply without
// crediting it to the next caller.
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
	calls       []*muxCall          // FIFO calls, oldest first
	idCalls     map[uint64]*muxCall // execute calls, by request ID
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
	metMuxLateReplies = obs.Default.Counter("nexus_mux_late_replies_total",
		"Replies dropped because no call or stream awaited their ID (the call timed out, or the stream ended locally).")
)

// muxCall is one in-flight request/response exchange.
type muxCall struct {
	op string
	id uint64 // the request's wire ID; 0 for the FIFO calls
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
// as a *server.TimeoutError (matches server.ErrTimeout); a mid-handshake
// failure closes the connection before returning.
func DialMuxContext(ctx context.Context, addr string, opts DialOpts) (mx *Mux, err error) {
	opts = opts.withDefaults()
	sp, htc := clientSpan(opts.Trace, "client.dial_mux", trace.String("addr", addr))
	defer func() { sp.End(err) }()
	conn, err := server.DialPeer(ctx, addr, opts.ConnectTimeout)
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
	if _, err := wire.WriteFrame(conn, wire.MsgHello, wire.EncodeHello(wire.HelloReq{Tenant: opts.Tenant, Trace: opts.Trace, ByID: true})); err != nil {
		if server.IsTimeout(err) {
			return nil, &server.TimeoutError{Op: "hello", Addr: addr, Elapsed: opts.HandshakeTimeout}
		}
		return nil, err
	}
	typ, payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		if server.IsTimeout(err) {
			return nil, &server.TimeoutError{Op: "hello", Addr: addr, Elapsed: opts.HandshakeTimeout}
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
		idCalls:     map[uint64]*muxCall{},
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

// route dispatches one inbound frame. A non-nil error is a protocol
// violation that poisons the mux.
func (m *Mux) route(typ wire.MsgType, payload []byte) error {
	switch typ {
	case wire.MsgStreamBatch, wire.MsgWindowState, wire.MsgStreamEnd, wire.MsgCredit, wire.MsgWatermark:
		id := wire.PeekID(payload)
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
		id := wire.PeekID(payload)
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
	case wire.MsgResult, wire.MsgAck, wire.MsgError, wire.MsgRefused:
		if typ == wire.MsgRefused {
			metMuxRefusals.Inc()
		}
		return m.routeReply(typ, payload)
	default:
		// Every other reply (a list's hello ack, replication data) has no
		// ID: it answers the oldest FIFO call.
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

// routeReply delivers a reply that leads with a request ID. A nonzero
// ID names an execute call or — for an error or refusal — a pending
// subscribe (the error IS its handshake answer, e.g. an admission
// refusal) or a live stream (its terminal error); one counter allocates
// all three, so the ID is unambiguous. ID 0 answers the oldest FIFO
// call. A reply nobody awaits is dropped and counted.
func (m *Mux) routeReply(typ wire.MsgType, payload []byte) error {
	id := wire.PeekID(payload)
	r := muxReply{typ: typ, payload: payload}
	isErr := typ == wire.MsgError || typ == wire.MsgRefused
	m.mu.Lock()
	var c *muxCall
	switch {
	case id == 0 && len(m.calls) > 0:
		c = m.calls[0]
		m.calls = m.calls[1:]
	case id == 0 && !isErr:
		m.mu.Unlock()
		return fmt.Errorf("federation: mux: unexpected %v with no call in flight", typ)
	case id != 0:
		if c = m.idCalls[id]; c != nil {
			delete(m.idCalls, id)
			break
		}
		if !isErr {
			break
		}
		if ch, ok := m.pendingSubs[id]; ok {
			delete(m.pendingSubs, id)
			m.mu.Unlock()
			ch <- r
			return nil
		}
		if inbox, ok := m.subs[id]; ok {
			// Must-deliver, and the inbox's terminal slot is reserved for
			// exactly this.
			defer m.mu.Unlock()
			select {
			case inbox <- subFrame{typ: typ, payload: payload}:
				return nil
			default:
				return fmt.Errorf("federation: mux: subscription %d inbox overflow on %v", id, typ)
			}
		}
	}
	m.mu.Unlock()
	if c == nil {
		metMuxLateReplies.Inc()
		return nil
	}
	c.ch <- r
	return nil
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
	for _, c := range m.idCalls {
		calls = append(calls, c)
	}
	m.idCalls = map[uint64]*muxCall{}
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

// call runs one request/response exchange: register the call — by its
// ID, or in the FIFO queue when id is 0 — and write under one lock hold
// (so queue order is wire order), then wait for the demux loop to
// deliver the answer, bounded by RequestTimeout.
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
	if id != 0 {
		m.idCalls[id] = c
	} else {
		m.calls = append(m.calls, c)
	}
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
	var r muxReply
	select {
	case r = <-c.ch:
	case <-timeout:
		terr := &server.TimeoutError{Op: op, Addr: m.addr, Elapsed: m.opts.RequestTimeout}
		if id == 0 {
			// FIFO correlation cannot abandon one reply: a late answer
			// would be credited to the next call. Poison the whole mux.
			m.failAll(terr)
			return 0, nil, terr
		}
		// An ID call gives up its ID; a late reply then matches nothing.
		m.mu.Lock()
		_, waiting := m.idCalls[id]
		delete(m.idCalls, id)
		m.mu.Unlock()
		if waiting {
			return 0, nil, terr
		}
		r = <-c.ch // the answer was routed as the timer fired
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	if met != nil {
		met.ClientBytesOut += int64(out)
		met.ClientBytesIn += int64(5 + len(r.payload))
		met.RoundTrips++
	}
	return r.typ, r.payload, nil
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
	id := m.allocID()
	sp, tc := clientSpan(metricsTrace(met), "client.executeto",
		trace.String("provider", m.name), trace.String("peer", peer.ProviderName()))
	defer func() { sp.End(err) }()
	typ, reply, err := m.call("executeto", id, wire.MsgExecuteTo, wire.EncodeExecuteTo(id, peer.PeerAddr(), storeAs, plan, tc), met)
	if err != nil {
		return err
	}
	if typ != wire.MsgAck {
		return m.replyErr("executeto", typ, reply)
	}
	_, _, shipped, err := wire.DecodeAck(reply)
	if err == nil && met != nil {
		met.PeerBytes += shipped
	}
	return err
}

// Store implements Transport.
func (m *Mux) Store(name string, tab *table.Table, met *Metrics) error {
	return m.upload("store", "client.store", wire.MsgStore, name, tab, met)
}

// Drop implements Transport (best effort).
func (m *Mux) Drop(name string, met *Metrics) {
	_, _, _ = m.call("drop", 0, wire.MsgDrop, wire.EncodeDrop(name), met)
}

// Append adds rows to a remote dataset without replacing it.
func (m *Mux) Append(name string, tab *table.Table, met *Metrics) error {
	return m.upload("append", "client.append", wire.MsgAppend, name, tab, met)
}

// upload sends a table under a dataset name — a store or an append —
// and waits for the ack.
func (m *Mux) upload(op, spanName string, msg wire.MsgType, name string, tab *table.Table, met *Metrics) (err error) {
	sp, tc := clientSpan(metricsTrace(met), spanName,
		trace.String("provider", m.name), trace.String("dataset", name))
	defer func() { sp.End(err) }()
	typ, reply, err := m.call(op, 0, msg, wire.EncodeStoreTrace(name, tab, tc), met)
	if err != nil {
		return err
	}
	if typ != wire.MsgAck {
		return m.replyErr(op, typ, reply)
	}
	return nil
}

// replyErr is the error an op's reply other than its success frame
// carries: the server's error, an admission refusal, or a protocol
// violation.
func (m *Mux) replyErr(op string, typ wire.MsgType, reply []byte) error {
	switch typ {
	case wire.MsgError:
		_, msg, _ := wire.DecodeError(reply)
		return fmt.Errorf("federation: server %s: %s", m.name, msg)
	case wire.MsgRefused:
		return decodeRefused(op, reply)
	}
	return fmt.Errorf("federation: server %s replied %v to %s", m.name, typ, op)
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
// carries (failover attempts): the subscription owns m and
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
		terr := &server.TimeoutError{Op: "subscribe", Addr: m.addr, Elapsed: m.opts.HandshakeTimeout}
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
