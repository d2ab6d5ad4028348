// Package server hosts any nexus provider behind the wire protocol on a
// TCP listener or, for in-process providers, on pipes (HostPipe).
// Servers accept whole plans (expression trees), store shipped
// intermediates, and — the interoperation desideratum — push results
// directly to peer servers on request, so multi-server plans never
// route intermediates through the application tier.
package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sync"
	"time"

	"nexus/internal/engines/exec"
	"nexus/internal/obs/trace"
	"nexus/internal/provider"
	"nexus/internal/wire"
)

// CheckpointStore persists opaque subscription checkpoints. A durable
// data directory (internal/storage.Store) implements it; the server
// stays decoupled from the storage engine's package.
type CheckpointStore interface {
	SaveCheckpoint(key string, data []byte) error
	LoadCheckpoint(key string) ([]byte, bool, error)
	DeleteCheckpoint(key string) error
	Checkpoints() ([]string, error)
}

// ReplSource is a provider that can act as a replication primary:
// it serves its encoded manifest (optionally after flushing dirty
// tails), raw segment files by manifest name, and its durable stream
// checkpoint set. storage.Engine implements it, so any durable server
// — including test helpers — is a primary with no extra wiring.
type ReplSource interface {
	ReplManifest(flush bool) ([]byte, error)
	ReplFile(name string) ([]byte, error)
	ReplCheckpoints() (map[string][]byte, error)
}

// Server exposes one provider on a TCP address.
type Server struct {
	prov provider.Provider
	ln   net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]*connCtx // value set once the handler builds it

	// exprCache is shared by every streaming subscription the server
	// hosts, so a plan subscribed N times compiles once.
	cacheOnce sync.Once
	exprCache *exec.ExprCache

	// ckpt + ckptEvery enable durable subscription checkpoints (see
	// EnableCheckpoints); guarded by mu — connections may already be
	// arriving when EnableCheckpoints runs.
	ckpt      CheckpointStore
	ckptEvery time.Duration

	// replStatus, when set, answers MsgReplStatus probes — a replica
	// reports its sync state on its main port so a primary-side monitor
	// needs no second listener. Guarded by mu.
	replStatus func() wire.ReplStatus

	// adm, when set, applies per-tenant quotas and backpressure shedding
	// to new work (see SetAdmission). Guarded by mu.
	adm *admission

	// Logf receives diagnostics; defaults to log.Printf. Tests silence it.
	Logf func(format string, args ...any)
}

// Serve starts a server for the provider on addr (e.g. "127.0.0.1:0").
func Serve(prov provider.Provider, addr string) (*Server, error) {
	return ServeWithCheckpoints(prov, addr, nil, 0)
}

// ServeWithCheckpoints is Serve with durable subscription checkpoints
// enabled before the listener accepts its first connection, so even a
// subscriber that dials the instant the port opens gets checkpointing.
func ServeWithCheckpoints(prov provider.Provider, addr string, cs CheckpointStore, every time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	s := &Server{prov: prov, ln: ln, conns: map[net.Conn]*connCtx{}, Logf: log.Printf, ckpt: cs, ckptEvery: every}
	go s.acceptLoop()
	return s, nil
}

// cache returns the server's shared compiled-expression cache.
func (s *Server) cache() *exec.ExprCache {
	s.cacheOnce.Do(func() { s.exprCache = exec.NewExprCache() })
	return s.exprCache
}

// EnableCheckpoints turns on durable subscription checkpoints: every
// hosted pipeline whose subscription carries a Durable key persists its
// state to cs on the given interval (and at detach or disconnect), and
// a re-subscription under the same key resumes from the stored state.
// Connections established after the call see the store; call it before
// subscribers are expected.
func (s *Server) EnableCheckpoints(cs CheckpointStore, every time.Duration) {
	s.mu.Lock()
	s.ckpt = cs
	s.ckptEvery = every
	s.mu.Unlock()
}

// SetReplStatus installs the callback answering MsgReplStatus probes
// (a replica's sync state). Connections established after the call see
// it; install before replication starts.
func (s *Server) SetReplStatus(fn func() wire.ReplStatus) {
	s.mu.Lock()
	s.replStatus = fn
	s.mu.Unlock()
}

// ResumeSensitiveDatasets reports the datasets whose on-disk row order
// hosted streams depend on: every active dataset-replay subscription's
// dataset, plus every dataset named by a stored durable checkpoint with
// a dataset source. Their resume positions are row offsets into the
// replay in storage order, so a background compactor must exclude them
// — re-sorting the rows would make a stored offset skip the wrong
// prefix on resume (see storage.CompactOptions.Exclude). This is a
// safety veto, so it fails SAFE: an error listing or decoding the
// stored checkpoints is returned to the caller, who must treat every
// dataset as sensitive for this pass rather than compact blind.
//
// ResumeTokens of NON-durable detached dataset-replay subscriptions live
// only on the client, so the server cannot see them here — compaction
// between such a detach and its resume can still reorder the replay
// under the token's row offset. That case is handled at resume time
// instead: tokens carry the dataset's order epoch, and a resume whose
// epoch no longer matches is refused cleanly rather than silently
// replaying the wrong rows (see handleSubscribeStream).
func (s *Server) ResumeSensitiveDatasets() (map[string]bool, error) {
	out := map[string]bool{}
	s.mu.Lock()
	ccs := make([]*connCtx, 0, len(s.conns))
	for _, cc := range s.conns {
		if cc != nil {
			ccs = append(ccs, cc)
		}
	}
	ckpt := s.ckpt
	s.mu.Unlock()
	for _, cc := range ccs {
		cc.datasetStreams(out)
	}
	if ckpt == nil {
		return out, nil
	}
	keys, err := ckpt.Checkpoints()
	if err != nil {
		return nil, fmt.Errorf("server: list checkpoints: %w", err)
	}
	for _, k := range keys {
		data, ok, err := ckpt.LoadCheckpoint(k)
		if err != nil {
			return nil, fmt.Errorf("server: checkpoint %q: %w", k, err)
		}
		if !ok {
			continue // retired between the listing and the load
		}
		sub, err := wire.DecodeSubscribeStream(data)
		if err != nil {
			return nil, fmt.Errorf("server: checkpoint %q: %w", k, err)
		}
		if sub.SourceKind == wire.StreamSrcDataset && sub.Dataset != "" {
			out[sub.Dataset] = true
		}
	}
	return out, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Provider returns the hosted provider.
func (s *Server) Provider() provider.Provider { return s.prov }

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				s.Logf("server %s: accept: %v", s.prov.Name(), err)
			}
			return
		}
		s.mu.Lock()
		s.conns[conn] = nil
		s.mu.Unlock()
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Logf is read lazily at log time: tests install their logger right
	// after Serve returns, before any traffic arrives.
	s.mu.Lock()
	ckpt, ckptEvery, replStatus, adm := s.ckpt, s.ckptEvery, s.replStatus, s.adm
	s.mu.Unlock()
	cc := &connCtx{
		prov: s.prov, conn: conn, cache: s.cache(),
		ckpt: ckpt, ckptEvery: ckptEvery,
		replStatus: replStatus, adm: adm,
		subs: map[uint64]*subSession{},
		logf: func(format string, args ...any) { s.Logf(format, args...) },
	}
	s.mu.Lock()
	if _, ok := s.conns[conn]; ok {
		s.conns[conn] = cc
	}
	s.mu.Unlock()
	if err := cc.serve(); err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				s.Logf("server %s: %v", s.prov.Name(), err)
			}
		}
	}
}

// ServeConnCached serves the wire protocol — including long-running
// stream subscriptions — on an already-established connection with a
// caller-owned compiled-expression cache, returning when the connection
// ends. The returned error is the terminal condition: nil on clean
// shutdown, ErrSubscriberGone when the peer vanished under an active
// subscription, or the first dispatch failure. In-process addresses
// (HostPipe) run every pipe through this entry point, so in-process and
// TCP clients exercise one code path.
func ServeConnCached(prov provider.Provider, conn net.Conn, cache *exec.ExprCache) error {
	defer conn.Close()
	cc := &connCtx{prov: prov, conn: conn, cache: cache, subs: map[uint64]*subSession{}, logf: func(string, ...any) {}}
	err := cc.serve()
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// connCtx is one connection's server-side state: the hosted provider, a
// write lock serializing frames from the dispatch loop and from
// subscription pipelines, and the live subscriptions.
type connCtx struct {
	prov  provider.Provider
	conn  net.Conn
	cache *exec.ExprCache
	logf  func(format string, args ...any)

	// ckpt enables durable subscriptions on this connection (nil when
	// the host has no checkpoint store).
	ckpt      CheckpointStore
	ckptEvery time.Duration

	// replStatus answers MsgReplStatus probes (nil when this server is
	// not a replica).
	replStatus func() wire.ReplStatus

	// adm applies admission control (nil when the host has none).
	adm *admission

	wmu sync.Mutex // serializes frame writes

	mu     sync.Mutex
	subs   map[uint64]*subSession
	subErr error // first gone-subscriber error (survives sub removal)

	// tenant is the hello-declared tenant token ("" for anonymous or
	// pre-hello traffic); admT caches its admission state. Guarded by mu.
	tenant string
	admT   *tenantState

	// execSlots is nil until the client's hello asks for execute replies
	// by ID (wire.HelloReq.ByID); from then on each execute runs on its
	// own goroutine holding one of its GOMAXPROCS slots. Only the read
	// loop reads or sets the field. execs tracks those goroutines, and
	// execErr (guarded by mu) keeps the first reply one failed to write.
	execSlots chan struct{}
	execs     sync.WaitGroup
	execErr   error
}

// setTenant records the connection's hello-declared tenant token.
func (cc *connCtx) setTenant(token string) {
	cc.mu.Lock()
	if token != cc.tenant {
		cc.tenant = token
		cc.admT = nil
	}
	cc.mu.Unlock()
}

// tenantState resolves this connection's admission accounting, lazily —
// a client that never sent a tenant token is the anonymous tenant.
func (cc *connCtx) tenantState() *tenantState {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.admT == nil {
		cc.admT = cc.adm.tenant(cc.tenant)
	}
	return cc.admT
}

// refuseFrame writes the typed admission refusal for a request.
func (cc *connCtx) refuseFrame(id uint64, r *refusal) error {
	return cc.writeFrame(wire.MsgRefused, wire.EncodeRefused(id, r.code, r.msg))
}

// noteSubErr records the first gone-subscriber error on the connection.
func (cc *connCtx) noteSubErr(err error) {
	metSubGone.Inc()
	cc.mu.Lock()
	if cc.subErr == nil {
		cc.subErr = err
	}
	cc.mu.Unlock()
}

// writeFrame writes one frame under the connection's write lock.
func (cc *connCtx) writeFrame(t wire.MsgType, payload []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	_, err := wire.WriteFrame(cc.conn, t, payload)
	return err
}

// removeSub forgets a finished subscription.
func (cc *connCtx) removeSub(id uint64) {
	cc.mu.Lock()
	delete(cc.subs, id)
	cc.mu.Unlock()
}

// datasetStreams adds the datasets of this connection's active
// dataset-replay subscriptions to out.
func (cc *connCtx) datasetStreams(out map[string]bool) {
	cc.mu.Lock()
	for _, s := range cc.subs {
		if s.dataset != "" {
			out[s.dataset] = true
		}
	}
	cc.mu.Unlock()
}

// sub looks up a live subscription.
func (cc *connCtx) sub(id uint64) (*subSession, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	s, ok := cc.subs[id]
	return s, ok
}

// serve runs the read loop until the connection ends, waits for the
// executes still running off it, then releases any still-running
// subscriptions. If the peer vanished while subscriptions were live,
// the terminal error is ErrSubscriberGone.
func (cc *connCtx) serve() error {
	metConns.Inc()
	defer metConns.Dec()
	var readErr error
	for {
		typ, payload, _, err := wire.ReadFrame(cc.conn)
		if err != nil {
			readErr = err
			break
		}
		if err := cc.dispatch(typ, payload); err != nil {
			readErr = err
			break
		}
	}
	cc.execs.Wait()
	// Connection over: mark every live subscription's subscriber gone and
	// wait for their pipelines to stop. Their queued batches fail with
	// ErrSubscriberGone rather than disappearing silently.
	cc.mu.Lock()
	live := make([]*subSession, 0, len(cc.subs))
	for _, s := range cc.subs {
		live = append(live, s)
	}
	cc.mu.Unlock()
	for _, s := range live {
		s.markGone()
	}
	for _, s := range live {
		<-s.done
	}
	cc.mu.Lock()
	subErr, execErr := cc.subErr, cc.execErr
	cc.mu.Unlock()
	if subErr != nil {
		return subErr
	}
	if execErr != nil {
		return execErr
	}
	return readErr
}

// runExecute runs one execute request, inline on the read loop like
// every other frame, or — once the client asked for replies by ID — on
// a goroutine of its own, so a small query is not answered behind a
// large one. When every slot is taken the read loop waits for one,
// which is no worse than running the request inline. A goroutine whose
// reply cannot be written closes the connection, which ends the read
// loop as an inline write failure would.
func (cc *connCtx) runExecute(handle func([]byte) error, payload []byte) error {
	slots := cc.execSlots
	if slots == nil {
		return handle(payload)
	}
	slots <- struct{}{}
	cc.execs.Add(1)
	go func() {
		defer cc.execs.Done()
		err := handle(payload)
		<-slots
		if err != nil {
			cc.mu.Lock()
			if cc.execErr == nil {
				cc.execErr = err
			}
			cc.mu.Unlock()
			cc.conn.Close()
		}
	}()
	return nil
}

func (cc *connCtx) dispatch(typ wire.MsgType, payload []byte) error {
	switch typ {
	case wire.MsgHello:
		return cc.handleHello(payload)
	case wire.MsgExecute:
		return cc.runExecute(cc.handleExecute, payload)
	case wire.MsgExecuteTo:
		return cc.runExecute(cc.handleExecuteTo, payload)
	case wire.MsgStore:
		return cc.handleStore(payload)
	case wire.MsgAppend:
		return cc.handleAppend(payload)
	case wire.MsgDrop:
		name, err := wire.DecodeDrop(payload)
		if err != nil {
			return err
		}
		cc.prov.Drop(name)
		return cc.writeFrame(wire.MsgAck, wire.EncodeAck(0, 0, 0))
	case wire.MsgList:
		return cc.handleHello(nil)
	case wire.MsgSubscribeStream:
		return cc.handleSubscribeStream(payload)
	case wire.MsgCredit:
		id, n, err := wire.DecodeCredit(payload)
		if err != nil {
			return err
		}
		if s, ok := cc.sub(id); ok {
			s.addCredit(n)
		}
		return nil
	case wire.MsgStreamPublish:
		id, t, err := wire.DecodeStreamPublish(payload)
		if err != nil {
			return err
		}
		s, ok := cc.sub(id)
		if !ok || s.push == nil {
			return cc.writeFrame(wire.MsgError, wire.EncodeError(id, "server: publish to unknown push subscription"))
		}
		if err := s.push.publish(t); err != nil {
			return cc.writeFrame(wire.MsgError, wire.EncodeError(id, err.Error()))
		}
		return nil
	case wire.MsgStreamClose:
		id, mode, err := wire.DecodeStreamClose(payload)
		if err != nil {
			return err
		}
		if s, ok := cc.sub(id); ok {
			s.close(mode)
		}
		return nil
	case wire.MsgReplManifest:
		return cc.handleReplManifest(payload)
	case wire.MsgReplFetch:
		return cc.handleReplFetch(payload)
	case wire.MsgReplCkpts:
		return cc.handleReplCkpts()
	case wire.MsgReplStatus:
		return cc.handleReplStatus()
	}
	return fmt.Errorf("unexpected message %v", typ)
}

// replSource returns the provider's replication interface, or an error
// frame payload-ready message when the provider cannot act as a primary
// (in-memory providers have no segments to ship).
func (cc *connCtx) replSource() (ReplSource, error) {
	if rs, ok := cc.prov.(ReplSource); ok {
		return rs, nil
	}
	return nil, fmt.Errorf("server: provider %s is not a replication source (not durable)", cc.prov.Name())
}

// handleReplManifest serves the encoded current manifest, flushing
// unflushed tails first when the follower asks (the normal case: the
// replication granularity is the flush granularity).
func (cc *connCtx) handleReplManifest(payload []byte) error {
	flush, err := wire.DecodeReplManifest(payload)
	if err != nil {
		return err
	}
	rs, err := cc.replSource()
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	raw, err := rs.ReplManifest(flush)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	metReplServed.With("manifest").Inc()
	return cc.writeFrame(wire.MsgReplManifestData, raw)
}

// handleReplFetch serves one raw segment file by manifest name.
func (cc *connCtx) handleReplFetch(payload []byte) error {
	name, err := wire.DecodeReplFetch(payload)
	if err != nil {
		return err
	}
	rs, err := cc.replSource()
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	data, err := rs.ReplFile(name)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	metReplServed.With("segment").Inc()
	metReplBytesOut.Add(int64(len(data)))
	return cc.writeFrame(wire.MsgReplFile, wire.EncodeReplFile(name, data))
}

// handleReplCkpts serves the durable stream checkpoint set so a
// follower can adopt failed-over durable subscribers at the primary's
// last persisted position.
func (cc *connCtx) handleReplCkpts() error {
	rs, err := cc.replSource()
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	set, err := rs.ReplCheckpoints()
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	metReplServed.With("checkpoints").Inc()
	return cc.writeFrame(wire.MsgReplCkptData, wire.EncodeReplCkptData(set))
}

// handleReplStatus reports this server's replication sync state (only
// meaningful on a replica; see Server.SetReplStatus).
func (cc *connCtx) handleReplStatus() error {
	if cc.replStatus == nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, "server: not a replica"))
	}
	return cc.writeFrame(wire.MsgReplStatusData, wire.EncodeReplStatus(cc.replStatus()))
}

func (cc *connCtx) handleHello(payload []byte) error {
	var sp *trace.Span
	if len(payload) > 0 {
		req, err := wire.DecodeHello(payload)
		if err != nil {
			return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
		}
		cc.setTenant(req.Tenant)
		if req.ByID && cc.execSlots == nil {
			cc.execSlots = make(chan struct{}, runtime.GOMAXPROCS(0))
		}
		sp = trace.Default.StartChild(traceCtx(req.Trace), "server.hello")
		sp.Set(trace.String("tenant", req.Tenant))
	}
	defer sp.End(nil)
	caps := cc.prov.Capabilities()
	h := wire.HelloInfo{
		Name:    cc.prov.Name(),
		CapBits: caps.Bits(),
		Kernels: caps.Kernels(),
	}
	if d, ok := cc.prov.(interface{ Durable() bool }); ok {
		h.Durable = d.Durable()
	}
	for _, ds := range cc.prov.Datasets() {
		var e wire.Encoder
		wire.PutSchema(&e, ds.Schema)
		h.Datasets = append(h.Datasets, wire.DatasetHello{
			Name:   ds.Name,
			Rows:   ds.Rows,
			Schema: e.Bytes(),
		})
	}
	return cc.writeFrame(wire.MsgHelloAck, wire.EncodeHelloAck(h))
}

func (cc *connCtx) handleExecute(payload []byte) error {
	id, plan, tc, err := wire.DecodeExecuteTrace(payload)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(wire.PeekID(payload), err.Error()))
	}
	sp := trace.Default.StartChild(traceCtx(tc), "server.execute")
	op := trace.Ops().Begin("query", cc.tenantName(), firstScanDataset(plan), -1, sp.Context())
	if cc.adm != nil {
		admStart := time.Now()
		r := cc.adm.admitScan(cc.tenantState())
		if sp != nil {
			aerr := error(nil)
			if r != nil {
				aerr = errors.New(r.msg)
			}
			trace.Default.Emit(sp.Context(), "server.admission", admStart, time.Since(admStart), nil, aerr)
		}
		if r != nil {
			op.End(errors.New(r.msg))
			sp.End(errors.New(r.msg))
			return cc.refuseFrame(id, r)
		}
	}
	countPlanScans(plan)
	t, err := cc.executeTraced(plan, sp)
	if err != nil {
		op.End(err)
		sp.End(err)
		return cc.writeFrame(wire.MsgError, wire.EncodeError(id, err.Error()))
	}
	if cc.adm != nil {
		cc.adm.chargeScan(cc.tenantState(), int64(t.NumRows()))
	}
	op.AddRows(int64(t.NumRows()))
	werr := cc.writeFrame(wire.MsgResult, wire.EncodeResult(id, t))
	op.End(werr)
	sp.Set(trace.Int("rows", int64(t.NumRows())))
	sp.End(werr)
	return werr
}

// handleExecuteTo executes a plan and pushes the result to a peer server,
// returning only a small ack to the requester. This realizes the paper's
// D4: "intermediate results pass directly between servers, rather than
// being routed through the application or a middle tier."
func (cc *connCtx) handleExecuteTo(payload []byte) error {
	id, peerAddr, storeAs, plan, tc, err := wire.DecodeExecuteTo(payload)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(wire.PeekID(payload), err.Error()))
	}
	if cc.adm != nil {
		if r := cc.adm.admitScan(cc.tenantState()); r != nil {
			return cc.refuseFrame(id, r)
		}
	}
	countPlanScans(plan)
	t, err := cc.prov.Execute(plan)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(id, err.Error()))
	}
	if cc.adm != nil {
		cc.adm.chargeScan(cc.tenantState(), int64(t.NumRows()))
	}
	shipped, err := PushTable(peerAddr, storeAs, t, tc)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(id, fmt.Sprintf("push to %s: %v", peerAddr, err)))
	}
	return cc.writeFrame(wire.MsgAck, wire.EncodeAck(id, int64(t.NumRows()), int64(shipped)))
}

// handleAppend adds rows to a dataset (durable providers take the WAL
// path; in-memory engines concatenate). The ack
// is only written once the rows are committed, so a client that saw it
// may rely on them surviving a crash of a durable server.
func (cc *connCtx) handleAppend(payload []byte) error {
	name, t, tc, err := wire.DecodeStoreTrace(payload)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	sp := trace.Default.StartChild(traceCtx(tc), "server.append")
	sp.Set(trace.String("dataset", name), trace.Int("rows", int64(t.NumRows())))
	op := trace.Ops().Begin("append", cc.tenantName(), name, -1, sp.Context())
	if cc.adm != nil {
		if r := cc.adm.admitAppend(cc.tenantState(), int64(t.NumRows())); r != nil {
			op.End(errors.New(r.msg))
			sp.End(errors.New(r.msg))
			return cc.refuseFrame(0, r)
		}
	}
	if err := cc.prov.Append(name, t); err != nil {
		op.End(err)
		sp.End(err)
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	metAppends.With(name).Inc()
	metAppendRows.With(name).Add(int64(t.NumRows()))
	op.AddRows(int64(t.NumRows()))
	op.End(nil)
	sp.End(nil)
	return cc.writeFrame(wire.MsgAck, wire.EncodeAck(0, int64(t.NumRows()), 0))
}

func (cc *connCtx) handleStore(payload []byte) error {
	name, t, tc, err := wire.DecodeStoreTrace(payload)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	sp := trace.Default.StartChild(traceCtx(tc), "server.store")
	sp.Set(trace.String("dataset", name), trace.Int("rows", int64(t.NumRows())))
	err = cc.prov.Store(name, t)
	sp.End(err)
	if err != nil {
		return cc.writeFrame(wire.MsgError, wire.EncodeError(0, err.Error()))
	}
	return cc.writeFrame(wire.MsgAck, wire.EncodeAck(0, int64(t.NumRows()), 0))
}
