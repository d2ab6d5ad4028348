// Package replication keeps follower servers in sync with a primary by
// shipping the primary's immutable segment files and generation-numbered
// manifests over the existing wire protocol, and lets the primary watch
// its followers' health. The design piggybacks entirely on the storage
// engine's crash-consistency machinery: segments are immutable and
// CRC-armored, the manifest names exactly the files of a generation, and
// CURRENT swaps atomically — so a follower that fetches missing segments,
// verifies them, and applies the manifest with the same
// files-before-swap ordering a local flush uses is crash-consistent at
// every instant, and a sync interrupted anywhere resumes idempotently.
//
// The follower pulls: replication granularity is the primary's flush
// granularity (each manifest request asks the primary to flush first),
// and durable stream checkpoints are mirrored every round so a
// failed-over durable subscriber resumes on the follower from the
// primary's last persisted position.
package replication

import (
	"fmt"
	"net"
	"sync"
	"time"

	"nexus/internal/federation"
	"nexus/internal/obs/trace"
	"nexus/internal/server"
	"nexus/internal/storage"
	"nexus/internal/wire"
)

// Applier is the follower-side surface the replicator drives.
// *storage.Engine implements it.
type Applier interface {
	CurrentGen() uint64
	HasSegmentFile(name string) bool
	PutReplicatedSegment(name string, data []byte) error
	ApplyReplicatedCheckpoints(set map[string][]byte) error
	ApplyReplicated(rawManifest []byte) error
}

// Config tunes a Replicator.
type Config struct {
	// Primary is the primary server's wire address.
	Primary string
	// Interval between successful sync rounds. Default 500ms.
	Interval time.Duration
	// ConnectTimeout bounds each dial. Default 5s.
	ConnectTimeout time.Duration
	// RequestTimeout bounds each request/response exchange. Default 10s.
	RequestTimeout time.Duration
	// Dial overrides the dialer (fault-injection tests wrap it).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = server.DefaultConnectTimeout
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Replicator is the follower-side sync loop: it dials the primary,
// pulls manifest deltas and missing segments, mirrors checkpoints, and
// reports its lag.
type Replicator struct {
	cfg Config
	dst Applier

	mu     sync.Mutex
	conn   net.Conn
	status wire.ReplStatus

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a replicator pulling from cfg.Primary into dst. Call Start
// to begin syncing, or SyncOnce to drive rounds manually (tests).
func New(dst Applier, cfg Config) *Replicator {
	return &Replicator{
		cfg:  cfg.withDefaults(),
		dst:  dst,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the background sync loop.
func (r *Replicator) Start() {
	r.startOnce.Do(func() { go r.loop() })
}

// Stop ends the loop and closes the primary connection. Safe to call
// without Start.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.dropConn()
	select {
	case <-r.done:
	default:
		r.startOnce.Do(func() { close(r.done) }) // loop never ran
	}
	<-r.done
}

func (r *Replicator) loop() {
	defer close(r.done)
	// Errors back off exponentially (with jitter) instead of hammering a
	// dead or struggling primary at the sync interval.
	b := federation.NewBackoff(time.Now().UnixNano())
	b.Base = r.cfg.Interval
	b.Max = 10 * r.cfg.Interval
	for {
		err := r.SyncOnce()
		wait := r.cfg.Interval
		if err != nil {
			r.cfg.Logf("replication: sync from %s: %v", r.cfg.Primary, err)
			wait = b.Next()
		} else {
			b.Reset()
		}
		select {
		case <-r.stop:
			return
		case <-time.After(wait):
		}
	}
}

// SyncOnce runs one full sync round and records its outcome in the
// replicator's status (served to the primary's monitor via
// wire.MsgReplStatus).
func (r *Replicator) SyncOnce() error {
	// Each sync round is its own root span when tracing is on — the
	// provenance trail for "where did this segment come from". Rounds
	// are background work, so they start fresh traces rather than
	// joining any client's.
	sp := trace.Default.StartRoot("repl.sync")
	err := r.syncOnce()
	r.mu.Lock()
	if err != nil {
		r.status.Err = err.Error()
		metRounds.With("error").Inc()
	} else {
		r.status.Err = ""
		r.status.LastSyncUnixNano = time.Now().UnixNano()
		metRounds.With("ok").Inc()
		metLastSync.Set(r.status.LastSyncUnixNano / 1e9)
	}
	st := r.status
	r.mu.Unlock()
	metFollowerGen.Set(int64(st.Gen))
	metPrimaryGen.Set(int64(st.PrimaryGen))
	metLag.Set(int64(st.PrimaryGen) - int64(st.Gen))
	sp.Set(trace.String("primary", r.cfg.Primary),
		trace.Int("gen", int64(st.Gen)),
		trace.Int("primary_gen", int64(st.PrimaryGen)))
	sp.End(err)
	return err
}

func (r *Replicator) syncOnce() error {
	conn, err := r.ensureConn()
	if err != nil {
		return err
	}
	// A wire-level failure poisons the connection (a half-read frame
	// cannot be resynchronized); drop it so the next round redials.
	fail := func(err error) error {
		r.dropConn()
		return err
	}

	raw, err := r.request(conn, wire.MsgReplManifest, wire.EncodeReplManifest(true), wire.MsgReplManifestData)
	if err != nil {
		return fail(err)
	}
	m, err := storage.DecodeManifest(raw)
	if err != nil {
		return fail(fmt.Errorf("replication: primary manifest: %w", err))
	}
	local := r.dst.CurrentGen()
	r.setGens(local, m.Gen)

	if m.Gen > local {
		// Fetch every referenced segment we are missing, verifying each
		// (CRC, page checksums) before it lands under its name. Segments
		// already present are content-identical by construction — they are
		// immutable and named once.
		for _, ds := range m.Datasets {
			for _, ref := range ds.Segments {
				if r.dst.HasSegmentFile(ref.File) {
					continue
				}
				payload, err := r.request(conn, wire.MsgReplFetch, wire.EncodeReplFetch(ref.File), wire.MsgReplFile)
				if err != nil {
					return fail(err)
				}
				name, data, err := wire.DecodeReplFile(payload)
				if err != nil {
					return fail(err)
				}
				if name != ref.File {
					return fail(fmt.Errorf("replication: asked for %s, got %s", ref.File, name))
				}
				if err := r.dst.PutReplicatedSegment(name, data); err != nil {
					return err
				}
				metSegsFetched.Inc()
				metFetchBytes.Add(int64(len(data)))
			}
		}
	}

	// Mirror durable stream checkpoints every round — they advance
	// without a manifest generation bump.
	ckRaw, err := r.request(conn, wire.MsgReplCkpts, nil, wire.MsgReplCkptData)
	if err != nil {
		return fail(err)
	}
	set, err := wire.DecodeReplCkptData(ckRaw)
	if err != nil {
		return fail(err)
	}
	if err := r.dst.ApplyReplicatedCheckpoints(set); err != nil {
		return err
	}

	if m.Gen > local {
		if err := r.dst.ApplyReplicated(raw); err != nil {
			return err
		}
	}
	r.setGens(r.dst.CurrentGen(), m.Gen)
	return nil
}

func (r *Replicator) setGens(local, primary uint64) {
	r.mu.Lock()
	r.status.Gen = local
	r.status.PrimaryGen = primary
	r.mu.Unlock()
}

// ensureConn returns the live primary connection, dialing if needed.
func (r *Replicator) ensureConn() (net.Conn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn != nil {
		return r.conn, nil
	}
	conn, err := r.cfg.Dial(r.cfg.Primary, r.cfg.ConnectTimeout)
	if err != nil {
		return nil, fmt.Errorf("replication: dial primary %s: %w", r.cfg.Primary, err)
	}
	r.conn = conn
	return conn, nil
}

func (r *Replicator) dropConn() {
	r.mu.Lock()
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
	r.mu.Unlock()
}

// request performs one framed request/response exchange under the
// per-request deadline.
func (r *Replicator) request(conn net.Conn, typ wire.MsgType, payload []byte, want wire.MsgType) ([]byte, error) {
	conn.SetDeadline(time.Now().Add(r.cfg.RequestTimeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := wire.WriteFrame(conn, typ, payload); err != nil {
		return nil, fmt.Errorf("replication: send %v: %w", typ, err)
	}
	rt, rp, _, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("replication: read %v reply: %w", typ, err)
	}
	if rt == wire.MsgError {
		_, msg, _ := wire.DecodeError(rp)
		return nil, fmt.Errorf("replication: primary refused %v: %s", typ, msg)
	}
	if rt != want {
		return nil, fmt.Errorf("replication: primary replied %v to %v, want %v", rt, typ, want)
	}
	return rp, nil
}

// Status snapshots the replicator's sync state — wire this into
// server.SetReplStatus so the primary's monitor can read it.
func (r *Replicator) Status() wire.ReplStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// Health implements an obs health check for the follower: failing while
// the last sync round errored or no round has succeeded yet.
func (r *Replicator) Health() error {
	st := r.Status()
	if st.Err != "" {
		return fmt.Errorf("replication: last sync failed: %s", st.Err)
	}
	if st.LastSyncUnixNano == 0 {
		return fmt.Errorf("replication: no successful sync from %s yet", r.cfg.Primary)
	}
	return nil
}
