package federation

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/obs"
	"nexus/internal/obs/trace"
	"nexus/internal/schema"
	"nexus/internal/wire"
)

var (
	metFailovers = obs.Default.Counter("nexus_federation_failovers_total",
		"Subscription failovers: a live subscription lost its server and moved to another address.")
	metRedials = obs.Default.Counter("nexus_federation_redial_attempts_total",
		"Dial+subscribe attempts made by failover subscriptions (first connects included).")
)

// FailoverOpts configures SubscribeFailover.
type FailoverOpts struct {
	// DialOpts bounds each dial and subscribe handshake.
	DialOpts DialOpts
	// Backoff paces reconnect attempts; nil gets a fresh wall-clock
	// seeded one. A subscription that stayed healthy for
	// Backoff.HealthyAfter resets the schedule before the next outage.
	Backoff *Backoff
	// MaxAttempts is the consecutive failed dial+subscribe attempts
	// (across all addresses) before the stream fails. 0 means
	// 4×len(addrs); negative means unlimited (bounded by ctx).
	MaxAttempts int
	// Logf receives diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// FailoverSub is a subscription that survives server loss: it holds one
// live Subscription to some address in its set — on a mux dialed for it
// alone, which the subscription closes when it ends — and, when the
// connection dies mid-stream, redials a surviving address with
// exponential-backoff-with-jitter and re-subscribes under the same
// durable key — the server restores the stream from its replicated
// checkpoint, epoch-checked. Delivery across a failover is
// at-least-once: the replica replays from the last durable checkpoint,
// which may predate the last batch the old primary sent, so consumers
// must dedup (windowed streams: key on window start).
type FailoverSub struct {
	addrs    []string
	sub      wire.StreamSub
	dialOpts DialOpts
	opts     FailoverOpts

	out    chan SubBatch
	done   chan struct{}
	closed chan struct{}

	closeOnce sync.Once
	failovers atomic.Int64

	mu      sync.Mutex
	cur     *Subscription
	curAddr string
	err     error
}

// SubscribeFailover opens a durable subscription against the first
// reachable address and keeps it alive across server loss. The
// subscription must carry a Durable key — that is where resume state
// lives; without one a failover could only restart from scratch
// silently, which no caller wants by accident.
func SubscribeFailover(ctx context.Context, addrs []string, sub wire.StreamSub, opts FailoverOpts) (*FailoverSub, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("federation: failover: no addresses")
	}
	if sub.Durable == "" {
		return nil, fmt.Errorf("federation: failover requires a Durable key (resume state lives in server checkpoints)")
	}
	if opts.Backoff == nil {
		opts.Backoff = NewBackoff(time.Now().UnixNano())
	}
	if opts.MaxAttempts == 0 {
		opts.MaxAttempts = 4 * len(addrs)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	// A traced subscription traces its dials too: every hello — the
	// first connect and each failover redial — parents a handshake span
	// under the same trace, on whichever server answered.
	if sub.Trace.Valid() && !opts.DialOpts.Trace.Valid() {
		opts.DialOpts.Trace = sub.Trace
	}
	f := &FailoverSub{
		addrs:    append([]string(nil), addrs...),
		sub:      sub,
		dialOpts: opts.DialOpts.withDefaults(),
		opts:     opts,
		out:      make(chan SubBatch, 1),
		done:     make(chan struct{}),
		closed:   make(chan struct{}),
	}
	inner, idx, err := f.connect(ctx, 0)
	if err != nil {
		return nil, err
	}
	// Any caller-supplied resume token is spent on the first subscribe;
	// re-subscribes resume from the server-side durable checkpoint.
	f.sub.Resume = nil
	f.setCur(inner, f.addrs[idx])
	go f.run(ctx, idx)
	return f, nil
}

// Batches delivers results and watermark updates across failovers until
// the stream ends or fails terminally (channel close; check Err).
func (f *FailoverSub) Batches() <-chan SubBatch { return f.out }

// OutputSchema is the schema of result batches.
func (f *FailoverSub) OutputSchema() schema.Schema { return f.current().OutputSchema() }

// Err returns the terminal error (nil after a clean end of stream).
func (f *FailoverSub) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Failovers counts completed failovers so far.
func (f *FailoverSub) Failovers() int64 { return f.failovers.Load() }

// Addr is the address currently serving the stream.
func (f *FailoverSub) Addr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.curAddr
}

// Close abandons the stream (the server keeps the durable checkpoint; a
// later SubscribeFailover under the same key resumes).
func (f *FailoverSub) Close() {
	f.closeOnce.Do(func() { close(f.closed) })
	f.current().Close()
	<-f.done
}

func (f *FailoverSub) current() *Subscription {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

func (f *FailoverSub) setCur(s *Subscription, addr string) {
	f.mu.Lock()
	f.cur, f.curAddr = s, addr
	f.mu.Unlock()
}

func (f *FailoverSub) setErr(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// run forwards batches from the live inner subscription and replaces it
// when it dies.
func (f *FailoverSub) run(ctx context.Context, idx int) {
	defer close(f.done)
	defer close(f.out)
	for {
		inner := f.current()
		healthyStart := time.Now()
		for b := range inner.Batches() {
			select {
			case f.out <- b:
			case <-f.closed:
				inner.Close()
				return
			}
		}
		_, err := inner.Wait()
		if err == nil {
			return // clean end of stream
		}
		select {
		case <-f.closed:
			return
		default:
		}
		if ctx.Err() != nil {
			f.setErr(ctx.Err())
			return
		}
		// A long healthy stretch before this outage resets the backoff
		// schedule — an isolated blip should not pay a grown delay.
		f.opts.Backoff.Observe(time.Since(healthyStart))
		f.opts.Logf("federation: subscription to %s lost (%v); failing over", f.Addr(), err)
		next, nidx, cerr := f.connect(ctx, idx+1)
		if cerr != nil {
			f.setErr(fmt.Errorf("federation: failover exhausted: %w (stream lost: %v)", cerr, err))
			return
		}
		idx = nidx
		f.failovers.Add(1)
		metFailovers.Inc()
		f.setCur(next, f.addrs[nidx])
		f.opts.Logf("federation: resumed %q on %s", f.sub.Durable, f.addrs[nidx])
	}
}

// connect tries addresses round-robin from start until a subscribe
// succeeds, backing off between failed attempts. Each attempt dials a
// fresh mux that the subscription owns.
func (f *FailoverSub) connect(ctx context.Context, start int) (*Subscription, int, error) {
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		i := ((start % len(f.addrs)) + len(f.addrs)) % len(f.addrs)
		addr := f.addrs[i]
		metRedials.Inc()
		attemptStart := time.Now()
		var sub *Subscription
		mx, err := DialMuxContext(ctx, addr, f.dialOpts)
		if err == nil {
			sub, err = mx.subscribeOwned(f.sub)
		}
		// Each dial+subscribe attempt — first connects and failover
		// redials alike — records a span under the subscription's trace,
		// so an induced failover shows the redial inside the same trace
		// the stream's windows belong to.
		if f.sub.Trace.Valid() {
			trace.Default.Emit(wireToTrace(f.sub.Trace), "client.redial",
				attemptStart, time.Since(attemptStart), []trace.Attr{
					trace.String("addr", addr),
					trace.Int("attempt", int64(attempts+1)),
				}, err)
		}
		if err == nil {
			return sub, i, nil
		}
		attempts++
		f.opts.Logf("federation: failover attempt %d at %s: %v", attempts, addr, err)
		if f.opts.MaxAttempts > 0 && attempts >= f.opts.MaxAttempts {
			return nil, 0, fmt.Errorf("federation: %d connect attempts failed, last: %w", attempts, err)
		}
		start++
		if werr := f.opts.Backoff.Wait(ctx); werr != nil {
			return nil, 0, werr
		}
	}
}
