package federation

import (
	"time"

	"nexus/internal/server"
	"nexus/internal/wire"
)

// DialOpts configures the network budgets of a Mux: DialMux,
// DialMuxContext and SubscribeFailover take them. The zero value gets
// the defaults.
type DialOpts struct {
	// ConnectTimeout bounds the TCP connect (default 5s).
	ConnectTimeout time.Duration
	// HandshakeTimeout bounds the hello exchange that follows the
	// connect and every subscribe ack (default: ConnectTimeout).
	HandshakeTimeout time.Duration
	// RequestTimeout bounds each request/reply exchange after the
	// handshake — Execute, Store, Append, Drop (default 60s; negative
	// disables). A server that accepts a request and then goes silent
	// fails the call with a *server.TimeoutError instead of hanging it
	// forever. A timed-out Execute or ExecuteTo fails alone (its late
	// reply is dropped by ID); after a timed-out Store, Append or Drop
	// the whole mux is poisoned, since FIFO correlation would credit a
	// late reply to the next call.
	RequestTimeout time.Duration
	// Tenant is the admission-control token sent in the hello exchange.
	// Servers with per-tenant quotas account this connection's
	// subscriptions, appends and scans against it; empty means the
	// anonymous tenant.
	Tenant string
	// Trace, when valid, is propagated on the hello exchange: the dial
	// records a client span under it and the server parents its
	// handshake span there, so connection setup shows up inside the
	// caller's trace. The zero value costs nothing.
	Trace wire.TraceCtx
}

// defaultRequestTimeout is the request budget of a zero RequestTimeout
// (a variable so tests can shorten it).
var defaultRequestTimeout = server.DefaultRequestTimeout

func (o DialOpts) withDefaults() DialOpts {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = server.DefaultConnectTimeout
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = o.ConnectTimeout
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = defaultRequestTimeout
	}
	if o.RequestTimeout < 0 {
		o.RequestTimeout = 0
	}
	return o
}
