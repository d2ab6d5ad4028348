package server

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"
	"weak"

	"nexus/internal/engines/exec"
	"nexus/internal/provider"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// One peer dialer: every link to a server — a client's connection and
// one server's push to another — is opened by DialPeer. A TCP address
// is dialed; an in-process address (HostPipe) becomes a net.Pipe whose
// far end this package serves, so in-process and socket peers carry the
// same frames through the same server code.

// DefaultConnectTimeout bounds a dial when the caller did not choose
// one: a dead or blackholed peer fails fast instead of hanging the
// caller on the kernel's connect timeout.
const DefaultConnectTimeout = 5 * time.Second

// DefaultRequestTimeout bounds a request/reply exchange after the
// connect when the caller did not choose one. Generous — a federated
// Execute may scan a large dataset — but finite, so a hung peer cannot
// stall its caller forever.
const DefaultRequestTimeout = 60 * time.Second

// pushTimeout bounds one server-to-server push exchange (a variable so
// tests can shorten it).
var pushTimeout = DefaultRequestTimeout

// ErrTimeout is the sentinel every peer-link timeout matches:
// errors.Is(err, ErrTimeout) holds for a connect that exceeded its
// timeout, a handshake or request that hit its deadline, and a push a
// peer never acknowledged alike.
var ErrTimeout = errors.New("nexus: timeout")

// TimeoutError is the typed error for a dial, handshake or exchange
// that ran out of time. It matches ErrTimeout under errors.Is and
// reports Timeout() == true, so callers using the net.Error convention
// see it too.
type TimeoutError struct {
	Op      string        // "dial", "hello", "subscribe", "push", or a request op
	Addr    string        // peer address
	Elapsed time.Duration // the budget that ran out
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("nexus: %s %s timed out after %v", e.Op, e.Addr, e.Elapsed)
}

// Timeout implements the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// Is makes errors.Is(err, ErrTimeout) match.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// IsTimeout reports whether err is a deadline/timeout failure: a
// *TimeoutError, a net.Error timeout, or context.DeadlineExceeded.
func IsTimeout(err error) bool {
	if errors.Is(err, ErrTimeout) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, context.DeadlineExceeded)
}

// pipeScheme prefixes every in-process address.
const pipeScheme = "pipe:"

// pipeHosts maps each in-process address to its host. It holds hosts
// weakly, so a provider whose transport was dropped without Close is
// not pinned for the life of the process.
var pipeHosts sync.Map // address → weak.Pointer[PipeHost]

// PipeHost is a provider served at an in-process address. The address
// resolves while its PipeHost is reachable and not closed.
type PipeHost struct {
	Addr  string
	prov  provider.Provider
	cache *exec.ExprCache
}

// HostPipe makes prov reachable at a fresh in-process address: DialPeer
// on it opens a pipe served like an accepted TCP connection, and every
// such connection shares one compiled-expression cache, as a TCP
// server's connections do. The address carries a random token, so a
// network client naming a peer in an ExecuteTo cannot guess its way
// into an in-process provider.
func HostPipe(prov provider.Provider) *PipeHost {
	var tok [8]byte
	_, _ = rand.Read(tok[:])
	h := &PipeHost{Addr: fmt.Sprintf("%s%x/%s", pipeScheme, tok, prov.Name()), prov: prov, cache: exec.NewExprCache()}
	pipeHosts.Store(h.Addr, weak.Make(h))
	runtime.AddCleanup(h, func(addr string) { pipeHosts.Delete(addr) }, h.Addr)
	return h
}

// Close withdraws the address; connections already open keep running.
func (h *PipeHost) Close() { pipeHosts.Delete(h.Addr) }

// DialPeer connects to the server at addr. An in-process address
// (HostPipe) gets a pipe into that provider's server; any other address
// is dialed over TCP within timeout, and running out of it is a
// *TimeoutError.
func DialPeer(ctx context.Context, addr string, timeout time.Duration) (net.Conn, error) {
	if strings.HasPrefix(addr, pipeScheme) {
		if wp, ok := pipeHosts.Load(addr); ok {
			if h := wp.(weak.Pointer[PipeHost]).Value(); h != nil {
				prov, cache := h.prov, h.cache // the connection must not pin h
				cli, srv := net.Pipe()
				go func() { _ = ServeConnCached(prov, srv, cache) }()
				return cli, nil
			}
		}
		return nil, fmt.Errorf("server: no in-process server at %s", addr)
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if IsTimeout(err) {
			return nil, &TimeoutError{Op: "dial", Addr: addr, Elapsed: timeout}
		}
		return nil, fmt.Errorf("server: dial %s: %w", addr, err)
	}
	return conn, nil
}

// PushTable stores a table on the peer server at addr and waits for the
// ack, returning the bytes moved on the peer link. The connect is
// bounded by DefaultConnectTimeout and the store exchange by
// DefaultRequestTimeout; a peer that runs either out fails the push with
// a *TimeoutError. tc, when valid, rides on the store frame so the
// peer's span parents under the requester's.
func PushTable(addr, name string, t *table.Table, tc wire.TraceCtx) (int, error) {
	conn, err := DialPeer(context.Background(), addr, DefaultConnectTimeout)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(pushTimeout))
	out, err := wire.WriteFrame(conn, wire.MsgStore, wire.EncodeStoreTrace(name, t, tc))
	if err != nil {
		return out, pushErr(addr, err)
	}
	typ, payload, in, err := wire.ReadFrame(conn)
	if err != nil {
		return out, pushErr(addr, err)
	}
	switch typ {
	case wire.MsgAck:
		return out + in, nil
	case wire.MsgError:
		_, msg, _ := wire.DecodeError(payload)
		return out + in, fmt.Errorf("server: peer %s: %s", addr, msg)
	}
	return out + in, fmt.Errorf("server: peer %s replied %v to store", addr, typ)
}

// pushErr types a push exchange that ran out of time.
func pushErr(addr string, err error) error {
	if IsTimeout(err) {
		return &TimeoutError{Op: "push", Addr: addr, Elapsed: pushTimeout}
	}
	return err
}
