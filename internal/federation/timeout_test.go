package federation

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/schema"
	"nexus/internal/stream"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// minimalSpec is the smallest encodable stream spec: the identity plan
// over a one-column schema.
func minimalSpec(t *testing.T) stream.Spec {
	t.Helper()
	v, err := core.NewVar(stream.BatchVar, schema.New(
		schema.Attribute{Name: "ts", Kind: value.KindInt64}))
	if err != nil {
		t.Fatal(err)
	}
	return stream.Spec{Pre: v, BatchSize: 16}
}

// silentListener accepts connections and never writes a byte — the
// pathological peer a deadline-free dial would hang on forever.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			// Read and ignore so the client's writes succeed; never reply.
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln
}

// TestDialMuxContextHandshakeTimeout: a server that accepts but never
// answers the hello surfaces a typed timeout instead of blocking
// forever.
func TestDialMuxContextHandshakeTimeout(t *testing.T) {
	ln := silentListener(t)
	start := time.Now()
	_, err := DialMuxContext(context.Background(), ln.Addr().String(),
		DialOpts{HandshakeTimeout: 50 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial blocked %v; the deadline did not fire", elapsed)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %T (%v), want *TimeoutError", err, err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatal("timeout error does not match ErrTimeout")
	}
	if !te.Timeout() {
		t.Fatal("TimeoutError.Timeout() = false")
	}
	if te.Op != "hello" {
		t.Fatalf("Op = %q, want hello", te.Op)
	}
}

// TestDialMuxContextHonorsCancellation: a canceled context aborts the
// dial immediately.
func TestDialMuxContextHonorsCancellation(t *testing.T) {
	ln := silentListener(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialMuxContext(ctx, ln.Addr().String(), DialOpts{}); err == nil {
		t.Fatal("dial with canceled context succeeded")
	}
}

// TestSubscribeHandshakeTimeout: a server that answers the hello and
// accepts the subscription frame but never acks surfaces the typed
// timeout.
func TestSubscribeHandshakeTimeout(t *testing.T) {
	mx, err := DialMux(silentServer(t), DialOpts{HandshakeTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("hello should succeed against the silent server: %v", err)
	}
	t.Cleanup(mx.Close)
	start := time.Now()
	_, err = mx.Subscribe(wire.StreamSub{SourceKind: wire.StreamSrcDataset, Dataset: "d", TimeCol: "ts", Spec: minimalSpec(t)})
	if err == nil {
		t.Fatal("subscribe to a silent server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("subscribe blocked %v; the deadline did not fire", elapsed)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error %T (%v), want *TimeoutError", err, err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatal("timeout error does not match ErrTimeout")
	}
	if te.Op != "subscribe" {
		t.Fatalf("Op = %q, want subscribe", te.Op)
	}
}

// TestDialTCPDefaultHasDeadline: a TCP dial with zero DialOpts still
// carries the default handshake deadline, so no caller can hang forever
// on a silent peer.
func TestDialTCPDefaultHasDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the default 5s handshake deadline")
	}
	ln := silentListener(t)
	done := make(chan error, 1)
	go func() {
		_, err := DialMux(ln.Addr().String(), DialOpts{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dial to a silent server succeeded")
		}
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("error %v, want ErrTimeout", err)
		}
	case <-time.After(DefaultConnectTimeout + 5*time.Second):
		t.Fatal("DialMux still hangs without a deadline")
	}
}
