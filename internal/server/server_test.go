package server

import (
	"context"
	"errors"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/relational"
	"nexus/internal/wire"
)

func startServer(t *testing.T) (*Server, *relational.Engine) {
	t.Helper()
	eng := relational.New("srv")
	if err := eng.Store("sales", datagen.Sales(1, 200, 20, 10)); err != nil {
		t.Fatal(err)
	}
	s, err := Serve(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = t.Logf
	t.Cleanup(s.Close)
	return s, eng
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestHelloExchange(t *testing.T) {
	s, eng := startServer(t)
	conn := dial(t, s.Addr())
	if _, err := wire.WriteFrame(conn, wire.MsgHello, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgHelloAck {
		t.Fatalf("got %v", typ)
	}
	h, err := wire.DecodeHelloAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "srv" || len(h.Datasets) != 1 || h.Datasets[0].Name != "sales" {
		t.Fatalf("hello = %+v", h)
	}
	if h.CapBits != eng.Capabilities().Bits() {
		t.Fatal("capability bits differ")
	}
}

func TestMalformedPayloadSurvives(t *testing.T) {
	s, _ := startServer(t)
	conn := dial(t, s.Addr())
	// Garbage execute payload: the server must reply MsgError, not die.
	if _, err := wire.WriteFrame(conn, wire.MsgExecute, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.MsgError {
		t.Fatalf("got %v, want error", typ)
	}
	// The same connection must still answer a hello.
	if _, err := wire.WriteFrame(conn, wire.MsgHello, nil); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err = wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgHelloAck {
		t.Fatalf("connection dead after error: %v %v", typ, err)
	}
}

func TestStoreDropRoundTrip(t *testing.T) {
	s, eng := startServer(t)
	conn := dial(t, s.Addr())
	tab := datagen.Customers(2, 10)
	if _, err := wire.WriteFrame(conn, wire.MsgStore, wire.EncodeStore("c", tab)); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgAck {
		t.Fatalf("store reply %v %v", typ, err)
	}
	if _, ok := eng.Dataset("c"); !ok {
		t.Fatal("store lost")
	}
	if _, err := wire.WriteFrame(conn, wire.MsgDrop, wire.EncodeDrop("c")); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err = wire.ReadFrame(conn)
	if err != nil || typ != wire.MsgAck {
		t.Fatalf("drop reply %v %v", typ, err)
	}
	if _, ok := eng.Dataset("c"); ok {
		t.Fatal("drop ignored")
	}
}

func TestPushTableBetweenServers(t *testing.T) {
	_, engA := startServer(t)
	sB, engB := startServer(t)
	_ = engA
	tab := datagen.Products(3, 15)
	bytes, err := PushTable(sB.Addr(), "products", tab, wire.TraceCtx{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes <= 0 {
		t.Fatal("no bytes accounted")
	}
	got, ok := engB.Dataset("products")
	if !ok || got.NumRows() != 15 {
		t.Fatal("push did not land")
	}
}

// A peer that accepts the push connection and then never answers the
// MsgStore fails the push with a typed timeout, and the client that
// asked for ExecuteTo gets an error frame naming the peer instead of
// waiting forever.
func TestExecuteToSilentPeerTimesOut(t *testing.T) {
	defer func(d time.Duration) { pushTimeout = d }(pushTimeout)
	pushTimeout = 200 * time.Millisecond
	s, _ := startServer(t)
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		for {
			c, err := silent.Accept()
			if err != nil {
				return
			}
			defer c.Close() // held open, never read from or answered
		}
	}()
	peer := silent.Addr().String()

	_, err = PushTable(peer, "x", datagen.Products(3, 15), wire.TraceCtx{})
	var te *TimeoutError
	if !errors.As(err, &te) || te.Op != "push" || !errors.Is(err, ErrTimeout) {
		t.Fatalf("PushTable to a silent peer: %v, want a push *TimeoutError", err)
	}

	conn := dial(t, s.Addr())
	scan, err := core.NewScan("sales", datagen.SalesSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WriteFrame(conn, wire.MsgExecuteTo, wire.EncodeExecuteTo(7, peer, "x", scan, wire.TraceCtx{})); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, _, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no reply to ExecuteTo with a silent peer: %v", err)
	}
	id, msg, _ := wire.DecodeError(payload)
	if typ != wire.MsgError || id != 7 || !strings.Contains(msg, peer) || !strings.Contains(msg, "timed out") {
		t.Fatalf("reply %v id %d %q, want an error for call 7 naming %s and the timeout", typ, id, msg, peer)
	}
}

// In-process addresses carry a random token: a network client that
// names a guessed pipe address in an ExecuteTo cannot push into an
// in-process provider, and a withdrawn address resolves to nothing.
func TestPipeAddressIsUnguessable(t *testing.T) {
	victim := relational.New("victim")
	a, b := HostPipe(victim), HostPipe(victim)
	defer a.Close()
	if a.Addr == b.Addr || !regexp.MustCompile(`^pipe:[0-9a-f]{16}/victim$`).MatchString(a.Addr) {
		t.Fatalf("in-process addresses %q and %q, want distinct random tokens", a.Addr, b.Addr)
	}
	b.Close()
	if conn, err := DialPeer(context.Background(), b.Addr, time.Second); err == nil {
		conn.Close()
		t.Fatalf("withdrawn address %s still resolves", b.Addr)
	}

	s, _ := startServer(t)
	conn := dial(t, s.Addr())
	scan, err := core.NewScan("sales", datagen.SalesSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i, guess := range []string{"pipe:1/victim", "pipe:2/victim"} {
		if _, err := wire.WriteFrame(conn, wire.MsgExecuteTo, wire.EncodeExecuteTo(uint64(i+1), guess, "x", scan, wire.TraceCtx{})); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if typ, _, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgError {
			t.Fatalf("ExecuteTo %s: reply %v, %v; want an error frame", guess, typ, err)
		}
	}
	if _, ok := victim.Dataset("x"); ok {
		t.Fatal("a network client pushed a dataset into an in-process provider")
	}
}

func TestCloseStopsAccepting(t *testing.T) {
	s, _ := startServer(t)
	addr := s.Addr()
	s.Close()
	if _, err := net.Dial("tcp", addr); err == nil {
		// A dial race can succeed just as the listener closes; a
		// subsequent read must fail.
		conn, _ := net.Dial("tcp", addr)
		if conn != nil {
			conn.Close()
		}
	}
}

// memCkpt is an in-memory CheckpointStore for tests.
type memCkpt struct{ m map[string][]byte }

func (c *memCkpt) SaveCheckpoint(k string, d []byte) error {
	c.m[k] = append([]byte(nil), d...)
	return nil
}
func (c *memCkpt) LoadCheckpoint(k string) ([]byte, bool, error) { d, ok := c.m[k]; return d, ok, nil }
func (c *memCkpt) DeleteCheckpoint(k string) error               { delete(c.m, k); return nil }
func (c *memCkpt) Checkpoints() ([]string, error) {
	var keys []string
	for k := range c.m {
		keys = append(keys, k)
	}
	return keys, nil
}

// TestResumeSensitiveDatasets pins the compactor guard: datasets named
// by stored dataset-mode durable checkpoints are reported (their resume
// positions are row offsets into the replay's storage order), while
// push-mode checkpoints mark nothing.
func TestResumeSensitiveDatasets(t *testing.T) {
	cs := &memCkpt{m: map[string][]byte{}}
	cs.m["job"] = wire.EncodeSubscribeStream(wire.StreamSub{
		ID: 1, SourceKind: wire.StreamSrcDataset, Dataset: "sales",
		TimeCol: "sale_id", Durable: "job", Spec: windowedSpec(t),
	})
	cs.m["pjob"] = wire.EncodeSubscribeStream(wire.StreamSub{
		ID: 2, SourceKind: wire.StreamSrcPush, Durable: "pjob", Spec: windowedSpec(t),
	})
	eng := relational.New("srv")
	if err := eng.Store("sales", datagen.Sales(1, 100, 10, 5)); err != nil {
		t.Fatal(err)
	}
	s, err := ServeWithCheckpoints(eng, "127.0.0.1:0", cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = func(string, ...any) {}
	defer s.Close()

	got, err := s.ResumeSensitiveDatasets()
	if err != nil {
		t.Fatal(err)
	}
	if !got["sales"] {
		t.Fatal("dataset-mode checkpoint did not mark its dataset resume-sensitive")
	}
	if len(got) != 1 {
		t.Fatalf("resume-sensitive set = %v, want only sales", got)
	}
	// An undecodable checkpoint fails SAFE: the caller gets an error and
	// must veto compaction entirely, not proceed with a partial set.
	cs.m["junk"] = []byte("not a subscription")
	if _, err := s.ResumeSensitiveDatasets(); err == nil {
		t.Fatal("corrupt checkpoint did not surface an error")
	}
	cs.DeleteCheckpoint("junk")
	// Retiring the checkpoint releases the dataset for compaction.
	cs.DeleteCheckpoint("job")
	if got, err := s.ResumeSensitiveDatasets(); err != nil || len(got) != 0 {
		t.Fatalf("resume-sensitive set after retirement = %v err=%v, want empty", got, err)
	}
}
