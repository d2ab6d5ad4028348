package server

import (
	"runtime"
	"testing"
	"time"

	"nexus/internal/core"
	"nexus/internal/datagen"
	"nexus/internal/engines/relational"
	"nexus/internal/provider"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// holdProvider holds every Execute that scans "slow" until release is
// closed.
type holdProvider struct {
	provider.Provider
	release chan struct{}
}

func (p holdProvider) Execute(plan core.Node) (*table.Table, error) {
	for _, ds := range core.DatasetNames(plan) {
		if ds == "slow" {
			<-p.release
		}
	}
	return p.Provider.Execute(plan)
}

// TestHelloByIDChoosesReplyOrder: a hello without the by-ID flag — the
// layout of every client that predates it — gets execute replies in
// request order even when the first query is the slow one; a hello
// with the flag gets the fast query's reply first.
func TestHelloByIDChoosesReplyOrder(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2) // two executes at once need two slots
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
	scan := func(ds string) core.Node {
		n, err := core.NewScan(ds, datagen.SalesSchema())
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, c := range []struct {
		name  string
		hello []byte
		want  [2]uint64
	}{
		{"empty hello", nil, [2]uint64{1, 2}},
		{"old tenant hello", []byte{0, 0, 0, 4, 'a', 'c', 'm', 'e'}, [2]uint64{1, 2}},
		{"by-ID hello", wire.EncodeHello(wire.HelloReq{Tenant: "acme", ByID: true}), [2]uint64{2, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := relational.New("srv")
			for _, ds := range []string{"slow", "sales"} {
				if err := eng.Store(ds, datagen.Sales(1, 50, 5, 5)); err != nil {
					t.Fatal(err)
				}
			}
			release := make(chan struct{})
			s, err := Serve(holdProvider{eng, release}, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s.Logf = t.Logf
			defer s.Close()
			conn := dial(t, s.Addr())
			if _, err := wire.WriteFrame(conn, wire.MsgHello, c.hello); err != nil {
				t.Fatal(err)
			}
			if typ, _, _, err := wire.ReadFrame(conn); err != nil || typ != wire.MsgHelloAck {
				t.Fatalf("hello: %v %v", typ, err)
			}
			if _, err := wire.WriteFrame(conn, wire.MsgExecute, wire.EncodeExecute(1, scan("slow"))); err != nil {
				t.Fatal(err)
			}
			if _, err := wire.WriteFrame(conn, wire.MsgExecute, wire.EncodeExecute(2, scan("sales"))); err != nil {
				t.Fatal(err)
			}
			time.AfterFunc(200*time.Millisecond, func() { close(release) })
			var got [2]uint64
			for i := range got {
				typ, payload, _, err := wire.ReadFrame(conn)
				if err != nil || typ != wire.MsgResult {
					t.Fatalf("reply %d: %v %v", i, typ, err)
				}
				got[i] = wire.PeekID(payload)
			}
			if got != c.want {
				t.Fatalf("replies in order %v, want %v", got, c.want)
			}
		})
	}
}

// TestMalformedExecuteEchoesID: an execute or executeto payload the
// server cannot decode is answered with the ID it starts with, so a
// client routing by ID gives the error to the right call.
func TestMalformedExecuteEchoesID(t *testing.T) {
	s, _ := startServer(t)
	conn := dial(t, s.Addr())
	sc, err := core.NewScan("sales", datagen.SalesSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		typ     wire.MsgType
		payload []byte
	}{
		{wire.MsgExecute, wire.EncodeExecute(7, sc)[:12]},
		{wire.MsgExecuteTo, wire.EncodeExecuteTo(8, "peer", "x", sc, wire.TraceCtx{})[:14]},
	} {
		if _, err := wire.WriteFrame(conn, c.typ, c.payload); err != nil {
			t.Fatal(err)
		}
		typ, payload, _, err := wire.ReadFrame(conn)
		if err != nil || typ != wire.MsgError {
			t.Fatalf("%v: reply %v %v, want an error", c.typ, typ, err)
		}
		if id, _, _ := wire.DecodeError(payload); id != wire.PeekID(c.payload) {
			t.Fatalf("%v: error carries id %d, want %d", c.typ, id, wire.PeekID(c.payload))
		}
	}
}
