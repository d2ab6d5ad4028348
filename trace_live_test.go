package nexus_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/expr"
	"nexus/internal/federation"
	"nexus/internal/obs"
	"nexus/internal/obs/trace"
	"nexus/internal/replication"
	"nexus/internal/schema"
	"nexus/internal/server"
	"nexus/internal/storage"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// Cross-process trace differential: one trace id minted by a client
// Session must be visible, with correctly parented spans, at
// /debug/traces on BOTH a primary and — after an induced SIGKILL
// failover — the replica that picked the stream up. This is the
// acceptance test for distributed tracing: in-process tests cannot
// catch a context that is dropped at a process boundary, a sidecar
// serving the wrong tracer, or a redial that forgets to re-send the
// trace field.

func traceEventSchema() schema.Schema {
	return schema.New(
		schema.Attribute{Name: "ts", Kind: value.KindInt64},
		schema.Attribute{Name: "k", Kind: value.KindInt64},
		schema.Attribute{Name: "v", Kind: value.KindInt64},
	)
}

func traceEventsTable(lo, hi int) *table.Table {
	b := table.NewBuilder(traceEventSchema(), hi-lo)
	for i := lo; i < hi; i++ {
		b.MustAppend(value.NewInt(int64(i)), value.NewInt(int64(i%4)), value.NewInt(int64(i)*3))
	}
	return b.Build()
}

func traceWindowedSpec(t *testing.T) stream.Spec {
	t.Helper()
	v, err := core.NewVar(stream.BatchVar, traceEventSchema())
	if err != nil {
		t.Fatal(err)
	}
	return stream.Spec{
		Pre:      v,
		Windowed: true,
		Win:      core.StreamWindow{Kind: core.WindowTumbling, Size: 100, Slide: 100},
		Keys:     []string{"k"},
		Aggs: []core.AggSpec{
			{Func: core.AggSum, Arg: expr.Column("v"), As: "s"},
			{Func: core.AggCount, As: "n"},
		},
		BatchSize: 50,
	}
}

const traceLiveRows = 2000

// TestTraceLiveHelper is the child entry point for both roles; skipped
// unless re-executed with NEXUS_TRACE_MODE set. Each child announces
// "ADDR <wire addr>" then "HTTP <sidecar addr>" on stdout and runs
// until killed.
func TestTraceLiveHelper(t *testing.T) {
	mode := os.Getenv("NEXUS_TRACE_MODE")
	if mode == "" {
		t.Skip("trace live helper (only runs re-executed)")
	}
	die := func(err error) {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	eng, err := storage.OpenEngine("p", os.Getenv("NEXUS_TRACE_DIR"))
	if err != nil {
		die(err)
	}
	trace.Default.SetService(mode)

	switch mode {
	case "primary":
		// Seed in several flushed segments so the traced query's
		// storage.scan span has real segment/byte statistics to report.
		for lo := 0; lo < traceLiveRows; lo += 500 {
			if err := eng.Append("events", traceEventsTable(lo, lo+500)); err != nil {
				die(err)
			}
			if err := eng.Flush(); err != nil {
				die(err)
			}
		}
	case "replica":
		eng.SetReplica(true)
		rep := replication.New(eng, replication.Config{
			Primary:  os.Getenv("NEXUS_TRACE_PRIMARY"),
			Interval: 25 * time.Millisecond,
		})
		rep.Start() // runs forever: mid-stream checkpoints keep syncing
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := rep.Status()
			if st.Err == "" && st.Gen > 0 && st.Gen == st.PrimaryGen {
				break
			}
			if time.Now().After(deadline) {
				die(fmt.Errorf("replica never caught up: %+v", st))
			}
			time.Sleep(10 * time.Millisecond)
		}
	default:
		die(fmt.Errorf("unknown mode %q", mode))
	}

	srv, err := server.ServeWithCheckpoints(eng, "127.0.0.1:0", eng.Backing(), 0)
	if err != nil {
		die(err)
	}
	srv.Logf = func(string, ...any) {}
	// Admission control must be live for the server.admission span to
	// exist at all; an empty default quota admits everything.
	srv.SetAdmission(server.AdmissionConfig{Default: server.TenantQuota{}})

	h := obs.NewHandler(obs.Default, nil)
	h.Handle("/debug/traces", trace.TraceHandler(trace.Default))
	h.Handle("/debug/ops", trace.OpsHandler(trace.Ops()))
	bound, _, err := obs.ServeHandler("127.0.0.1:0", h)
	if err != nil {
		die(err)
	}
	fmt.Println("ADDR", srv.Addr())
	fmt.Println("HTTP", bound)
	select {} // run until killed
}

// spawnTraceNode re-executes the test binary as one cluster node and
// returns its wire address, sidecar address, and a SIGKILL closure.
func spawnTraceNode(t *testing.T, mode string, extraEnv ...string) (addr, httpAddr string, kill func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestTraceLiveHelper$", "-test.v")
	cmd.Env = append(os.Environ(),
		"NEXUS_TRACE_MODE="+mode, "NEXUS_TRACE_DIR="+t.TempDir())
	cmd.Env = append(cmd.Env, extraEnv...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	kill = func() {
		once.Do(func() {
			_ = cmd.Process.Kill() // SIGKILL: no shutdown path runs
			_, _ = cmd.Process.Wait()
		})
	}
	t.Cleanup(kill)
	sc := bufio.NewScanner(out)
	for addr == "" || httpAddr == "" {
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if strings.HasPrefix(line, "ERR") {
			t.Fatalf("%s helper: %s", mode, line)
		}
		if rest, ok := strings.CutPrefix(line, "ADDR "); ok {
			addr = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "HTTP "); ok {
			httpAddr = strings.TrimSpace(rest)
		}
	}
	if addr == "" || httpAddr == "" {
		kill()
		t.Fatalf("%s helper announced addr=%q http=%q: %v", mode, addr, httpAddr, sc.Err())
	}
	go func() {
		for sc.Scan() {
		}
	}()
	return addr, httpAddr, kill
}

// scrapedSpan mirrors trace.SpanData's JSON.
type scrapedSpan struct {
	TraceID  string `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id"`
	Service  string `json:"service"`
	Name     string `json:"name"`
	Error    string `json:"error"`
}

// scrapeTrace fetches /debug/traces?trace=id from a sidecar.
func scrapeTrace(t *testing.T, httpAddr, traceID string) []scrapedSpan {
	t.Helper()
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + httpAddr + "/debug/traces?trace=" + traceID)
	if err != nil {
		t.Fatalf("scrape %s: %v", httpAddr, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("scrape %s: status %d err %v", httpAddr, resp.StatusCode, err)
	}
	var payload struct {
		Spans []scrapedSpan `json:"spans"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("scrape %s: bad JSON %v in %s", httpAddr, err, body)
	}
	return payload.Spans
}

// waitForSpans polls a sidecar until every wanted span name appears in
// the trace (server-side spans record when handlers finish, which can
// trail the client's response by a beat).
func waitForSpans(t *testing.T, httpAddr, traceID string, want ...string) []scrapedSpan {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans := scrapeTrace(t, httpAddr, traceID)
		have := map[string]bool{}
		for _, sp := range spans {
			have[sp.Name] = true
		}
		missing := ""
		for _, w := range want {
			if !have[w] {
				missing = w
				break
			}
		}
		if missing == "" {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: span %q never appeared in trace %s; have %v",
				httpAddr, missing, traceID, spanNames(spans))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func spanNames(spans []scrapedSpan) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

func TestCrossProcessTraceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess trace test")
	}
	primaryAddr, primaryHTTP, killPrimary := spawnTraceNode(t, "primary")
	replicaAddr, replicaHTTP, _ := spawnTraceNode(t, "replica",
		"NEXUS_TRACE_PRIMARY="+primaryAddr)

	// One traced session over the multiplexed front door. The dial and
	// hello record under the session's root, so the server's handshake
	// span lands in the same trace as everything that follows.
	s := nexus.NewSession()
	if _, err := s.Connect(primaryAddr, nexus.ConnectOptions{Tenant: "acme", Trace: true}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	traceID := s.TraceID()
	if traceID == "" {
		t.Fatal("traced connect minted no session trace id")
	}

	// Traced query: client span + server admission/execute/exec/storage
	// spans on the primary, all under the one trace id.
	tbl, m, err := s.Scan("events").
		Where(nexus.Gt(nexus.Col("v"), nexus.Int(10))).
		Trace().
		CollectWithMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() == 0 {
		t.Fatal("traced query returned no rows")
	}
	if m.TraceID() != traceID {
		t.Fatalf("query trace id %q != session trace id %q", m.TraceID(), traceID)
	}

	primarySpans := waitForSpans(t, primaryHTTP, traceID,
		"server.hello", "server.admission", "server.execute", "storage.scan")
	execSpans := 0
	for _, sp := range primarySpans {
		if sp.Service != "primary" {
			t.Fatalf("primary span %q stamped service %q", sp.Name, sp.Service)
		}
		if strings.HasPrefix(sp.Name, "exec:") {
			execSpans++
		}
	}
	if execSpans == 0 {
		t.Fatalf("no exec kernel spans on the primary: %v", spanNames(primarySpans))
	}

	// Failover subscription carrying the same trace. Small credit and a
	// slow consumer keep the stream mid-flight for the kill; the redial
	// re-sends the trace context, which is what stitches the replica in.
	b := federation.NewBackoff(1)
	b.Base, b.Max = 10*time.Millisecond, 100*time.Millisecond
	fo, err := federation.SubscribeFailover(context.Background(),
		[]string{primaryAddr, replicaAddr},
		wire.StreamSub{
			SourceKind: wire.StreamSrcDataset,
			Dataset:    "events", TimeCol: "ts",
			Spec: traceWindowedSpec(t), Durable: "job", Credit: 2,
			Trace: m.Trace,
		},
		federation.FailoverOpts{Backoff: b, Logf: t.Logf},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fo.Close()

	batches := 0
	for sb := range fo.Batches() {
		if sb.Table == nil {
			continue
		}
		batches++
		if batches == 1 {
			// While the subscription is in flight on the primary, the live
			// ops listing must show it, tied to our trace.
			assertLiveSubscriptionOp(t, primaryHTTP, traceID)
		}
		if batches == 2 {
			killPrimary() // SIGKILL mid-stream: the redial goes to the replica
		}
		if batches >= 2 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := fo.Err(); err != nil {
		t.Fatalf("stream failed terminally: %v", err)
	}
	if fo.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", fo.Failovers())
	}
	if fo.Addr() != replicaAddr {
		t.Fatalf("stream finished on %s, want the replica %s", fo.Addr(), replicaAddr)
	}

	// The replica contributed its spans to the SAME trace id: the
	// post-redial handshake and the resumed subscription.
	replicaSpans := waitForSpans(t, replicaHTTP, traceID,
		"server.hello", "server.subscribe")
	for _, sp := range replicaSpans {
		if sp.Service != "replica" {
			t.Fatalf("replica span %q stamped service %q", sp.Name, sp.Service)
		}
	}

	// Client-side spans sit in this process's ring under the same id.
	s.Close()
	id, ok := trace.ParseTraceID(traceID)
	if !ok {
		t.Fatalf("session trace id %q unparseable", traceID)
	}
	var localSpans []scrapedSpan
	for _, sd := range trace.Default.TraceSpans(id) {
		localSpans = append(localSpans, scrapedSpan{
			TraceID: sd.TraceID, SpanID: uint64(sd.SpanID), ParentID: uint64(sd.ParentID),
			Name: sd.Name, Error: sd.Error,
		})
	}
	local := map[string]bool{}
	for _, sp := range localSpans {
		local[sp.Name] = true
	}
	for _, want := range []string{"session", "client.dial_mux", "query", "client.execute", "client.subscribe", "client.redial"} {
		if !local[want] {
			t.Fatalf("local ring missing span %q for trace %s; have %v", want, traceID, spanNames(localSpans))
		}
	}
	redials := 0
	for _, sp := range localSpans {
		if sp.Name == "client.redial" {
			redials++
		}
	}
	if redials < 2 {
		t.Fatalf("client.redial spans = %d, want >= 2 (initial connect + failover)", redials)
	}

	// Parent links: across all three processes, every span's parent must
	// be another span of the trace (roots excepted) — the differential
	// proof that contexts crossed both wires intact.
	all := append(append(localSpans, primarySpans...), replicaSpans...)
	ids := map[uint64]bool{}
	for _, sp := range all {
		if sp.TraceID != traceID {
			t.Fatalf("span %q carries foreign trace %s", sp.Name, sp.TraceID)
		}
		ids[sp.SpanID] = true
	}
	for _, sp := range all {
		if sp.ParentID == 0 {
			if sp.Name != "session" {
				t.Fatalf("span %q is an unexpected root", sp.Name)
			}
			continue
		}
		if !ids[sp.ParentID] {
			t.Fatalf("span %q (service %q) parent %d not in the combined trace",
				sp.Name, sp.Service, sp.ParentID)
		}
	}
}

// assertLiveSubscriptionOp polls /debug/ops until the in-flight
// subscription shows up with the session's trace id.
func assertLiveSubscriptionOp(t *testing.T, httpAddr, traceID string) {
	t.Helper()
	client := http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(5 * time.Second)
	var last string
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + httpAddr + "/debug/ops")
		if err != nil {
			t.Fatalf("/debug/ops: %v", err)
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != 200 {
			t.Fatalf("/debug/ops: status %d err %v", resp.StatusCode, rerr)
		}
		var payload struct {
			Ops []struct {
				Kind    string `json:"kind"`
				Dataset string `json:"dataset"`
				TraceID string `json:"trace_id"`
				Credit  int64  `json:"credit"`
			} `json:"ops"`
		}
		if err := json.Unmarshal(body, &payload); err != nil {
			t.Fatalf("/debug/ops bad JSON: %v in %s", err, body)
		}
		last = string(body)
		for _, op := range payload.Ops {
			if op.Kind == "subscription" && op.Dataset == "events" && op.TraceID == traceID {
				if op.Credit < 0 {
					t.Fatalf("live subscription op reports no credit window: %s", last)
				}
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("no live subscription op for trace %s at %s; last listing: %s", traceID, httpAddr, last)
}
