package main

// layers.go is the benchmark's frozen surface. Every call into
// nexus/internal/* is in this file and nowhere else in bench/: building
// the system under test, turning generated slices into the program's
// tables, the oracle engine, the counters, and the layer-by-layer
// replay of the traced pass. The rest of the benchmark uses only the
// public nexus package. When the program grows its own request spans
// (ROADMAP "one request context") the replay half of this file goes
// away and the list in README.md shrinks to the end-to-end API.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nexus"
	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/engines/relational"
	"nexus/internal/expr"
	"nexus/internal/federation"
	"nexus/internal/obs"
	"nexus/internal/planner"
	"nexus/internal/schema"
	"nexus/internal/server"
	"nexus/internal/storage"
	"nexus/internal/stream"
	"nexus/internal/table"
	"nexus/internal/value"
	"nexus/internal/wire"
)

// ---- generated slices -> program tables ------------------------------

var salesSchema = schema.New(
	schema.Attribute{Name: "sale_id", Kind: value.KindInt64},
	schema.Attribute{Name: "cust_id", Kind: value.KindInt64},
	schema.Attribute{Name: "prod_id", Kind: value.KindInt64},
	schema.Attribute{Name: "qty", Kind: value.KindInt64},
	schema.Attribute{Name: "price", Kind: value.KindFloat64},
	schema.Attribute{Name: "region", Kind: value.KindString},
)

var eventsSchema = schema.New(
	schema.Attribute{Name: "event_id", Kind: value.KindInt64},
	schema.Attribute{Name: "device", Kind: value.KindInt64},
	schema.Attribute{Name: "kind", Kind: value.KindInt64},
	schema.Attribute{Name: "value", Kind: value.KindFloat64},
	schema.Attribute{Name: "region", Kind: value.KindString},
)

var tickSchema = schema.New(
	schema.Attribute{Name: "ts", Kind: value.KindInt64},
	schema.Attribute{Name: "sym", Kind: value.KindString},
	schema.Attribute{Name: "px", Kind: value.KindFloat64},
	schema.Attribute{Name: "qty", Kind: value.KindInt64},
)

func salesTable(s Sales) *table.Table {
	return table.MustNew(salesSchema, []*table.Column{
		table.IntColumn(s.SaleID), table.IntColumn(s.CustID), table.IntColumn(s.ProdID),
		table.IntColumn(s.Qty), table.FloatColumn(s.Price), table.StringColumn(s.Region),
	})
}

func eventsTable(e Events) *table.Table {
	return table.MustNew(eventsSchema, []*table.Column{
		table.IntColumn(e.EventID), table.IntColumn(e.Device), table.IntColumn(e.Kind),
		table.FloatColumn(e.Value), table.StringColumn(e.Region),
	})
}

func ticksTable(ticks []Tick) *table.Table {
	ts, sym := make([]int64, len(ticks)), make([]string, len(ticks))
	px, qty := make([]float64, len(ticks)), make([]int64, len(ticks))
	for i, t := range ticks {
		ts[i], sym[i], px[i], qty[i] = t.TS, t.Sym, t.Px, t.Qty
	}
	return table.MustNew(tickSchema, []*table.Column{
		table.IntColumn(ts), table.StringColumn(sym), table.FloatColumn(px), table.IntColumn(qty),
	})
}

// ---- the system under test -------------------------------------------

// System is the in-process durable server every workload runs against:
// a storage engine on a data directory behind the wire-protocol server
// on a loopback port.
type System struct {
	Dir string
	eng *storage.Engine
	srv *server.Server

	stopCompactor func()
}

// OpenSystem opens (or recovers) the data directory and serves it.
func OpenSystem(dir string) (*System, error) {
	eng, err := storage.OpenEngine("db", dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.ServeWithCheckpoints(eng, "127.0.0.1:0", eng.Backing(), time.Second)
	if err != nil {
		eng.Close()
		return nil, err
	}
	srv.Logf = func(string, ...any) {}
	return &System{Dir: dir, eng: eng, srv: srv}, nil
}

// Addr is the server's loopback address.
func (s *System) Addr() string { return s.srv.Addr() }

// LoadSales appends the rows in perm order in batch-row appends with a
// flush after each, then compacts the dataset clustered on sale_id.
func (s *System) LoadSales(name string, d Sales, perm []int, batch int) error {
	for lo := 0; lo < len(perm); lo += batch {
		hi := min(lo+batch, len(perm))
		if err := s.eng.Append(name, salesTable(d.Take(perm[lo:hi]))); err != nil {
			return err
		}
		if err := s.eng.Flush(); err != nil {
			return err
		}
	}
	_, err := s.eng.Compact(storage.CompactOptions{ClusterBy: map[string]string{name: "sale_id"}})
	return err
}

// AppendEvents appends one batch to the events dataset in-process (no
// socket), creating the dataset on first use.
func (s *System) AppendEvents(name string, e Events) error {
	return s.eng.Append(name, eventsTable(e))
}

// StartCompactor runs the background compactor until Close. Events are
// clustered on event_id; the flush policy stays the program default
// (auto-flush when the WAL reaches storage.DefaultFlushBytes).
func (s *System) StartCompactor(every time.Duration, dataset string) {
	s.stopCompactor = s.eng.StartCompactor(every,
		storage.CompactOptions{ClusterBy: map[string]string{dataset: "event_id"}}, nil)
}

// FlushPolicy states the flush policy in force, for the output.
func FlushPolicy() string {
	return fmt.Sprintf("auto-flush at WAL >= %d bytes (program default)", storage.DefaultFlushBytes)
}

// DropCache empties the engine's warm tables and segment caches. The
// segment cache is an unbounded map, so this is the only "larger than
// cache" the program has; the OS page cache stays warm.
func (s *System) DropCache() { s.eng.DropCache() }

// Flush and Compact run one explicit pass each.
func (s *System) Flush() error { return s.eng.Flush() }

func (s *System) Compact(dataset, clusterBy string) error {
	_, err := s.eng.Compact(storage.CompactOptions{ClusterBy: map[string]string{dataset: clusterBy}})
	return err
}

// Segments counts a dataset's durable segments.
func (s *System) Segments(dataset string) int {
	refs, _, _ := s.eng.Backing().Segments(dataset)
	return len(refs)
}

// Close stops the compactor, the server and the engine.
func (s *System) Close() error {
	if s.stopCompactor != nil {
		s.stopCompactor()
	}
	s.srv.Close()
	return s.eng.Close()
}

// ReopenRows reopens a closed data directory and counts a dataset's
// rows: what a restart recovers.
func ReopenRows(dir, dataset string) (int64, error) {
	eng, err := storage.OpenEngine("db", dir)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	for _, ds := range eng.Datasets() {
		if ds.Name == dataset {
			return ds.Rows, nil
		}
	}
	return 0, fmt.Errorf("dataset %q not found after reopen", dataset)
}

// ---- oracle -----------------------------------------------------------

// Expected is the oracle's answer to one query template.
type Expected struct {
	Rows     int
	Checksum uint64
}

// Oracle answers query templates with the in-memory relational engine
// over the same generated table, independently of the storage engine,
// the wire and the server.
type Oracle struct{ eng *relational.Engine }

// NewSalesOracle loads the generated sales rows under name.
func NewSalesOracle(name string, d Sales) (*Oracle, error) {
	eng := relational.New("oracle")
	if err := eng.Store(name, salesTable(d)); err != nil {
		return nil, err
	}
	return &Oracle{eng: eng}, nil
}

// Expect runs the query's plan on the oracle engine.
func (o *Oracle) Expect(q *nexus.Query) (Expected, error) {
	plan, err := q.Plan()
	if err != nil {
		return Expected{}, err
	}
	t, err := o.eng.Execute(plan)
	if err != nil {
		return Expected{}, err
	}
	return Expected{Rows: t.NumRows(), Checksum: t.Checksum()}, nil
}

// ---- counters ---------------------------------------------------------

// Counters flattens the program's process-wide metric registry into
// name{labels} -> value; histograms contribute name#count and name#sum.
// The benchmark reads deltas of these around a pass. They are
// process-wide, which is exact here because each workload runs in its
// own process with one client.
func Counters() map[string]float64 {
	out := make(map[string]float64)
	for name, fam := range obs.Default.Snapshot() {
		for label, v := range fam.Values {
			switch x := v.(type) {
			case int64:
				out[name+label] = float64(x)
			case float64:
				out[name+label] = x
			case obs.HistogramStats:
				out[name+label+"#count"] = float64(x.Count)
				out[name+label+"#sum"] = x.Sum
			}
		}
	}
	return out
}

// ---- replay -----------------------------------------------------------

// Replayer holds what the traced pass measures against besides the
// workload's own session: the engine reached directly, the same engine
// behind both wire codecs without a socket (InProc), and dedicated mux
// and conn-per-call connections to the server.
type Replayer struct {
	sys    *System
	inproc *federation.InProc
	mux    *federation.Mux
	tcp    *federation.TCP
	cache  *exec.ExprCache
}

// NewReplayer dials the extra connections.
func NewReplayer(sys *System) (*Replayer, error) {
	mux, err := federation.DialMux(sys.Addr(), federation.DialOpts{})
	if err != nil {
		return nil, err
	}
	tcp, err := federation.DialTCP(sys.Addr())
	if err != nil {
		mux.Close()
		return nil, err
	}
	return &Replayer{sys: sys, inproc: federation.NewInProc(sys.eng), mux: mux, tcp: tcp, cache: exec.NewExprCache()}, nil
}

// Close drops the extra connections.
func (r *Replayer) Close() {
	r.mux.Close()
	r.tcp.Close()
}

// RTT times n one-row Execute calls on the idle mux and on the idle
// dedicated connection: a literal plan, so no storage work — framing,
// loopback TCP, routing and server dispatch only.
func (r *Replayer) RTT(tr *Tracer, n int) error {
	one := table.MustNew(schema.New(schema.Attribute{Name: "x", Kind: value.KindInt64}),
		[]*table.Column{table.IntColumn([]int64{1})})
	plan, err := core.NewLiteral(one)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		op := -1 - i // negative ops: not part of any client operation
		tr.Do("federation.mux_rtt", -1, op, func() { _, err = r.mux.Execute(plan, nil) })
		if err != nil {
			return err
		}
		tr.Do("federation.tcp_rtt", -1, op, func() { _, err = r.tcp.Execute(plan, nil) })
		if err != nil {
			return err
		}
	}
	return nil
}

// QueryCounts are the exact per-operation counts of one replayed query.
type QueryCounts struct {
	ResultBytes, ResultRows   int64
	BytesRead                 int64 // segment-file bytes read by Engine.Execute
	SegScanned, SegPruned     int64
	CacheHits, CacheLookups   int64
	RowsExamined, RowsIntoRun int64
}

// ReplayQuery re-runs one client operation in-process under a replay.op
// root span, two ways: layer by layer (replaySteps) and as three whole
// paths (replayPaths). With cold set, the caches are dropped before the
// storage steps and before each whole path, as the timed pass does
// before each operation. Whichever half runs first after a drop pays
// for growing the heap again, so the order alternates with op.
func (r *Replayer) ReplayQuery(tr *Tracer, op int, q *nexus.Query, cold bool) (QueryCounts, error) {
	var c QueryCounts
	plan, err := q.Plan()
	if err != nil {
		return c, err
	}
	root := tr.Start("replay.op", -1, op)
	defer tr.End(root)
	var opt core.Node
	tr.Do("planner.optimize", root, op, func() { opt, err = planner.Optimize(plan, planner.DefaultOptions()) })
	if err != nil {
		return c, err
	}
	halves := []func(*Tracer, int, int, core.Node, bool, *QueryCounts) error{r.replaySteps, r.replayPaths}
	for i := range halves {
		if err := halves[(i+op)%2](tr, root, op, opt, cold, &c); err != nil {
			return c, err
		}
	}
	return c, nil
}

// spanErr runs fn under a span and names the span in fn's error.
func spanErr(tr *Tracer, name string, parent, op int, fn func() error) error {
	id := tr.Start(name, parent, op)
	err := fn()
	tr.End(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// replaySteps takes the optimized plan through each layer in turn:
// request codec, scan analysis, the storage steps, exec on the residual
// plan, result codec. The storage steps mirror what Engine.Execute does
// for a Filter/Project stack over a scan (zone-map pruning, projected
// encoded read, predicate over pages, materialize survivors) using only
// exported functions; a grouped aggregate is replayed down the decoding
// path, which is the reference the engine's encoded aggregate is
// compared with.
func (r *Replayer) replaySteps(tr *Tracer, root, op int, opt core.Node, cold bool, c *QueryCounts) error {
	do := func(name string, fn func() error) error { return spanErr(tr, name, root, op, fn) }
	var req []byte
	_ = do("wire.plan_encode", func() error { req = wire.EncodeExecute(uint64(op), opt); return nil })
	var shipped core.Node
	if err := do("wire.plan_decode", func() (err error) { _, shipped, err = wire.DecodeExecute(req); return }); err != nil {
		return err
	}

	stack, agg := shipped, (*core.GroupAgg)(nil)
	if g, ok := shipped.(*core.GroupAgg); ok {
		stack, agg = g.Children()[0], g
	}
	var acc planner.ScanAccess
	if err := do("planner.scan_access", func() error {
		if agg != nil {
			if a, ok := planner.AnalyzeAggAccess(agg); ok {
				acc = a.ScanAccess
				return nil
			}
		}
		a, ok := planner.AnalyzeScanAccess(stack)
		if !ok {
			return fmt.Errorf("plan is not a filter/project stack over one scan")
		}
		acc = a
		return nil
	}); err != nil {
		return err
	}
	if cold {
		r.sys.DropCache()
	}
	scan := tr.Start("storage.scan", root, op)
	narrow, err := r.replayScan(tr, scan, op, acc, c)
	tr.End(scan)
	if err != nil {
		return err
	}

	// exec on the residual plan: the stack re-run over the survivors
	lit, err := core.NewLiteral(narrow)
	if err != nil {
		return err
	}
	residual, err := substituteScan(stack, lit)
	if err != nil {
		return err
	}
	c.RowsIntoRun = int64(narrow.NumRows())
	rt := &exec.Runtime{Cache: r.cache}
	var out *table.Table
	if err := do("exec.run", func() (err error) { out, err = rt.Run(residual); return }); err != nil {
		return err
	}
	if agg != nil {
		if err := do("exec.group_agg", func() (err error) {
			out, err = exec.GroupAggregate(out, agg.Keys, agg.Aggs, agg.Schema())
			return
		}); err != nil {
			return err
		}
	}

	var res []byte
	_ = do("wire.result_encode", func() error { res = wire.EncodeResult(uint64(op), out); return nil })
	if err := do("wire.result_decode", func() error { _, _, err := wire.DecodeResult(res); return err }); err != nil {
		return err
	}
	c.ResultBytes, c.ResultRows = int64(len(res)), int64(out.NumRows())

	// Off the operation's path: the scalar filter alone (compile, then
	// one vectorized pass over the survivors), and the whole-file read.
	core.Walk(stack, func(n core.Node) bool {
		f, ok := n.(*core.Filter)
		if !ok {
			return true
		}
		var compiled *expr.Compiled
		if do("expr.compile", func() (err error) { compiled, err = expr.Compile(f.Pred, narrow.Schema()); return }) == nil {
			_ = do("expr.filter", func() error { _, err := compiled.AppendSelected(nil, narrow); return err })
		}
		return false
	})
	if cold {
		return r.readVerify(tr, root, op, acc)
	}
	return nil
}

// replayPaths runs the optimized plan as three whole paths:
// Engine.Execute, the engine behind both codecs (InProc), and the
// loopback mux. InProc minus engine is codec time; mux minus InProc is
// the front door. The engine's own counters are read around
// Engine.Execute: exact, because nothing else is running.
func (r *Replayer) replayPaths(tr *Tracer, root, op int, opt core.Node, cold bool, c *QueryCounts) error {
	eng, st := r.sys.eng, r.sys.eng.Backing()
	const hit, miss = `nexus_storage_segment_cache_total{result="hit"}`, `nexus_storage_segment_cache_total{result="miss"}`
	before := Counters()
	bytes0, scanned0, pruned0 := st.BytesRead(), eng.SegmentsScanned(), eng.SegmentsSkipped()
	for i, path := range []struct {
		name string
		run  func() error
	}{
		{"path.engine", func() error { _, err := eng.Execute(opt); return err }},
		{"path.inproc", func() error { _, err := r.inproc.Execute(opt, nil); return err }},
		{"path.mux", func() error { _, err := r.mux.Execute(opt, nil); return err }},
	} {
		if cold {
			r.sys.DropCache()
		}
		if err := spanErr(tr, path.name, root, op, path.run); err != nil {
			return err
		}
		if i == 0 {
			after := Counters()
			c.BytesRead = st.BytesRead() - bytes0
			c.SegScanned, c.SegPruned = eng.SegmentsScanned()-scanned0, eng.SegmentsSkipped()-pruned0
			c.CacheHits = int64(after[hit] - before[hit])
			c.CacheLookups = c.CacheHits + int64(after[miss]-before[miss])
		}
	}
	return nil
}

// replayScan materializes the slice of the dataset the stack needs, the
// way Engine.accessTable does, one span per step per segment.
func (r *Replayer) replayScan(tr *Tracer, parent, op int, acc planner.ScanAccess, c *QueryCounts) (*table.Table, error) {
	st := r.sys.eng.Backing()
	name := acc.Scan.Dataset
	refs, parts, ok := st.Segments(name)
	if !ok {
		return nil, fmt.Errorf("no dataset %q", name)
	}
	sch, _ := st.Schema(name)
	var positions []int
	outSch := sch
	if acc.Cols != nil {
		for _, col := range acc.Cols {
			positions = append(positions, sch.IndexOf(col))
		}
		outSch = sch.Project(positions)
	}
	var tables []*table.Table
	for _, ref := range refs {
		if !segMayMatch(sch, ref, acc.Preds) {
			continue
		}
		c.RowsExamined += ref.Meta.Rows
		var t *table.Table
		var err error
		switch {
		case positions != nil && len(acc.Preds) > 0:
			var es *storage.EncodedSegment
			tr.Do("storage.page_parse", parent, op, func() { es, err = st.ReadSegmentEncoded(name, ref, positions) })
			if err != nil {
				return nil, err
			}
			match := make([]bool, es.Meta.Rows)
			tr.Do("storage.filter", parent, op, func() {
				for i := range match {
					match[i] = true
				}
				for _, p := range acc.Preds {
					es.Cols[es.Schema.IndexOf(p.Col)].AndMatches(p.Op, p.Val, match)
				}
			})
			tr.Do("storage.materialize", parent, op, func() {
				sel := make([]int, 0, len(match))
				for i, m := range match {
					if m {
						sel = append(sel, i)
					}
				}
				cols := make([]*table.Column, len(es.Cols))
				for i, ec := range es.Cols {
					if cols[i], err = ec.MaterializeRows(sel); err != nil {
						return
					}
				}
				t, err = table.New(es.Schema, cols)
			})
		case positions != nil:
			tr.Do("storage.page_parse", parent, op, func() { t, err = st.ReadSegmentColumns(name, ref, positions) })
		default:
			tr.Do("storage.page_parse", parent, op, func() { t, err = st.ReadSegment(name, ref) })
		}
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	for _, p := range parts {
		if positions != nil {
			p = p.Project(positions)
		}
		tables = append(tables, p)
	}
	switch len(tables) {
	case 0:
		return table.Empty(outSch), nil
	case 1:
		return tables[0], nil
	}
	var out *table.Table
	var err error
	tr.Do("storage.materialize", parent, op, func() { out, err = tables[0].Concat(tables[1:]...) })
	return out, err
}

// readVerify times reading and verifying the whole file of every
// segment the scan survived to (every column's CRC and framing): a
// reference cost. The projected reads of the scan touch only the pages
// they need, so this span is not on the operation's path and not part
// of the replay coverage.
func (r *Replayer) readVerify(tr *Tracer, parent, op int, acc planner.ScanAccess) error {
	st := r.sys.eng.Backing()
	refs, _, _ := st.Segments(acc.Scan.Dataset)
	sch, _ := st.Schema(acc.Scan.Dataset)
	for _, ref := range refs {
		if !segMayMatch(sch, ref, acc.Preds) {
			continue
		}
		var err error
		tr.Do("storage.read_crc", parent, op, func() {
			var b []byte
			if b, err = os.ReadFile(filepath.Join(r.sys.Dir, ref.File)); err == nil {
				err = storage.VerifySegment(b)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// segMayMatch tests the conjuncts against a segment's zone maps.
func segMayMatch(sch schema.Schema, ref storage.SegmentRef, preds []planner.ScanPred) bool {
	for _, p := range preds {
		if i := sch.IndexOf(p.Col); i >= 0 && i < len(ref.Meta.Zones) && !ref.Meta.Zones[i].MayMatch(p.Op, p.Val) {
			return false
		}
	}
	return true
}

// substituteScan rebuilds a single-child stack with its scan leaf
// replaced by lit.
func substituteScan(n core.Node, lit core.Node) (core.Node, error) {
	if _, ok := n.(*core.Scan); ok {
		return lit, nil
	}
	kids := n.Children()
	if len(kids) != 1 {
		return nil, fmt.Errorf("cannot substitute scan under %T", n)
	}
	nk, err := substituteScan(kids[0], lit)
	if err != nil {
		return nil, err
	}
	return n.WithChildren([]core.Node{nk})
}

// ReplayAppend replays one append: the request codec, then the durable
// in-process Engine.Append (WAL write, group-commit fsync, memory
// apply) with no socket in the way. It returns the batch's encoded
// size, the "user bytes" of the amplification ratios.
func (r *Replayer) ReplayAppend(tr *Tracer, op int, dataset string, e Events) (int64, error) {
	t := eventsTable(e)
	root := tr.Start("replay.op", -1, op)
	defer tr.End(root)
	var b []byte
	var err error
	tr.Do("wire.append_codec", root, op, func() {
		b = wire.EncodeStore(dataset, t)
		_, _, err = wire.DecodeStore(b)
	})
	if err != nil {
		return 0, err
	}
	tr.Do("storage.append", root, op, func() { err = r.sys.eng.Append(dataset, t) })
	return int64(len(b)), err
}

// ---- stream layers ----------------------------------------------------

// StreamSpec is the streaming job, stated once for both the public
// query of the timed pass (workload.go builds it from these fields) and
// the in-process pipeline below.
type StreamSpec struct {
	WindowMs, LatenessMs int64
}

// pipeline builds the job over a source with the internal builder. It
// must stay the same job as streamQuery in workloads.go.
func (sp StreamSpec) pipeline(src stream.Source) (*stream.Pipeline, error) {
	win, err := core.NewTumblingWindow(sp.WindowMs)
	if err != nil {
		return nil, err
	}
	return stream.NewBuilder(src).
		Filter(expr.Gt(expr.Column("qty"), expr.CInt(0))).
		Extend("notional", expr.Mul(expr.Column("px"), expr.Column("qty"))).
		WithLateness(sp.LatenessMs).
		Aggregate(win, []string{"sym"}, []core.AggSpec{
			{Func: core.AggSum, Arg: expr.Column("notional"), As: "notional"},
			{Func: core.AggCount, As: "n"},
			{Func: core.AggAvg, Arg: expr.Column("px"), As: "avg_px"},
		}).Build()
}

// StreamLayerStats is what the in-process stream replay measures.
type StreamLayerStats struct {
	EventsPerSec    float64
	Windows, Late   int64
	StateBytes      float64 // median encoded size of the open-window state
	StateSnapshotUs float64 // median time to serialize it
}

// ReplayStream runs the job single-threaded and in-process over a
// replay of the same events — the baseline the served stream is
// compared with — and then once more with a state snapshot taken at
// every micro-batch boundary. Per emitted window (op = its index) it
// records the stream-frame codec and, for the batch equivalent of the
// window, the scalar filter and the group aggregate.
func ReplayStream(tr *Tracer, sp StreamSpec, ticks []Tick) (StreamLayerStats, error) {
	var s StreamLayerStats
	all := ticksTable(ticks)
	p, err := sp.pipeline(stream.NewReplay(all, "ts"))
	if err != nil {
		return s, err
	}
	var windows []*table.Table
	start := time.Now()
	st, err := p.Run(context.Background(), stream.Callback(func(t *table.Table) error {
		windows = append(windows, t)
		return nil
	}))
	if err != nil {
		return s, err
	}
	s.EventsPerSec = float64(st.Events) / time.Since(start).Seconds()
	s.Windows, s.Late = st.Windows, st.Late

	pred := expr.Gt(expr.Column("qty"), expr.CInt(0))
	perWindow := max(1, len(ticks)/max(1, len(windows)))
	aggs := []core.AggSpec{
		{Func: core.AggSum, Arg: expr.Column("px"), As: "sum_px"},
		{Func: core.AggCount, As: "n"},
	}
	ga, err := core.NewGroupAgg(mustScan("ticks", tickSchema), []string{"sym"}, aggs)
	if err != nil {
		return s, err
	}
	for i, w := range windows {
		root := tr.Start("replay.op", -1, i)
		tr.Do("wire.stream_frame", root, i, func() {
			b := wire.EncodeStreamBatch(1, uint64(i), 0, w)
			_, _, _, _, err = wire.DecodeStreamBatch(b)
		})
		lo := min(i*perWindow, len(ticks))
		batch := all.Slice(lo, min(lo+perWindow, len(ticks)))
		var compiled *expr.Compiled
		tr.Do("expr.compile", root, i, func() { compiled, err = expr.Compile(pred, tickSchema) })
		if err == nil {
			var sel []int
			tr.Do("expr.filter", root, i, func() { sel, err = compiled.AppendSelected(nil, batch) })
			if err == nil {
				tr.Do("exec.group_agg", root, i, func() {
					_, err = exec.GroupAggregate(batch.Gather(sel), ga.Keys, ga.Aggs, ga.Schema())
				})
			}
		}
		tr.End(root)
		if err != nil {
			return s, err
		}
	}

	// State: snapshot at every batch boundary, serialize each.
	p2, err := sp.pipeline(stream.NewReplay(all.Slice(0, min(all.NumRows(), 50000)), "ts"))
	if err != nil {
		return s, err
	}
	var sizes, times []float64
	p2.WithCheckpoint(0, func(state *stream.State) error {
		t0 := time.Now()
		b := wire.EncodeWindowState(1, state)
		times = append(times, us(int64(time.Since(t0))))
		sizes = append(sizes, float64(len(b)))
		return nil
	})
	if _, err := p2.Run(context.Background(), stream.Callback(func(*table.Table) error { return nil })); err != nil {
		return s, err
	}
	s.StateBytes, s.StateSnapshotUs = median(sizes), median(times)
	return s, nil
}

func mustScan(name string, sch schema.Schema) core.Node {
	n, err := core.NewScan(name, sch)
	if err != nil {
		panic(err) // a bug: the schema literals above are well-formed
	}
	return n
}
