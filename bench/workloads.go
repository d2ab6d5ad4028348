package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"nexus"
)

// The workloads drive the program through its public API only: one
// nexus.Session holding one multiplexed connection to the in-process
// durable server, used by exactly two goroutines — the foreground and
// the probe.

// client is the one session every workload's load goes through.
type client struct {
	sys  *System
	sess *nexus.Session
	prov string // provider name of the server, as Connect reported it
}

// connect dials the system's front door: one mux connection.
func connect(sys *System) (client, error) {
	sess := nexus.NewSession()
	prov, err := sess.Connect(sys.Addr(), nexus.ConnectOptions{Mux: true})
	if err != nil {
		return client{}, err
	}
	return client{sys: sys, sess: sess, prov: prov}, nil
}

// replayer dials what the traced pass measures against besides this
// session and times the idle round trips first.
func (c client) replayer(tr *Tracer) (*Replayer, error) {
	r, err := NewReplayer(c.sys)
	if err != nil {
		return nil, err
	}
	if err := r.RTT(tr, 50); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// opsLimit is a traced pass of n operations (fewer in the smoke
// configuration), with a deadline as a backstop.
func opsLimit(cfg Config, n int) limit {
	if cfg.Smoke {
		n = min(n, 9)
	}
	return limit{deadline: time.Now().Add(6 * time.Second), maxOps: n}
}

func (c client) shutdown() error {
	c.sess.Close()
	return c.sys.Close()
}

// keyRange is `lo <= col <= hi` over a dataset.
func (c client) keyRange(dataset, col string, lo, hi int64) *nexus.Query {
	return c.sess.Scan(dataset).Where(nexus.And(
		nexus.Ge(nexus.Col(col), nexus.Int(lo)), nexus.Le(nexus.Col(col), nexus.Int(hi))))
}

// lookup runs the probe's 100-row key lookup and checks it returned
// exactly the keys lo..lo+99.
func (c client) lookup(dataset, col string, lo int64) error {
	t, err := c.keyRange(dataset, col, lo, lo+probeRows-1).Collect()
	if err != nil {
		return err
	}
	keys, err := t.Ints(col)
	if err != nil {
		return err
	}
	var sum int64
	for _, k := range keys {
		sum += k
	}
	if want := probeRows*lo + probeRows*(probeRows-1)/2; len(keys) != probeRows || sum != want {
		return fmt.Errorf("probe %s[%d..+%d]: %d rows, key sum %d, want %d rows, sum %d",
			dataset, lo, probeRows, len(keys), sum, probeRows, want)
	}
	return nil
}

// verify checks a result against the oracle's answer. Results up to
// 10,000 rows are compared by checksum every time; larger ones by row
// count in the timed pass (their checksums are verified in warm-up and
// in the traced pass), so the check does not become the workload.
func verify(t *nexus.Table, want Expected, full bool) error {
	if t.NumRows() != want.Rows {
		return fmt.Errorf("oracle mismatch: %d rows, want %d", t.NumRows(), want.Rows)
	}
	if (full || want.Rows <= 10_000) && t.Checksum() != want.Checksum {
		return fmt.Errorf("oracle mismatch: checksum %x, want %x", t.Checksum(), want.Checksum)
	}
	return nil
}

// ---- cold_selective and warm_wide -------------------------------------

// template is one parameterized query with the oracle's answer.
type template struct {
	kind int // 0, 1, 2: reported as client.q1/q2/q3_p50_ms
	q    *nexus.Query
	want Expected
}

// queryWorkload is both read workloads over the clustered sales table.
// cold: three selective templates, caches dropped before every
// operation (storage does the work). Warm: wide key ranges from a warm
// cache (wire and the front door do the work).
type queryWorkload struct {
	client
	cold      bool
	rows      int64
	templates []template
	probeKeys []int64
	userBytes int64
	wrote     int64
}

func (w *queryWorkload) setup(cfg Config, dir string) error {
	n := salesRows
	if cfg.Smoke {
		n = smokeSalesRows
	}
	w.rows = int64(n)
	sales := GenSales(cfg.Seed, n)
	sys, err := OpenSystem(dir)
	if err != nil {
		return err
	}
	wrote0 := writtenBytes()
	if err := sys.LoadSales("sales", sales, Perm(cfg.Seed, n), loadBatchRows); err != nil {
		sys.Close()
		return err
	}
	w.wrote, w.userBytes = writtenBytes()-wrote0, sales.RawBytes()
	oracle, err := NewSalesOracle("sales", sales)
	if err != nil {
		sys.Close()
		return err
	}
	if w.client, err = connect(sys); err != nil {
		sys.Close()
		return err
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x1f83d9ab))
	scan := func() *nexus.Query { return w.sess.Scan("sales") }
	var qs []template
	if w.cold {
		for i := 0; i < 8; i++ {
			// Q1: 2 % key range, 3 of 6 columns: zone maps prune, pages are read projected.
			lo := rng.Int63n(w.rows - w.rows/50)
			qs = append(qs, template{kind: 0, q: w.keyRange("sales", "sale_id", lo, lo+w.rows/50-1).Select("sale_id", "qty", "price")})
			// Q2: 2 % of rows by two unclustered columns: every segment is read,
			// the filter runs over dictionary pages, survivors are materialized.
			region := Regions[rng.Intn(len(Regions))]
			qs = append(qs, template{kind: 1, q: scan().Where(nexus.And(
				nexus.Eq(nexus.Col("region"), nexus.Str(region)), nexus.Gt(nexus.Col("qty"), nexus.Int(8)))).
				Select("sale_id", "qty", "price")})
			// Q3: a grouped aggregate under a filter, with plain column arguments so
			// the engine's encoded aggregate kernel serves it.
			qs = append(qs, template{kind: 2, q: scan().Where(nexus.Gt(nexus.Col("qty"), nexus.Int(int64(5+i%3)))).
				GroupBy("region").Agg(nexus.Sum("revenue", nexus.Col("price")), nexus.Sum("units", nexus.Col("qty")), nexus.Count("n"))})
		}
	} else {
		// 10 % key ranges, full width: ~rows/10 result rows from one or two
		// cached segments. A range that straddles a segment boundary costs
		// a concatenation more, so the starts are a quarter of a width
		// apart behind a seeded offset: wherever the boundaries are,
		// exactly four ranges straddle each, whatever the seed. The order
		// is shuffled.
		width := w.rows / 10
		step := width / 4
		offset := rng.Int63n(step)
		for _, i := range rng.Perm(int((w.rows - width) / step)) {
			lo := offset + int64(i)*step
			qs = append(qs, template{q: w.keyRange("sales", "sale_id", lo, lo+width-1)})
		}
	}
	for i := range qs {
		if qs[i].want, err = oracle.Expect(qs[i].q); err != nil {
			return err
		}
	}
	w.templates = qs
	for i := 0; i < 64; i++ {
		w.probeKeys = append(w.probeKeys, rng.Int63n(w.rows-probeRows))
	}
	// Warm-up: every template once, full oracle check; fills the caches
	// the warm workload reads from and finishes lazy set-up for both.
	for i := range qs {
		if _, err := w.runOp(i, true); err != nil {
			return err
		}
	}
	return w.probe(0)
}

// runOp runs template i%len and returns its latency: from the call to
// the decoded result in the client.
func (w *queryWorkload) runOp(i int, full bool) (time.Duration, error) {
	tp := w.templates[i%len(w.templates)]
	if w.cold {
		w.sys.DropCache()
	}
	t0 := time.Now()
	t, err := tp.q.Collect()
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	return lat, verify(t, tp.want, full)
}

func (w *queryWorkload) foreground(lim limit, rec *recorder) {
	for i := 0; !lim.done(i); i++ {
		lat, err := w.runOp(i, rec.tr != nil)
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.ok(lat, w.templates[i%len(w.templates)].kind)
	}
}

func (w *queryWorkload) probe(i int) error {
	if w.cold {
		w.sys.DropCache() // both clients of the cold workload always read cold
	}
	return w.lookup("sales", "sale_id", w.probeKeys[i%len(w.probeKeys)])
}

func (w *queryWorkload) tracedLimit(cfg Config) limit { return opsLimit(cfg, tracedOps) }

func (w *queryWorkload) replay(cfg Config, tr *Tracer, ops int, lm map[string]float64) error {
	r, err := w.replayer(tr)
	if err != nil {
		return err
	}
	defer r.Close()
	var total QueryCounts
	for i := 0; i < ops; i++ {
		c, err := r.ReplayQuery(tr, i, w.templates[i%len(w.templates)].q, w.cold)
		if err != nil {
			return err
		}
		total.add(c)
	}
	n := math.Max(float64(ops), 1)
	lm["wire.result_bytes_per_op"] = float64(total.ResultBytes) / n
	lm["wire.result_bytes_total"] = float64(total.ResultBytes)
	lm["storage.bytes_read_per_op"] = float64(total.BytesRead) / n
	lm["storage.segments_scanned_per_op"] = float64(total.SegScanned) / n
	if all := total.SegScanned + total.SegPruned; all > 0 {
		lm["planner.segments_pruned_frac"] = float64(total.SegPruned) / float64(all)
	}
	if total.CacheLookups > 0 {
		lm["storage.cache_hit_frac"] = float64(total.CacheHits) / float64(total.CacheLookups)
	}
	if total.ResultRows > 0 {
		lm["storage.rows_examined_per_row_returned"] = float64(total.RowsExamined) / float64(total.ResultRows)
	}
	lm["exec.rows_in_per_op"] = float64(total.RowsIntoRun) / n
	lm["expr.filter_rows_total"] = float64(total.RowsIntoRun)
	w.writeSide(lm)
	return nil
}

// writeSide reports what loading the table cost: the set-up appends,
// flushes and compaction are in-process, so the bytes this process
// wrote during them went to disk.
func (w *queryWorkload) writeSide(lm map[string]float64) {
	lm["storage.write_amp"] = float64(w.wrote) / float64(w.userBytes)
	lm["storage.space_amp"] = float64(dirBytes(w.sys.Dir)) / float64(w.userBytes)
	lm["storage.segments_at_end"] = float64(w.sys.Segments("sales"))
}

func (w *queryWorkload) close() (int64, int64, error) { return 0, 0, w.shutdown() }

func (c *QueryCounts) add(o QueryCounts) {
	c.ResultBytes += o.ResultBytes
	c.ResultRows += o.ResultRows
	c.BytesRead += o.BytesRead
	c.SegScanned += o.SegScanned
	c.SegPruned += o.SegPruned
	c.CacheHits += o.CacheHits
	c.CacheLookups += o.CacheLookups
	c.RowsExamined += o.RowsExamined
	c.RowsIntoRun += o.RowsIntoRun
}

// ---- ingest_mixed ------------------------------------------------------

// ingestWorkload uses the storage layer the other way: the foreground
// appends 256-row batches to a durable table through the front door
// (WAL group commit, auto-flush, background compaction) while the probe
// reads the most recent 100 keys of the table being written.
type ingestWorkload struct {
	client
	gen   *EventGen
	acked atomic.Int64 // rows acknowledged so far == next event_id
	user  int64        // raw bytes of the acknowledged rows
}

var eventCols = []nexus.ColumnDef{
	{Name: "event_id", Type: nexus.Int64}, {Name: "device", Type: nexus.Int64}, {Name: "kind", Type: nexus.Int64},
	{Name: "value", Type: nexus.Float64}, {Name: "region", Type: nexus.String},
}

func (w *ingestWorkload) setup(cfg Config, dir string) error {
	sys, err := OpenSystem(dir)
	if err != nil {
		return err
	}
	w.gen = NewEventGen(cfg.Seed)
	// The table has a history before the run: four flushed batches,
	// compacted. (It must exist before the session connects anyway — the
	// catalog is exchanged at hello.)
	for i := 0; i < 4; i++ {
		e := w.gen.Next(loadBatchRows)
		if err := sys.AppendEvents("events", e); err == nil {
			err = sys.Flush()
		}
		if err != nil {
			sys.Close()
			return err
		}
		w.user += e.RawBytes()
		w.acked.Add(loadBatchRows)
	}
	if err := sys.Compact("events", "event_id"); err != nil {
		sys.Close()
		return err
	}
	sys.StartCompactor(2*time.Second, "events")
	if w.client, err = connect(sys); err != nil {
		sys.Close()
		return err
	}
	for i := 0; i < 20; i++ { // warm-up: connection, WAL, expression caches
		if _, err := w.appendOne(); err != nil {
			return err
		}
	}
	return w.probe(0)
}

// appendOne sends the next batch and returns its latency, from the
// call to the server's durable acknowledgement. Building the batch is
// client work outside the latency (but inside cpu_ms_per_op).
func (w *ingestWorkload) appendOne() (time.Duration, error) {
	e := w.gen.Next(appendRows)
	tb := nexus.NewTableBuilder(eventCols...)
	for i := range e.EventID {
		tb.Append(e.EventID[i], e.Device[i], e.Kind[i], e.Value[i], e.Region[i])
	}
	t, err := tb.Build()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	err = w.sess.Append(w.prov, "events", t)
	lat := time.Since(t0)
	if err == nil {
		w.user += e.RawBytes()
		w.acked.Add(appendRows)
	}
	return lat, err
}

// foreground appends flat out. Everything ingested stays resident, so
// memory grows with the rows appended: the high-water mark is read when
// the pass reaches rssAtRows rows, not at its end, or a faster append
// path would be charged for having ingested more in the same time.
func (w *ingestWorkload) foreground(lim limit, rec *recorder) {
	for i, rows := 0, 0; !lim.done(i); i++ {
		lat, err := w.appendOne()
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.ok(lat, 0)
		if rows += appendRows; rec.peakRSS == 0 && rows >= rssAtRows {
			rec.peakRSS = peakRSSMiB()
		}
	}
}

func (w *ingestWorkload) probe(int) error {
	return w.lookup("events", "event_id", w.acked.Load()-probeRows)
}

func (w *ingestWorkload) tracedLimit(cfg Config) limit { return opsLimit(cfg, tracedAppends) }

func (w *ingestWorkload) replay(cfg Config, tr *Tracer, ops int, lm map[string]float64) error {
	r, err := w.replayer(tr)
	if err != nil {
		return err
	}
	defer r.Close()
	// The write side in-process: no socket, so every byte this process
	// writes from here to the end of the explicit compaction goes to disk.
	if err := w.sys.Flush(); err != nil { // seal what the passes before left in the WAL
		return err
	}
	wrote0, user0 := writtenBytes(), w.user
	for i := 0; i < ops; i++ {
		e := w.gen.Next(appendRows)
		if _, err := r.ReplayAppend(tr, i, "events", e); err != nil {
			return err
		}
		w.user += e.RawBytes()
		w.acked.Add(appendRows)
		if i == ops/2 { // two small segments, so the compaction below has work
			if err := w.sys.Flush(); err != nil {
				return err
			}
		}
	}
	if err := w.sys.Flush(); err != nil {
		return err
	}
	if err := w.sys.Compact("events", "event_id"); err != nil {
		return err
	}
	lm["storage.write_amp"] = float64(writtenBytes()-wrote0) / float64(w.user-user0)
	lm["storage.space_amp"] = float64(dirBytes(w.sys.Dir)) / float64(w.user)
	lm["storage.segments_at_end"] = float64(w.sys.Segments("events"))
	return nil
}

// close checks durability: after Close, reopening the directory must
// return exactly the acknowledged rows.
func (w *ingestWorkload) close() (int64, int64, error) {
	if err := w.shutdown(); err != nil {
		return 0, 0, err
	}
	got, err := ReopenRows(w.sys.Dir, "events")
	if err != nil {
		return 1, 1, err
	}
	if want := w.acked.Load(); got != want {
		return 1, 1, fmt.Errorf("reopen returned %d rows, %d were acknowledged", got, want)
	}
	return 1, 0, nil
}

// ---- stream_windows ----------------------------------------------------

// streamWorkload serves a windowed aggregation over a pushed stream:
// an open-loop generator sends 20,000 events/s through the session, the
// server runs filter, extend and a tumbling-window group-by, and every
// closed window comes back as a stream frame under credit flow. One
// operation is one closed window.
type streamWorkload struct {
	client
	spec      StreamSpec
	ticks     []Tick
	probeKeys []int64
	lateNs    []int64 // how late the generator sent, sampled per burst
	windows   int64
	dropped   int64
}

var tickCols = []nexus.ColumnDef{
	{Name: "ts", Type: nexus.Int64}, {Name: "sym", Type: nexus.String},
	{Name: "px", Type: nexus.Float64}, {Name: "qty", Type: nexus.Int64},
}

// streamQuery is the served job. It must stay the same job as
// StreamSpec.pipeline in layers.go, which the in-process baseline runs.
func (w *streamWorkload) streamQuery(src nexus.StreamSource) *nexus.StreamQuery {
	return w.sess.StreamFrom(src).
		Where(nexus.Gt(nexus.Col("qty"), nexus.Int(0))).
		Extend("notional", nexus.Mul(nexus.Col("px"), nexus.Col("qty"))).
		AllowedLateness(w.spec.LatenessMs).
		Window(nexus.Tumbling(w.spec.WindowMs)).GroupBy("sym").
		Agg(nexus.Sum("notional", nexus.Col("notional")), nexus.Count("n"), nexus.Avg("avg_px", nexus.Col("px")))
}

func (w *streamWorkload) setup(cfg Config, dir string) error {
	w.spec = StreamSpec{WindowMs: windowMs, LatenessMs: latenessMs}
	n := staticRows
	if cfg.Smoke {
		n = smokeSalesRows
	}
	sys, err := OpenSystem(dir)
	if err != nil {
		return err
	}
	if err := sys.LoadSales("sales", GenSales(cfg.Seed, n), Perm(cfg.Seed, n), loadBatchRows); err != nil {
		sys.Close()
		return err
	}
	if w.client, err = connect(sys); err != nil {
		sys.Close()
		return err
	}
	// Events for the longest pass this run makes, plus slack.
	w.ticks = GenTicks(cfg.Seed, int((cfg.Seconds+1)*tickRate), tickRate/1000, maxLateMs)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x1f83d9ab))
	for i := 0; i < 64; i++ {
		w.probeKeys = append(w.probeKeys, rng.Int63n(int64(n)-probeRows))
	}
	// Warm-up: a short stream end to end, and the probe's lookup.
	warm := &recorder{}
	w.foreground(limit{deadline: time.Now().Add(300 * time.Millisecond)}, warm)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up stream: %w", warm.firstErr)
	}
	w.lateNs, w.windows, w.dropped = nil, 0, 0
	return w.probe(0)
}

func (w *streamWorkload) probe(i int) error {
	return w.lookup("sales", "sale_id", w.probeKeys[i%len(w.probeKeys)])
}

type groupKey struct {
	start int64
	sym   string
}

type groupAgg struct {
	notional, sumPx float64
	n               int64
}

// foreground streams events until the deadline, then ends the input and
// waits for the stream to finish. A window's latency runs from the due
// time of the first event whose timestamp passes window end + lateness
// (the event that lets the watermark close it) to the client callback:
// it includes queue wait and excludes the window's own length. Windows
// still open when the input ends are flushed by end-of-stream; they are
// checked against the oracle but have no closing event and so no
// latency sample.
func (w *streamWorkload) foreground(lim limit, rec *recorder) {
	ch, err := nexus.NewChannelStream("ts", 4096, tickCols...)
	if err != nil {
		rec.fail(err)
		return
	}
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * time.Second / tickRate) }
	n := min(len(w.ticks), int(lim.deadline.Sub(start).Seconds()*tickRate))
	ticks := w.ticks[:n]

	// Oracle: the batch group-by over the same events, and for each
	// window the index of the event that closes it.
	want := make(map[groupKey]*groupAgg)
	closer := make(map[int64]int)
	maxTS, nextEnd := int64(math.MinInt64), int64(w.spec.WindowMs)
	for i, t := range ticks {
		if t.TS > maxTS {
			for maxTS = t.TS; nextEnd+w.spec.LatenessMs <= maxTS; nextEnd += w.spec.WindowMs {
				closer[nextEnd-w.spec.WindowMs] = i
			}
		}
		if t.Qty <= 0 {
			continue
		}
		k := groupKey{t.TS - t.TS%w.spec.WindowMs, t.Sym}
		g := want[k]
		if g == nil {
			g = &groupAgg{}
			want[k] = g
		}
		g.notional += t.Px * float64(t.Qty)
		g.sumPx += t.Px
		g.n++
	}
	wantWindows := make(map[int64]bool)
	for k := range want {
		wantWindows[k.start] = true
	}

	seen := make(map[groupKey]bool)
	gotWindows := make(map[int64]bool)
	onWindow := func(t *nexus.Table) error {
		now := time.Now()
		starts, err1 := t.Ints(nexus.WindowStartCol)
		syms, err2 := t.Strings("sym")
		notional, err3 := t.Floats("notional")
		counts, err4 := t.Ints("n")
		avg, err5 := t.Floats("avg_px")
		for _, e := range []error{err1, err2, err3, err4, err5} {
			if e != nil {
				return e
			}
		}
		bad := error(nil)
		for i := range starts {
			k := groupKey{starts[i], syms[i]}
			g := want[k]
			switch {
			case g == nil || seen[k]:
				bad = fmt.Errorf("window %d: unexpected or repeated group %q", k.start, k.sym)
			case g.n != counts[i] || g.notional != notional[i] || math.Abs(g.sumPx/float64(g.n)-avg[i]) > 1e-9*avg[i]:
				bad = fmt.Errorf("window %d group %q: got (%v, %d, %v), want (%v, %d, %v)",
					k.start, k.sym, notional[i], counts[i], avg[i], g.notional, g.n, g.sumPx/float64(g.n))
			}
			seen[k] = true
			if gotWindows[k.start] {
				continue
			}
			gotWindows[k.start] = true
			if ci, ok := closer[k.start]; ok {
				if bad != nil {
					rec.fail(bad)
				} else {
					rec.ok(now.Sub(due(ci)), 0)
				}
			}
		}
		return nil
	}

	rs, err := w.streamQuery(ch.Source()).SubscribeRemoteDetachable(context.Background(), []string{w.prov}, onWindow)
	if err != nil {
		rec.fail(err)
		return
	}
	// Open-loop generator: event i is due at start + i/tickRate whatever
	// the system does. Each burst sends everything that has come due.
	for i := 0; i < n; {
		now := time.Now()
		upTo := min(n, int(now.Sub(start).Seconds()*tickRate)+1)
		if i < upTo {
			w.lateNs = append(w.lateNs, int64(now.Sub(due(i))))
		}
		for ; i < upTo; i++ {
			t := ticks[i]
			if err := ch.Send(t.TS, t.Sym, t.Px, t.Qty); err != nil {
				rec.fail(err)
				i = n
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	ch.Close()
	stats, err := rs.Wait()
	if err != nil {
		rec.fail(err)
		return
	}
	w.windows += stats.Windows
	w.dropped += stats.Late
	// Every expected group of every expected window must have arrived,
	// and nothing may have been dropped as late (no event is stamped
	// later than the allowed lateness).
	missing := 0
	for k := range want {
		if !seen[k] {
			missing++
		}
	}
	if missing > 0 || stats.Late != 0 || len(gotWindows) != len(wantWindows) {
		rec.fail(fmt.Errorf("stream end: %d groups missing, %d late-dropped, %d of %d windows",
			missing, stats.Late, len(gotWindows), len(wantWindows)))
	}
}

func (w *streamWorkload) tracedLimit(cfg Config) limit {
	d := time.Duration(tracedStreamS * float64(time.Second))
	if cfg.Smoke {
		d = time.Second / 2
	}
	return limit{deadline: time.Now().Add(d)}
}

func (w *streamWorkload) replay(cfg Config, tr *Tracer, _ int, lm map[string]float64) error {
	r, err := w.replayer(tr)
	if err != nil {
		return err
	}
	defer r.Close()
	n := min(len(w.ticks), int(tracedStreamS*tickRate))
	s, err := ReplayStream(tr, w.spec, w.ticks[:n])
	if err != nil {
		return err
	}
	lm["stream.pipeline_events_per_s"] = s.EventsPerSec
	lm["stream.state_bytes"] = s.StateBytes
	lm["stream.state_snapshot_us"] = s.StateSnapshotUs
	lm["stream.windows_emitted"] = float64(w.windows)
	lm["stream.late_dropped"] = float64(w.dropped)
	lm["stream.generator_late_ms_p95"] = ms(percentile(sorted(w.lateNs), 0.95))
	lm["expr.filter_rows_total"] = float64(n)
	lm["exec.rows_in_per_op"] = float64(n) / math.Max(float64(s.Windows), 1)
	return nil
}

func (w *streamWorkload) close() (int64, int64, error) { return 0, 0, w.shutdown() }
