package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Config is one run of one workload.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the timed pass
	Trace    bool    // also run the traced pass and report per-layer metrics
	Smoke    bool    // small sizes for the test suite
	OutDir   string  // where trace_<workload>.json goes
}

// Sizes that define the workloads. Changing any of them changes what is
// measured, so they live in one place and README.md states them.
const (
	salesRows      = 500_000 // cold_selective, warm_wide
	smokeSalesRows = 50_000
	loadBatchRows  = 50_000    // rows per append+flush while loading sales
	probeHz        = 20        // open-loop probe rate
	probeRows      = 100       // rows a probe returns
	appendRows     = 256       // rows per ingest_mixed append
	rssAtRows      = 3_000_000 // rows into an ingest_mixed pass at which peak_rss_mb is read
	staticRows     = 100_000
	tickRate       = 20_000 // stream_windows events per second
	windowMs       = 50     // stream_windows tumbling window
	latenessMs     = 50     // allowed lateness
	maxLateMs      = 40     // how late the late 1 % of events are stamped
	tracedOps      = 30     // operations of the traced pass (query workloads)
	tracedAppends  = 200    // operations of the traced pass (ingest_mixed)
	tracedStreamS  = 2.0    // seconds of the traced pass (stream_windows)
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// limit ends a foreground loop: at the deadline, or after maxOps
// operations when maxOps > 0.
type limit struct {
	deadline time.Time
	maxOps   int
}

func (l limit) done(ops int) bool {
	return (l.maxOps > 0 && ops >= l.maxOps) || !time.Now().Before(l.deadline)
}

// recorder collects the foreground's raw latency samples. With a
// tracer attached (traced pass) every sample is also a client.op span.
type recorder struct {
	mu        sync.Mutex
	lat       []int64 // ns, one per correct operation
	kind      []uint8 // template of each sample
	attempted int64
	failed    int64
	firstErr  error
	tr        *Tracer
	// peakRSS, when a workload sets it, replaces the high-water mark
	// read at the end of the pass: a workload whose memory grows with
	// the work done reads the mark at a fixed amount of work.
	peakRSS float64
}

// ok records a correct operation that ended now and took lat.
func (r *recorder) ok(lat time.Duration, kind int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tr != nil {
		r.tr.Ended("client.op", lat, len(r.lat))
	}
	r.attempted++
	r.lat = append(r.lat, int64(lat))
	r.kind = append(r.kind, uint8(kind))
}

// fail records an operation that errored, was refused or answered
// wrongly. It has no latency: a failed operation misses every one.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// workload is one of the four client-to-disk scenarios.
type workload interface {
	// setup generates the inputs, loads them into a fresh system in dir,
	// connects the one mux session and warms up.
	setup(cfg Config, dir string) error
	// foreground is the closed-loop caller (or, for the stream, the
	// open-loop generator and its subscriber): it runs until lim and
	// records one sample per operation.
	foreground(lim limit, rec *recorder)
	// probe issues the i-th small lookup and checks its answer.
	probe(i int) error
	// tracedLimit is how long the foreground runs in the traced pass: a
	// fixed operation count where the workload has one.
	tracedLimit(cfg Config) limit
	// replay runs the in-process, layer-by-layer half of the traced
	// pass for the ops operations foreground just recorded, and adds the
	// counts only it can see to lm.
	replay(cfg Config, tr *Tracer, ops int, lm map[string]float64) error
	// close tears the system down and runs the checks that need it
	// stopped; it returns how many checks it made and how many failed.
	close() (checks, failed int64, err error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "cold_selective":
		return &queryWorkload{cold: true}, nil
	case "warm_wide":
		return &queryWorkload{}, nil
	case "ingest_mixed":
		return &ingestWorkload{}, nil
	case "stream_windows":
		return &streamWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pass is the outcome of one timed (or traced) pass.
type pass struct {
	fg           *recorder
	probeLat     []int64 // ns from due time, correct probes only
	probeLate    []int64 // ns the probe started after its due time
	probeTried   int64
	probeFailed  int64
	probeErr     error
	wall         time.Duration
	cpu          int64   // ns of process CPU
	peakRSS      float64 // MiB, high-water mark when the foreground ended
	alloc        uint64
	gcCycles     uint32
	gcPauseNs    uint64
	connsOpen    float64
	subsOpenEnd  float64
	refusedDelta float64
}

// runPass drives the foreground until lim, with the open-loop probe
// beside it when probing is on. Probe k is due at start + k/probeHz and
// is timed from then, so a stall charges every probe it delays.
func runPass(w workload, lim limit, probing bool, tr *Tracer) *pass {
	p := &pass{fg: &recorder{tr: tr}}
	before := Counters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := cpuNanos(), time.Now()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if probing {
		wg.Add(1)
		go func() {
			defer wg.Done()
			period := time.Second / probeHz
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * period)
				select {
				case <-stop:
					return
				case <-time.After(time.Until(due)): // at once when the probe runs behind
				}
				began := time.Now()
				err := w.probe(k)
				p.probeTried++
				if err != nil {
					p.probeFailed++
					if p.probeErr == nil {
						p.probeErr = err
					}
					continue
				}
				p.probeLat = append(p.probeLat, int64(time.Since(due)))
				p.probeLate = append(p.probeLate, int64(began.Sub(due)))
			}
		}()
	}
	w.foreground(lim, p.fg)
	p.wall = time.Since(start)
	p.cpu = cpuNanos() - cpu0
	if p.peakRSS = p.fg.peakRSS; p.peakRSS == 0 {
		p.peakRSS = peakRSSMiB()
	}
	close(stop)
	wg.Wait()

	runtime.ReadMemStats(&m1)
	p.alloc, p.gcCycles, p.gcPauseNs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	after := Counters()
	p.connsOpen = after["nexus_server_connections"]
	for k, v := range after {
		switch {
		case strings.HasPrefix(k, "nexus_server_subscriptions"):
			p.subsOpenEnd += v
		case strings.HasPrefix(k, "nexus_mux_refusals_total"), strings.HasPrefix(k, "nexus_server_admission_refused_total"):
			p.refusedDelta += v - before[k]
		}
	}
	return p
}

// Run executes one workload: set-up (three times over when only the
// end-to-end metrics are wanted, so setup_s is a median), the timed
// pass with all tracing off, then — with cfg.Trace — the traced pass.
// End-to-end metrics always come from the timed pass.
func Run(cfg Config) (e2e, layers map[string]Metric, res Result, err error) {
	w, err := newWorkload(cfg.Workload)
	if err != nil {
		return nil, nil, res, err
	}
	base, err := os.MkdirTemp("", "nexus-bench-")
	if err != nil {
		return nil, nil, res, err
	}
	defer os.RemoveAll(base)

	repeats := 3
	if cfg.Trace || cfg.Smoke {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			if _, _, err := w.close(); err != nil {
				return nil, nil, res, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			w, _ = newWorkload(cfg.Workload)
		}
		t0 := time.Now()
		if err := w.setup(cfg, filepath.Join(base, fmt.Sprintf("data%d", i))); err != nil {
			return nil, nil, res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC() // every set-up starts from a collected heap
	}

	resetPeakRSS()
	timed := runPass(w, limit{deadline: time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))}, true, nil)

	lm := map[string]float64{}
	var traced *pass
	if cfg.Trace {
		tr := NewTracer()
		for i := 0; i < 20; i++ { // the probe on an idle connection, for hol_wait_ms
			id := tr.Start("federation.probe_idle", -1, -1-i)
			perr := w.probe(i)
			tr.End(id)
			if perr != nil {
				return nil, nil, res, fmt.Errorf("idle probe: %w", perr)
			}
		}
		traced = runPass(w, w.tracedLimit(cfg), false, tr)
		if err := w.replay(cfg, tr, len(traced.fg.lat), lm); err != nil {
			return nil, nil, res, fmt.Errorf("replay: %w", err)
		}
		if err := tr.WriteJSON(filepath.Join(cfg.OutDir, "trace_"+cfg.Workload+".json"), cfg.Workload); err != nil {
			return nil, nil, res, err
		}
		spanMetrics(tr, lm)
	}
	checks, checkFailed, err := w.close()
	if err != nil {
		return nil, nil, res, fmt.Errorf("close: %w", err)
	}
	goroutinesEnd := runtime.NumGoroutine()

	// ---- end-to-end metrics, from the timed pass only
	fg := sorted(timed.fg.lat)
	pl := sorted(timed.probeLat)
	ops := float64(len(fg))
	res.Attempted = timed.fg.attempted + timed.probeTried + checks
	res.Failed = timed.fg.failed + timed.probeFailed + checkFailed
	if traced != nil {
		res.Attempted += traced.fg.attempted
		res.Failed += traced.fg.failed
	}
	res.Correct = res.Failed == 0 && len(fg) > 0 && len(pl) > 0
	for _, e := range []error{timed.fg.firstErr, timed.probeErr} {
		if e != nil {
			fmt.Fprintln(os.Stderr, "bench: first failure:", e)
		}
	}
	if !cfg.Smoke && (!tailSupported(len(fg), 0.95) || !tailSupported(len(pl), 0.95)) {
		fmt.Fprintf(os.Stderr, "bench: p95 has fewer than ten samples beyond it (ops %d, probes %d)\n", len(fg), len(pl))
	}
	e2e = map[string]Metric{
		"setup_s":       {median(setups), "s"},
		"op_p50_ms":     {ms(percentile(fg, 0.50)), "ms"},
		"op_p95_ms":     {ms(percentile(fg, 0.95)), "ms"},
		"ops_per_s":     {ops / timed.wall.Seconds(), "1/s"},
		"probe_p95_ms":  {ms(percentile(pl, 0.95)), "ms"},
		"cpu_ms_per_op": {ms(timed.cpu) / math.Max(ops, 1), "ms"},
		"peak_rss_mb":   {timed.peakRSS, "MiB"},
	}
	if !cfg.Trace {
		res.Metrics = e2e
		return e2e, nil, res, nil
	}

	// ---- per-layer metrics
	late := sorted(timed.probeLate)
	lm["client.op_p99_ms"] = ms(percentile(fg, 0.99))
	lm["client.op_max_ms"] = ms(percentile(fg, 1))
	lm["client.samples"] = ops
	lm["client.probe_p50_ms"] = ms(percentile(pl, 0.50))
	lm["client.probe_late_ms_p95"] = ms(percentile(late, 0.95))
	lm["client.failed_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	for k, name := range []string{"client.q1_p50_ms", "client.q2_p50_ms", "client.q3_p50_ms"} {
		var v []int64
		for i, lat := range timed.fg.lat {
			if int(timed.fg.kind[i]) == k {
				v = append(v, lat)
			}
		}
		lm[name] = ms(percentile(sorted(v), 0.50))
	}
	lm["runtime.alloc_kb_per_op"] = float64(timed.alloc) / 1024 / math.Max(ops, 1)
	lm["runtime.gc_cycles"] = float64(timed.gcCycles)
	lm["runtime.gc_pause_ms_total"] = float64(timed.gcPauseNs) / 1e6
	lm["runtime.goroutines_end"] = float64(goroutinesEnd)
	lm["server.conns_open"] = timed.connsOpen
	lm["server.subs_open_end"] = timed.subsOpenEnd
	lm["server.refused_ops"] = timed.refusedDelta
	lm["federation.hol_wait_ms"] = lm["client.probe_p50_ms"] - lm["federation.probe_idle_us"]/1e3
	if p50 := e2e["op_p50_ms"].Value; p50 > 0 {
		tp := sorted(traced.fg.lat)
		lm["bench.trace_overhead_frac"] = ms(percentile(tp, 0.50))/p50 - 1
	}
	wholeProcessCounters(lm)

	layers = make(map[string]Metric, len(layerUnits))
	for name, unit := range layerUnits {
		layers[name] = Metric{lm[name], unit} // a layer the workload never enters reads 0
	}
	res.Metrics = layers
	return e2e, layers, res, nil
}

// spanMetrics turns the traced pass's spans into per-layer medians:
// for each layer step, the per-operation median of its self time.
func spanMetrics(tr *Tracer, lm map[string]float64) {
	by := perOp(tr.Spans())
	for span, metric := range map[string]string{
		"federation.mux_rtt":    "federation.mux_rtt_us",
		"federation.tcp_rtt":    "federation.tcp_rtt_us",
		"federation.probe_idle": "federation.probe_idle_us",
		"wire.plan_encode":      "wire.plan_encode_us",
		"wire.plan_decode":      "wire.plan_decode_us",
		"wire.result_encode":    "wire.result_encode_us",
		"wire.result_decode":    "wire.result_decode_us",
		"wire.append_codec":     "wire.append_codec_us",
		"wire.stream_frame":     "wire.stream_frame_us",
		"planner.optimize":      "planner.optimize_us",
		"planner.scan_access":   "planner.scan_access_us",
		"storage.read_crc":      "storage.read_crc_us",
		"storage.page_parse":    "storage.page_parse_us",
		"storage.filter":        "storage.filter_us",
		"storage.materialize":   "storage.materialize_us",
		"storage.append":        "storage.append_us",
		"path.engine":           "storage.engine_execute_us",
		"exec.run":              "exec.run_us",
		"exec.group_agg":        "exec.group_agg_us",
		"expr.compile":          "expr.compile_us",
	} {
		lm[metric] = medianUs(by, span)
	}
	sumIf := func(keep func(op int) bool, names ...string) (total float64) {
		for _, n := range names {
			for op, ns := range by[n] {
				if keep(op) {
					total += float64(ns)
				}
			}
		}
		return
	}
	sum := func(names ...string) float64 { return sumIf(func(int) bool { return true }, names...) }
	// mux minus InProc, per operation: framing, loopback TCP, mux routing
	// and server dispatch/admission together. The two cannot be split
	// from outside the program.
	var door []float64
	for op, muxNs := range by["path.mux"] {
		door = append(door, us(muxNs-by["path.inproc"][op]))
	}
	lm["federation.frontdoor_self_us"] = median(door)

	// Shares and coverage are taken over the operations the replay
	// mirrors step for step. A grouped aggregate is replayed down the
	// decoding path as a reference for the engine's encoded aggregate,
	// not as a mirror of it, so those operations are left out.
	mirrored := func(op int) bool { _, agg := by["exec.group_agg"][op]; return !agg }
	if client := sumIf(mirrored, "client.op"); client > 0 && len(by["path.engine"]) > 0 {
		storage := sumIf(mirrored, "storage.scan", "storage.page_parse", "storage.filter", "storage.materialize")
		codec := sumIf(mirrored, "wire.plan_encode", "wire.plan_decode", "wire.result_encode", "wire.result_decode")
		door := 0.0
		for op, muxNs := range by["path.mux"] {
			if mirrored(op) {
				door += math.Max(float64(muxNs-by["path.inproc"][op]), 0)
			}
		}
		lm["bench.storage_share_frac"] = storage / client
		lm["bench.frontdoor_share_frac"] = (codec + door) / client
		// Coverage is the median over operations of replayed steps ÷
		// Engine.Execute: the two run at different moments of the
		// collector's cycle, so single operations scatter widely.
		var cover []float64
		for op, engNs := range by["path.engine"] {
			if mirrored(op) && engNs > 0 {
				one := func(o int) bool { return o == op }
				cover = append(cover, sumIf(one, "planner.scan_access", "storage.scan", "storage.page_parse",
					"storage.filter", "storage.materialize", "exec.run")/float64(engNs))
			}
		}
		lm["bench.replay_coverage_frac"] = median(cover)
	}
	if enc := sum("wire.result_encode"); enc > 0 {
		lm["wire.encode_mb_s"] = lm["wire.result_bytes_total"] / enc * 1e9 / (1 << 20)
		lm["wire.decode_mb_s"] = lm["wire.result_bytes_total"] / sum("wire.result_decode") * 1e9 / (1 << 20)
	}
	if rows := lm["expr.filter_rows_total"]; rows > 0 {
		lm["expr.filter_ns_per_row"] = sum("expr.filter") / rows
	}
}

// wholeProcessCounters reads the storage write-side counts for the
// whole life of this process — set-up, timed pass and traced pass. The
// process is fresh per workload, so these are the workload's totals.
func wholeProcessCounters(lm map[string]float64) {
	c := Counters()
	lm["storage.flush_count"] = c["nexus_storage_flushes_total"]
	if n := c["nexus_storage_flush_seconds#count"]; n > 0 {
		lm["storage.flush_ms"] = c["nexus_storage_flush_seconds#sum"] / n * 1e3
	}
	lm["storage.compact_runs"] = c["nexus_storage_compactions_total"]
	if n := c["nexus_storage_compact_seconds#count"]; n > 0 {
		lm["storage.compact_ms"] = c["nexus_storage_compact_seconds#sum"] / n * 1e3
	}
	lm["storage.compact_bytes_rewritten"] = c["nexus_storage_compact_bytes_out_total"]
	if n := c["nexus_wal_records_total"]; n > 0 {
		lm["storage.wal_fsyncs_per_append"] = c["nexus_wal_fsync_seconds#count"] / n
	}
}
