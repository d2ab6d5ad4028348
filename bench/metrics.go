package main

// The benchmark's metric catalogue. BENCHMARK.json at the repository
// root carries the same names, units and — for the end-to-end metrics —
// the regression bounds; bench_test.go holds the two in step.

// workloadNames is the run order; the reasons are in BENCHMARK.json.
var workloadNames = []string{"cold_selective", "warm_wide", "ingest_mixed", "stream_windows"}

// e2eNames lists the end-to-end metrics in report order.
var e2eNames = []string{"setup_s", "op_p50_ms", "op_p95_ms", "ops_per_s", "probe_p95_ms", "cpu_ms_per_op", "peak_rss_mb"}

// exactCounts are the per-layer counts that repeat exactly for a given
// seed on cold_selective and warm_wide: one client, no timers.
var exactCounts = map[string]bool{
	"wire.result_bytes_per_op":               true,
	"storage.bytes_read_per_op":              true,
	"storage.segments_scanned_per_op":        true,
	"storage.rows_examined_per_row_returned": true,
	"planner.segments_pruned_frac":           true,
	"exec.rows_in_per_op":                    true,
}

// layerUnits is every per-layer metric and its unit. Times are
// per-operation medians of self time from the traced pass.
var layerUnits = map[string]string{
	"federation.mux_rtt_us":        "us",
	"federation.tcp_rtt_us":        "us",
	"federation.probe_idle_us":     "us",
	"federation.frontdoor_self_us": "us",
	"federation.hol_wait_ms":       "ms",

	"server.refused_ops":   "count",
	"server.conns_open":    "count",
	"server.subs_open_end": "count",

	"wire.plan_encode_us":      "us",
	"wire.plan_decode_us":      "us",
	"wire.result_encode_us":    "us",
	"wire.result_decode_us":    "us",
	"wire.result_bytes_per_op": "B",
	"wire.encode_mb_s":         "MiB/s",
	"wire.decode_mb_s":         "MiB/s",
	"wire.append_codec_us":     "us",
	"wire.stream_frame_us":     "us",

	"planner.optimize_us":          "us",
	"planner.scan_access_us":       "us",
	"planner.segments_pruned_frac": "ratio",

	"storage.read_crc_us":                    "us",
	"storage.page_parse_us":                  "us",
	"storage.filter_us":                      "us",
	"storage.materialize_us":                 "us",
	"storage.engine_execute_us":              "us",
	"storage.bytes_read_per_op":              "B",
	"storage.segments_scanned_per_op":        "count",
	"storage.rows_examined_per_row_returned": "ratio",
	"storage.cache_hit_frac":                 "ratio",

	"storage.append_us":               "us",
	"storage.wal_fsyncs_per_append":   "ratio",
	"storage.flush_ms":                "ms",
	"storage.flush_count":             "count",
	"storage.compact_ms":              "ms",
	"storage.compact_runs":            "count",
	"storage.compact_bytes_rewritten": "B",
	"storage.write_amp":               "ratio",
	"storage.space_amp":               "ratio",
	"storage.segments_at_end":         "count",

	"exec.run_us":            "us",
	"exec.group_agg_us":      "us",
	"exec.rows_in_per_op":    "count",
	"expr.compile_us":        "us",
	"expr.filter_ns_per_row": "ns",

	"stream.pipeline_events_per_s": "1/s",
	"stream.windows_emitted":       "count",
	"stream.late_dropped":          "count",
	"stream.generator_late_ms_p95": "ms",
	"stream.state_bytes":           "B",
	"stream.state_snapshot_us":     "us",

	"runtime.alloc_kb_per_op":   "KiB",
	"runtime.gc_cycles":         "count",
	"runtime.gc_pause_ms_total": "ms",
	"runtime.goroutines_end":    "count",

	"client.op_p99_ms":         "ms",
	"client.op_max_ms":         "ms",
	"client.samples":           "count",
	"client.probe_p50_ms":      "ms",
	"client.probe_late_ms_p95": "ms",
	"client.q1_p50_ms":         "ms",
	"client.q2_p50_ms":         "ms",
	"client.q3_p50_ms":         "ms",
	"client.failed_frac":       "ratio",

	"bench.trace_overhead_frac":  "ratio",
	"bench.replay_coverage_frac": "ratio",
	"bench.storage_share_frac":   "ratio",
	"bench.frontdoor_share_frac": "ratio",
}
