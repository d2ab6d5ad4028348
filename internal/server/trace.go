package server

import (
	"time"

	"nexus/internal/core"
	"nexus/internal/engines/exec"
	"nexus/internal/obs/trace"
	"nexus/internal/table"
	"nexus/internal/wire"
)

// Server-side half of distributed tracing: requests that arrive with a
// wire.TraceCtx trailing field get spans recorded into the process
// tracer (trace.Default), parented under the client's span, so the
// client's trace id stitches across every server it touches. Requests
// without the field cost nothing — every helper here is nil-safe.

// traceCtx converts the wire representation into the tracer's.
func traceCtx(tc wire.TraceCtx) trace.Context {
	return trace.Context{TraceID: trace.TraceID(tc.TraceID), SpanID: trace.SpanID(tc.SpanID)}
}

// scanStatsProvider exposes cumulative storage-scan counters (the
// durable engine implements it); the execute path snapshots them
// around a traced run so the storage span can report this request's
// segment reads.
type scanStatsProvider interface {
	SegmentsScanned() int64
	SegmentsSkipped() int64
	BytesRead() int64
}

// scanStats is one snapshot of a scanStatsProvider.
type scanStats struct {
	scanned, skipped, bytes int64
	ok                      bool
}

func snapshotScanStats(p any) scanStats {
	sp, ok := p.(scanStatsProvider)
	if !ok {
		return scanStats{}
	}
	return scanStats{scanned: sp.SegmentsScanned(), skipped: sp.SegmentsSkipped(), bytes: sp.BytesRead(), ok: true}
}

// executeTraced runs a plan under the provider, with per-operator
// tracing when the request carries a trace (sp non-nil) and the
// provider supports it. The exec.Trace node stats become child spans
// of sp, one per plan node, mirroring the plan tree; a storage.scan
// span carries the segment pruning/read deltas when the provider
// exposes them.
func (cc *connCtx) executeTraced(plan core.Node, sp *trace.Span) (*table.Table, error) {
	te, canTrace := cc.prov.(exec.TracedExecutor)
	if sp == nil || !canTrace {
		return cc.prov.Execute(plan)
	}
	before := snapshotScanStats(cc.prov)
	tr := exec.NewTrace()
	start := time.Now()
	t, err := te.ExecuteTraced(plan, tr)
	dur := time.Since(start)
	EmitPlanSpans(sp.Context(), plan, tr, start)
	if before.ok {
		after := snapshotScanStats(cc.prov)
		trace.Default.Emit(sp.Context(), "storage.scan", start, dur, []trace.Attr{
			trace.Int("segments_scanned", after.scanned-before.scanned),
			trace.Int("segments_pruned", after.skipped-before.skipped),
			trace.Int("bytes_read", after.bytes-before.bytes),
		}, nil)
	}
	return t, err
}

// EmitPlanSpans converts a traced plan's node stats into spans that
// mirror the plan tree under parent. Node wall time is inclusive of
// children (exec.Trace's measure); each span starts at the execution
// start — the runtime does not record per-node start offsets. Exported
// for the public API's local-fragment fast path, which traces local
// executions the same way a server traces remote ones.
func EmitPlanSpans(parent trace.Context, n core.Node, tr *exec.Trace, start time.Time) {
	if n == nil {
		return
	}
	st, ok := tr.Get(n)
	ctx := parent
	if ok {
		name := "exec:" + n.Describe()
		if len(name) > 120 {
			name = name[:120]
		}
		id := trace.Default.Emit(parent, name, start, st.Wall, []trace.Attr{
			trace.Int("calls", st.Calls),
			trace.Int("rows_out", st.RowsOut),
		}, nil)
		if id != 0 {
			ctx = trace.Context{TraceID: parent.TraceID, SpanID: id}
		}
	}
	// Nodes a fused kernel absorbed have no stats; their children hang
	// off the nearest traced ancestor.
	for _, c := range n.Children() {
		EmitPlanSpans(ctx, c, tr, start)
	}
}

// firstScanDataset names the first Scan operator's dataset in a plan
// ("" when the plan scans nothing) — the dataset label for the live
// ops registry.
func firstScanDataset(n core.Node) string {
	if n == nil {
		return ""
	}
	if sc, ok := n.(*core.Scan); ok {
		return sc.Dataset
	}
	for _, c := range n.Children() {
		if ds := firstScanDataset(c); ds != "" {
			return ds
		}
	}
	return ""
}

// tenantName returns the connection's hello-declared tenant.
func (cc *connCtx) tenantName() string {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.tenant
}
