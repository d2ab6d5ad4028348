package exec

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"nexus/internal/core"
	"nexus/internal/obs"
	"nexus/internal/table"
)

// Execution-layer metrics. Per-kernel counters are pre-resolved into a
// kind-indexed array so the per-node cost is one slice index plus one
// atomic add — cheap enough for the per-morsel hot loops.
var (
	metOps = obs.Default.CounterVec("nexus_exec_ops_total",
		"Operator evaluations by kernel.", "op")
	metMorselWait = obs.Default.Histogram("nexus_exec_morsel_wait_seconds",
		"Time each morsel spent queued before a worker started it.",
		obs.LatencyBuckets())
	metExprCache = obs.Default.CounterVec("nexus_exec_expr_cache_total",
		"Compiled-expression cache lookups by result.", "result")
	metExprCacheHit  = metExprCache.With("hit")
	metExprCacheMiss = metExprCache.With("miss")
)

var opCounters = func() []*obs.Counter {
	kinds := core.AllOpKinds()
	maxK := 0
	for _, k := range kinds {
		if int(k) > maxK {
			maxK = int(k)
		}
	}
	out := make([]*obs.Counter, maxK+1)
	for _, k := range kinds {
		out[int(k)] = metOps.With(k.String())
	}
	return out
}()

func countOp(k core.OpKind) {
	if i := int(k); i >= 0 && i < len(opCounters) && opCounters[i] != nil {
		opCounters[i].Inc()
	}
}

// OpStats is what one plan node did during a traced execution. Wall
// time is inclusive of the node's children (the recursive evaluator's
// natural measure, as in EXPLAIN ANALYZE elsewhere); Calls exceeds 1
// when the node re-evaluates, e.g. inside an Iterate loop or across a
// stream's micro-batches.
type OpStats struct {
	Calls   int64
	RowsOut int64
	Wall    time.Duration
}

// Trace records per-node execution statistics when attached to a
// Runtime. Nodes are keyed by identity, so a trace is only meaningful
// for the exact plan instance that ran. Safe for concurrent use.
type Trace struct {
	mu  sync.Mutex
	ops map[core.Node]*OpStats
}

// TracedExecutor is a provider that can run a plan with a Trace
// attached. Every local engine implements it through Engine; remote
// providers do not (their operators run in another process).
type TracedExecutor interface {
	ExecuteTraced(plan core.Node, tr *Trace) (*table.Table, error)
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{ops: make(map[core.Node]*OpStats)}
}

func (tr *Trace) record(n core.Node, rows int, d time.Duration) {
	tr.mu.Lock()
	st := tr.ops[n]
	if st == nil {
		st = &OpStats{}
		tr.ops[n] = st
	}
	st.Calls++
	st.RowsOut += int64(rows)
	st.Wall += d
	tr.mu.Unlock()
}

// Get returns the recorded stats for a node.
func (tr *Trace) Get(n core.Node) (OpStats, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	st, ok := tr.ops[n]
	if !ok {
		return OpStats{}, false
	}
	return *st, true
}

// ExplainAnalyze renders the plan as core.Explain does — one operator
// per line, indented, with schemas — annotating every node with the
// observed calls, output rows and inclusive wall time from the trace.
func ExplainAnalyze(n core.Node, tr *Trace) string {
	var b strings.Builder
	analyzeInto(&b, n, tr, 0)
	return b.String()
}

func analyzeInto(b *strings.Builder, n core.Node, tr *Trace, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Describe())
	fmt.Fprintf(b, "  → %v", n.Schema())
	if st, ok := tr.Get(n); ok {
		fmt.Fprintf(b, "  (calls=%d rows=%d time=%s)", st.Calls, st.RowsOut, formatWall(st.Wall))
	} else {
		b.WriteString("  (not executed)")
	}
	b.WriteByte('\n')
	for _, c := range n.Children() {
		analyzeInto(b, c, tr, depth+1)
	}
}

func formatWall(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
