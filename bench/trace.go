package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced pass. Spans are recorded by
// the benchmark itself, around its calls into each layer's public
// functions; the program's own tracing stays off. Times are nanoseconds
// since the tracer started. Spans of one operation share Op; Parent is
// the index of the span that caused this one, -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// Tracer keeps spans in memory until the workload ends.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns its index.
func (t *Tracer) Start(name string, parent, op int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// End closes a span.
func (t *Tracer) End(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Ended adds a root span that ends now and took took, for an interval
// measured by the caller.
func (t *Tracer) Ended(name string, took time.Duration, op int) {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: end - int64(took), End: end, Parent: -1, Op: op})
	t.mu.Unlock()
}

// Do runs fn under a span.
func (t *Tracer) Do(name string, parent, op int, fn func()) {
	id := t.Start(name, parent, op)
	fn()
	t.End(id)
}

// Spans returns a copy of the spans. Indices are kept, so Parent stays
// valid; a span still open is given zero length.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Span(nil), t.spans...)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = out[i].Start
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may overlap each other; the
// union is subtracted once). Parent indices refer to positions in
// spans.
func selfTimes(spans []Span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// perOp sums, for every span name, the self times of that name's spans
// within each operation: name -> op -> nanoseconds.
func perOp(spans []Span) map[string]map[int]int64 {
	self := selfTimes(spans)
	out := make(map[string]map[int]int64)
	for i, s := range spans {
		m := out[s.Name]
		if m == nil {
			m = make(map[int]int64)
			out[s.Name] = m
		}
		m[s.Op] += self[i]
	}
	return out
}

// medianUs is the per-operation median of one span name's self time in
// microseconds; 0 when the name was never recorded.
func medianUs(byName map[string]map[int]int64, name string) float64 {
	v := make([]float64, 0, len(byName[name]))
	for _, ns := range byName[name] {
		v = append(v, us(ns))
	}
	return median(v)
}

// WriteJSON writes the spans to path, creating its directory.
func (t *Tracer) WriteJSON(path string, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{workload, t.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
