package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload in its small configuration (1 s timed
// pass, 50k rows) and checks that each emits exactly the metrics
// BENCHMARK.json names — every one once, finite, with the stated unit —
// and that nothing failed.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	check := func(t *testing.T, kind string, got map[string]Metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for _, m := range want {
			if seen[m.Name] {
				t.Errorf("%s: %s named twice in BENCHMARK.json", kind, m.Name)
			}
			seen[m.Name] = true
			g, ok := got[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			case !ok:
				t.Errorf("%s: %s not emitted", kind, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
			case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
				t.Errorf("%s: %s is %v", kind, m.Name, g.Value)
			}
		}
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			e2e, layers, res, err := Run(Config{Workload: name, Seed: 1, Seconds: 1, Trace: true, Smoke: true, OutDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			check(t, "end_to_end", e2e, spec.EndToEnd)
			check(t, "per_layer", layers, spec.PerLayer)
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("failed %d of %d, correct %v", res.Failed, res.Attempted, res.Correct)
			}
			if layers["client.failed_frac"].Value != 0 {
				t.Errorf("failed_frac = %v", layers["client.failed_frac"].Value)
			}
			for _, m := range e2eNames {
				if e2e[m].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m, e2e[m].Value)
				}
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(100 - i) // 100..1, unsorted
	}
	v = sorted(v)
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p*100, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.95); got != 7 {
		t.Errorf("p95 of one sample = %d", got)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples must be 0")
	}
	// p95 needs ten samples beyond it: 200 samples leave exactly ten.
	if !tailSupported(200, 0.95) || tailSupported(199, 0.95) || tailSupported(0, 0.5) {
		t.Error("tailSupported: want true at 200, false at 199 and 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v", q1, q3, median(v))
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},    // overlaps a: the union [10,60) is subtracted once
		{Name: "c", Start: 90, End: 120, Parent: 0},   // runs past its parent: clipped to [90,100)
		{Name: "leaf", Start: 15, End: 20, Parent: 1}, // grandchild: only a pays for it
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
	spans[1].Op, spans[2].Op = 1, 1
	by := perOp(append(spans, Span{Name: "a", Start: 200, End: 204, Parent: -1, Op: 2}))
	if by["a"][1] != 25 || by["a"][2] != 4 || medianUs(by, "a") != (25+4)/2.0/1e3 {
		t.Errorf("perOp/medianUs: %v, median %v", by["a"], medianUs(by, "a"))
	}
}
