package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// Report is the one result schema: what -out writes and -compare reads.
type Report struct {
	Schema      string           `json:"schema"`
	Claim       *string          `json:"claim"` // always null: the benchmark claims no gain
	Env         Env              `json:"env"`
	Seconds     float64          `json:"seconds"`
	FlushPolicy string           `json:"flush_policy"`
	Workloads   []WorkloadReport `json:"workloads"`
}

// WorkloadReport holds every run of one workload.
type WorkloadReport struct {
	Name    string             `json:"name"`
	Runs    []RunRecord        `json:"runs"`    // timed runs, one per seed: end-to-end metrics
	Layers  RunRecord          `json:"layers"`  // the traced run on the first seed: per-layer metrics
	Summary map[string]Summary `json:"summary"` // per end-to-end metric, over Runs
	Exact   map[string]float64 `json:"exact,omitempty"`
}

// RunRecord is one child process's result.
type RunRecord struct {
	Seed int64 `json:"seed"`
	Result
}

// Summary is the median and inter-quartile spread of one metric over
// the runs. Spread is (Q3-Q1)/median, quartiles as Python's
// statistics.quantiles(n=4) gives them; null with fewer than two runs.
type Summary struct {
	Unit   string   `json:"unit"`
	N      int      `json:"n"`
	Median float64  `json:"median"`
	Q1     *float64 `json:"q1"`
	Q3     *float64 `json:"q3"`
	Spread *float64 `json:"spread"`
}

// runAll runs every workload in fresh child processes (re-executing
// this binary), so peak RSS, GC state and the program's process-wide
// counters never carry over from one workload to the next.
func runAll(outPath, outDir string, seed int64, runs int, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := Report{Schema: "nexus-bench/1", Env: envInfo(seed), Seconds: seconds, FlushPolicy: FlushPolicy()}
	failed := false
	child := func(name string, s int64, trace int) (RunRecord, error) {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--outdir", outDir)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		rec := RunRecord{Seed: s}
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &rec.Result); err != nil {
			return rec, fmt.Errorf("%s seed %d: no result (%v, %v)", name, s, runErr, err)
		}
		if runErr != nil || !rec.Correct {
			failed = true
		}
		return rec, nil
	}
	for _, name := range workloadNames {
		wr := WorkloadReport{Name: name, Summary: map[string]Summary{}}
		for r := 0; r < runs; r++ {
			rec, err := child(name, seed+int64(r), 0)
			if err != nil {
				return err
			}
			wr.Runs = append(wr.Runs, rec)
			fmt.Printf("%-15s seed %-3d", name, rec.Seed)
			for _, m := range e2eNames {
				fmt.Printf(" %s=%.4g", m, rec.Metrics[m].Value)
			}
			fmt.Printf(" failed=%d/%d\n", rec.Failed, rec.Attempted)
		}
		if wr.Layers, err = child(name, seed, 1); err != nil {
			return err
		}
		for _, m := range e2eNames {
			v := make([]float64, len(wr.Runs))
			for i, rec := range wr.Runs {
				v[i] = rec.Metrics[m].Value
			}
			s := Summary{Unit: wr.Runs[0].Metrics[m].Unit, N: len(v), Median: median(v)}
			if len(v) >= 2 {
				q1, q3 := quartiles(v)
				sp := spread(v)
				s.Q1, s.Q3, s.Spread = &q1, &q3, &sp
			}
			wr.Summary[m] = s
		}
		if name == "cold_selective" || name == "warm_wide" {
			wr.Exact = map[string]float64{}
			for m := range exactCounts {
				wr.Exact[m] = wr.Layers.Metrics[m].Value
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	printReport(rep)
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("at least one run failed or answered wrongly; see %s", outPath)
	}
	return nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// printReport prints every metric of every workload by name, with unit.
func printReport(rep Report) {
	for _, wr := range rep.Workloads {
		fmt.Printf("\n== %s (%d timed runs of %gs)\n", wr.Name, len(wr.Runs), rep.Seconds)
		for _, m := range e2eNames {
			s := wr.Summary[m]
			fmt.Printf("%-42s %14.4f %-6s", m, s.Median, s.Unit)
			if s.Spread != nil {
				fmt.Printf(" spread %.1f%% (Q1 %.4g, Q3 %.4g)", *s.Spread*100, *s.Q1, *s.Q3)
			}
			fmt.Println()
		}
		fmt.Printf("%-42s %14d of %d\n", "failed", sumFailed(wr), sumAttempted(wr))
		names := make([]string, 0, len(wr.Layers.Metrics))
		for n := range wr.Layers.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := wr.Layers.Metrics[n]
			exact := ""
			if _, ok := wr.Exact[n]; ok {
				exact = " exact"
			}
			fmt.Printf("%-42s %14.4f %s%s\n", n, m.Value, m.Unit, exact)
		}
	}
}

func sumFailed(wr WorkloadReport) (n int64) {
	for _, r := range wr.Runs {
		n += r.Failed
	}
	return n + wr.Layers.Failed
}

func sumAttempted(wr WorkloadReport) (n int64) {
	for _, r := range wr.Runs {
		n += r.Attempted
	}
	return n + wr.Layers.Attempted
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareReports prints, per workload and end-to-end metric, base ->
// new with the ratio and a verdict against the metric's bound:
// "worse" when the new median is worse than the base by more than the
// bound, "better" when it is better by more than the bound, "same"
// otherwise — and "unresolved" when either side's own run-to-run spread
// is wider than the bound, so the comparison cannot tell. Failed
// operations may not rise at all. Exact counts must be identical.
func compareReports(benchPath, aPath, bPath string) error {
	var bf benchmarkFile
	if err := readJSON(benchPath, &bf); err != nil {
		return err
	}
	var a, b Report
	if err := readJSON(aPath, &a); err != nil {
		return err
	}
	if err := readJSON(bPath, &b); err != nil {
		return err
	}
	fmt.Printf("base %s (commit %s)\nnew  %s (commit %s)\n\n", aPath, a.Env.Commit, bPath, b.Env.Commit)
	fmt.Printf("%-15s %-14s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict")
	bad := 0
	for _, wa := range a.Workloads {
		var wb *WorkloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			return fmt.Errorf("%s has no workload %s", bPath, wa.Name)
		}
		for _, def := range bf.EndToEnd {
			sa, sb := wa.Summary[def.Name], wb.Summary[def.Name]
			worse := (sb.Median - sa.Median) / sa.Median
			if def.Better == "higher" {
				worse = -worse
			}
			sp := 0.0
			for _, s := range []Summary{sa, sb} {
				if s.Spread != nil {
					sp = math.Max(sp, *s.Spread)
				}
			}
			verdict := "same"
			switch {
			case sp > def.Bound:
				verdict = "unresolved"
			case worse > def.Bound:
				verdict = "worse"
			case worse < -def.Bound:
				verdict = "better"
			}
			if verdict == "worse" || verdict == "unresolved" {
				bad++
			}
			fmt.Printf("%-15s %-14s %12.4f %12.4f %8.3f %6.1f%% %6.1f%%  %s\n",
				wa.Name, def.Name, sa.Median, sb.Median, sb.Median/sa.Median, sp*100, def.Bound*100, verdict)
		}
		fa, fb := sumFailed(wa), sumFailed(*wb)
		verdict := "same"
		if fb > fa {
			verdict = "worse"
			bad++
		}
		fmt.Printf("%-15s %-14s %12d %12d %8s %7s %7s  %s\n", wa.Name, "failed", fa, fb, "", "", "0", verdict)
		for name, va := range wa.Exact {
			if vb, ok := wb.Exact[name]; !ok || va != vb {
				fmt.Printf("%-15s exact count %s differs: %v -> %v\n", wa.Name, name, va, wb.Exact[name])
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows worse, unresolved or differing", bad)
	}
	fmt.Println("\nno row worse or unresolved; exact counts identical")
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
