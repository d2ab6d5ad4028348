// Command bench is the repository's benchmark: four client-to-disk
// workloads against an in-process durable nexus server, seven gated
// end-to-end metrics per workload, and a per-layer replay trace. It
// claims no gain; it is the instrument later claims are measured with.
//
//	bench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload in this process; the last line of
//	    standard output is the result object (what BENCHMARK.json runs)
//	bench [-seed N] [-runs K] [-seconds S] -out result.json
//	    every workload, each run in a fresh child process
//	bench -compare a.json b.json
//	    two result files against the bounds in BENCHMARK.json
//
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	workload := flag.String("workload", "", "run this one workload in this process")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: also the traced pass, per-layer metrics")
	outDir := flag.String("outdir", "bench/out", "directory for trace_<workload>.json")
	out := flag.String("out", "", "run every workload in child processes and write the report here")
	runs := flag.Int("runs", 1, "with -out: timed runs per workload, on seeds seed..seed+runs-1")
	compare := flag.Bool("compare", false, "compare two report files given as arguments")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "with -compare: where the bounds are")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two report files")
			break
		}
		err = compareReports(*benchmark, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = runOne(Config{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: *outDir})
	case *out != "":
		err = runAll(*out, *outDir, *seed, *runs, *seconds)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload here, prints every metric by name with its
// unit, then the result object as the last line. A wrong answer is an
// error exit after the result is printed.
func runOne(cfg Config) error {
	e2e, layers, res, err := Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v gomaxprocs=%d; %s\n",
		cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace, runtime.GOMAXPROCS(0), FlushPolicy())
	printMetrics(e2e, e2eNames)
	if layers != nil {
		names := make([]string, 0, len(layers))
		for n := range layers {
			names = append(names, n)
		}
		sort.Strings(names)
		printMetrics(layers, names)
	}
	fmt.Printf("attempted %d failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or answered wrongly", cfg.Workload, res.Failed, res.Attempted)
	}
	return nil
}

func printMetrics(m map[string]Metric, names []string) {
	for _, n := range names {
		fmt.Printf("%-42s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
