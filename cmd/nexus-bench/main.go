// nexus-bench runs the experiment suite derived from the paper's goals
// and desiderata (E1–E8, implemented in internal/experiments) and prints
// each experiment's table. Performance numbers come from the repository
// benchmark instead: bash bench/run.sh (see bench/README.md).
//
// Usage:
//
//	nexus-bench                  # run everything at default sizes
//	nexus-bench -run E3,E4       # selected experiments
//	nexus-bench -quick           # smaller sizes (CI-friendly)
//	nexus-bench -tcp             # E4 over real TCP loopback servers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nexus/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids (E1..E8) or 'all'")
	quick := flag.Bool("quick", false, "use reduced problem sizes")
	tcp := flag.Bool("tcp", false, "run E4 over TCP loopback servers instead of in-process transports")
	flag.Parse()

	want := map[string]bool{}
	if *run == "all" {
		for i := 1; i <= 8; i++ {
			want[fmt.Sprintf("E%d", i)] = true
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	type exp struct {
		id  string
		run func() (*experiments.Result, error)
	}
	all := []exp{
		{"E1", experiments.E1Coverage},
		{"E2", experiments.E2Translatability},
		{"E3", func() (*experiments.Result, error) {
			sizes := []int{32, 64, 96, 128, 192, 256}
			if *quick {
				sizes = []int{32, 64}
			}
			return experiments.E3Intent(sizes)
		}},
		{"E4", func() (*experiments.Result, error) {
			rows := []int{10000, 50000, 200000}
			if *quick {
				rows = []int{5000, 20000}
			}
			return experiments.E4Interop(rows, *tcp)
		}},
		{"E5", func() (*experiments.Result, error) {
			if *quick {
				return experiments.E5Iteration(1000, 5000, 8)
			}
			return experiments.E5Iteration(5000, 25000, 10)
		}},
		{"E6", experiments.E6Portability},
		{"E7", func() (*experiments.Result, error) {
			depths := []int{1, 2, 4, 8, 16}
			if *quick {
				depths = []int{1, 4, 8}
			}
			return experiments.E7Shipping(depths)
		}},
		{"E8", func() (*experiments.Result, error) {
			rows := 100000
			if *quick {
				rows = 20000
			}
			return experiments.E8Ablation(rows)
		}},
	}

	failed := false
	for _, e := range all {
		if !want[e.id] {
			continue
		}
		t0 := time.Now()
		res, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n", e.id, err)
			failed = true
			continue
		}
		fmt.Println(res)
		fmt.Printf("(%s completed in %v)\n\n", e.id, time.Since(t0).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
