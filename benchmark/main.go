// Command benchmark is the repository's one benchmark: four named
// workloads over the whole pipeline (library batch evaluation, HTTP
// streaming, HTTP paging from the result memo, and updates beside
// queries on a persistent engine), five end-to-end metrics with
// regression bounds fixed in BENCHMARK.json, and a separate traced run
// that measures every layer from outside. It generates all inputs from
// -seed, checks every answer, and exits non-zero on any wrong one.
//
//	bash benchmark/run.sh                       all four workloads, untraced
//	bash benchmark/run.sh -trace 1              the per-layer run
//	bash benchmark/run.sh -workload serve-hot -seed 7 -seconds 15 -trace 0
//	bash benchmark/run.sh -compare old/ new/    apply the bounds
//
// README.md in this directory says why each workload exists, what each
// metric means on it, and which public functions the layer replay pins.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of paper-batch, stream-dense, serve-hot, serve-churn")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", defaultSeconds, "target length of the measured phase; fixes the amount of work")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracer off; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for run-*.json results and trace-*.json spans")
	compare := fs.Bool("compare", false, "compare two results directories (or files): -compare old new")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare old new")
			return 2
		}
		worse, err := compareResults("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out dir]")
		return 2
	}

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	code := 0
	for _, name := range names {
		res, err := runWorkload(config{
			workload: name,
			seed:     *seed,
			seconds:  *seconds,
			trace:    *trace == 1,
			scale:    fullScale,
			work:     workFor(*seconds),
			outDir:   *out,
		})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res.print(stdout)
		if !res.Correct {
			code = 1
		}
		// The contract's summary: the last line of a single-workload
		// run, and one line per workload of a full run.
		fmt.Fprintln(stdout, res.finalLine())
	}
	return code
}
