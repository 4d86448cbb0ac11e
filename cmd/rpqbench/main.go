// Command rpqbench regenerates the paper's evaluation tables and figures
// as text.
//
// Usage:
//
//	rpqbench -experiment fig10a            # one experiment
//	rpqbench -experiment all               # everything (minutes)
//	rpqbench -experiment all -paper        # the paper's full protocol (hours)
//	rpqbench -experiment list              # show the experiment registry (same as -list)
//
// Scale knobs (-scale, -sets, -rpqs, …) trade fidelity for time; the
// default configuration reproduces every trend in minutes on a laptop.
// rpqbench prints human-readable tables only. The repository's tracked
// numbers — end-to-end and per-layer, with in-run oracles — come from
// `bash benchmark/run.sh` (see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rtcshare/internal/bench"
	"rtcshare/internal/cli"
)

func main() {
	cli.Exit("rpqbench", run(os.Args[1:]))
}

func run(args []string) error {
	fs := flag.NewFlagSet("rpqbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "experiment id (see -list) or 'all'")
		list       = fs.Bool("list", false, "list available experiments")
		paper      = fs.Bool("paper", false, "use the paper's full protocol (2^13-vertex RMAT, 90 sets; hours)")
		scale      = fs.Int("scale", 0, "override the RMAT scale exponent")
		maxN       = fs.Int("maxn", -1, "override the largest RMAT_N")
		sets       = fs.Int("sets", 0, "override the number of multiple-RPQ sets")
		rpqs       = fs.Int("rpqs", 0, "override #RPQs per set for the degree sweep")
		seed       = fs.Int64("seed", 0, "override the dataset/workload seed")
		verify     = fs.Bool("verify", false, "cross-check result counts across strategies")
		workers    = fs.Int("workers", 0, "override the largest worker fan-out of the parallel sweep (fig16)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list || *experiment == "list" {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *experiment == "" {
		return fmt.Errorf("-experiment is required (or -list)")
	}

	cfg := bench.DefaultConfig()
	if *paper {
		cfg = bench.PaperConfig()
	}
	if *scale > 0 {
		cfg.ScaleExp = *scale
	}
	if *maxN >= 0 {
		cfg.MaxN = *maxN
	}
	if *sets > 0 {
		cfg.NumSets = *sets
	}
	if *rpqs > 0 {
		cfg.NumRPQs = *rpqs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	cfg.Verify = cfg.Verify || *verify

	if *experiment == "all" {
		return bench.RunAll(os.Stdout, cfg)
	}
	e, ok := bench.Lookup(*experiment)
	if !ok {
		ids := make([]string, 0, len(bench.Experiments()))
		for _, reg := range bench.Experiments() {
			ids = append(ids, reg.ID)
		}
		return fmt.Errorf("unknown experiment %q; valid: %s (or 'all')", *experiment, strings.Join(ids, ", "))
	}
	fmt.Printf("=== %s — %s ===\n", e.ID, e.Title)
	return e.Run(os.Stdout, cfg)
}
