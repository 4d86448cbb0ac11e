// Command rpq evaluates regular path queries over an edge-labeled graph.
//
// Usage:
//
//	rpq -graph g.txt [-strategy rtc|full|no] [-explain] [-stats]
//	    [-limit N] query...
//
// The graph file uses the text edge-list format ("src label dst" lines,
// optional "%vertices N" directive). Each query is an RPQ such as
// "d.(b.c)+.c"; '·' and '/' also work as concatenation operators. With
// several queries, closure structures are shared between them exactly as
// the engine shares them across a multiple-RPQ set.
//
// -explain prints each query's plan — the paper's pipeline: split at the
// rightmost closure, join forward — with estimated vs actual
// cardinalities (the query still runs).
package main

import (
	"flag"
	"fmt"
	"os"

	"rtcshare/internal/cli"
	"rtcshare/internal/core"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
)

func main() {
	cli.Exit("rpq", run(os.Args[1:]))
}

func run(args []string) error {
	fs := flag.NewFlagSet("rpq", flag.ContinueOnError)
	var (
		graphPath = fs.String("graph", "", "path to the graph file (required)")
		strategy  = fs.String("strategy", "rtc", "evaluation strategy: rtc, full or no")
		explain   = fs.Bool("explain", false, "print each query's plan with estimated vs actual cardinalities")
		stats     = fs.Bool("stats", false, "print the timing split and sharing statistics")
		limit     = fs.Int("limit", 20, "print at most this many result pairs per query (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no queries given")
	}
	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}

	f, err := os.Open(*graphPath)
	if err != nil {
		return err
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("graph: %s\n", g.Stats())

	engine := core.New(g, core.Options{Strategy: strat})
	for _, q := range fs.Args() {
		if *explain {
			p, err := engine.ExplainAnalyzeQuery(q)
			if err != nil {
				return err
			}
			fmt.Print(p.String())
			continue
		}
		res, err := engine.EvaluateQuery(q)
		if err != nil {
			return err
		}
		printResult(q, res, *limit)
	}
	if *stats {
		st := engine.Stats()
		fmt.Printf("stats: total=%v shared_data=%v pre_join=%v remainder=%v cache_hits=%d cache_misses=%d\n",
			st.Total(), st.SharedData, st.PreJoin, st.Remainder, st.CacheHits, st.CacheMisses)
		for _, s := range engine.SharedSummaries() {
			fmt.Printf("shared: R=%s pairs=%d reduced_vertices=%d |VR|=%d avg_scc=%.2f\n",
				s.R, s.SharedPairs, s.ReducedVertices, s.EdgeReducedVertices, s.AvgSCCSize)
		}
	}
	return nil
}

func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "rtc":
		return core.RTCSharing, nil
	case "full":
		return core.FullSharing, nil
	case "no":
		return core.NoSharing, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want rtc, full or no)", s)
}

func printResult(q string, res *pairs.Set, limit int) {
	fmt.Printf("query %s: %d pairs\n", q, res.Len())
	sorted := res.Sorted()
	if limit > 0 && len(sorted) > limit {
		sorted = sorted[:limit]
	}
	for _, p := range sorted {
		fmt.Printf("  (%d, %d)\n", p.Src, p.Dst)
	}
	if limit > 0 && res.Len() > limit {
		fmt.Printf("  … %d more\n", res.Len()-limit)
	}
}
