// Multi-query sharing — the paper's core scenario (Section V): a batch
// of RPQs that all contain the same Kleene closure as a common sub-query.
//
// The program draws an RMAT graph at the paper's RMAT_3 shape
// (degree per label = 2), generates a 10-query batch-unit workload
// Pre·R+·Post sharing one R, and runs it under all three strategies,
// printing the response-time split and the shared-data sizes — a
// one-dataset miniature of the paper's Figs. 10–12.
//
// Run with: go run ./examples/multiquery
package main

import (
	"fmt"
	"time"

	"rtcshare"
)

func main() {
	// RMAT_3 at 2^10 vertices: |E| = 2^13, |Σ| = 4, degree 2.
	g, err := rtcshare.GenerateRMAT(rtcshare.RMATConfig{
		Vertices: 1 << 10,
		Edges:    1 << 13,
		Labels:   4,
		Seed:     2022,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("graph: %s\n\n", g.Stats())

	// Ten batch units sharing R = l1.l2: Pre·(l1.l2)+·Post.
	pres := []string{"l0", "l1", "l2", "l3", "l0", "l1", "l2", "l3", "l0", "l1"}
	posts := []string{"l3", "l2", "l1", "l0", "l1", "l0", "l3", "l2", "l2", "l3"}
	var queries []string
	for i := range pres {
		queries = append(queries, pres[i]+".(l1.l2)+."+posts[i])
	}

	fmt.Printf("%-8s %12s %14s %14s %14s %12s\n",
		"method", "total", "shared_data", "pre⋈R+", "remainder", "shared pairs")
	for _, strategy := range []rtcshare.Strategy{rtcshare.NoSharing, rtcshare.FullSharing, rtcshare.RTCSharing} {
		engine := rtcshare.NewEngine(g, rtcshare.Options{Strategy: strategy})
		var resultPairs int
		start := time.Now()
		for _, q := range queries {
			res, err := engine.EvaluateQuery(q)
			if err != nil {
				panic(err)
			}
			resultPairs += res.Len()
		}
		wall := time.Since(start)
		st := engine.Stats()
		fmt.Printf("%-8s %12s %14s %14s %14s %12d   (%d result pairs)\n",
			strategy, wall.Round(time.Microsecond),
			st.SharedData.Round(time.Microsecond),
			st.PreJoin.Round(time.Microsecond),
			st.Remainder.Round(time.Microsecond),
			engine.SharedPairsTotal(), resultPairs)
	}

	// What the sharing buys: the reduced structure vs the full closure.
	fmt.Println("\nshared structure detail (RTCSharing):")
	engine := rtcshare.NewEngine(g, rtcshare.Options{})
	for _, q := range queries {
		if _, err := engine.EvaluateQuery(q); err != nil {
			panic(err)
		}
	}
	for _, s := range engine.SharedSummaries() {
		fmt.Printf("  R=%-8s |V_R|=%4d  |V̄_R̄|=%4d  |TC(Ḡ_R)|=%6d pairs  avg SCC=%.2f\n",
			s.R, s.EdgeReducedVertices, s.ReducedVertices, s.SharedPairs, s.AvgSCCSize)
	}
	st := engine.Stats()
	fmt.Printf("  RTC cache: %d misses, %d hits across %d queries\n",
		st.CacheMisses, st.CacheHits, st.Queries)
}
