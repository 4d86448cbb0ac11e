// Quickstart: the paper's running example, end to end.
//
// Builds the Fig. 1 graph, evaluates the query d·(b·c)+·c from Example 1,
// prints the sizes of the reduced transitive closure the paper's
// Examples 3–6 derive for the shared sub-query b·c, and then
// runs the same graph as a service: an in-process rpqd server whose
// concurrent clients share one evaluation, the serving story of
// DESIGN.md §10.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"

	"rtcshare"
)

func main() {
	// The edge-labeled directed multigraph of Fig. 1 (vertices v0..v9,
	// labels a..f).
	b := rtcshare.NewGraphBuilder(10)
	edges := []struct {
		src   rtcshare.VID
		label string
		dst   rtcshare.VID
	}{
		{7, "d", 4}, {4, "b", 1}, {1, "c", 2}, {2, "c", 5}, {2, "b", 5},
		{2, "b", 3}, {3, "b", 2}, {5, "b", 6}, {5, "c", 6}, {5, "c", 4},
		{6, "c", 3}, {0, "a", 1}, {7, "a", 8}, {8, "e", 9}, {9, "f", 8},
	}
	for _, e := range edges {
		b.MustAddEdge(e.src, e.label, e.dst)
	}
	g := b.Build()
	fmt.Printf("graph: %s\n\n", g.Stats())

	engine := rtcshare.NewEngine(g, rtcshare.Options{})

	// Example 1: (d·(b·c)+·c)_G = {(v7,v5), (v7,v3)}.
	query := "d·(b·c)+·c"
	res, err := engine.EvaluateQuery(query)
	if err != nil {
		panic(err)
	}
	// The result is a sealed relation: pairs grouped by start vertex,
	// in (src, dst) order.
	fmt.Printf("query %s:\n", query)
	res.Each(func(src, dst rtcshare.VID) bool {
		fmt.Printf("  (v%d, v%d)\n", src, dst)
		return true
	})

	// The RTC the engine built for the shared sub-query R = b·c
	// (Examples 3–6): the SCCs of the graph whose edges are R's paths,
	// read off the product of G with R's automaton.
	fmt.Println("\nshared structures (Section III):")
	for _, s := range engine.SharedSummaries() {
		fmt.Printf("  R = %s\n", s.R)
		fmt.Printf("    vertices on an R path:      |V_R|     = %d\n", s.EdgeReducedVertices)
		fmt.Printf("    their SCCs:                 |V̄_R̄|     = %d (avg %.2f vertices each)\n",
			s.ReducedVertices, s.AvgSCCSize)
		fmt.Printf("    reduced transitive closure: |TC(Ḡ_R)| = %d pairs\n", s.SharedPairs)
	}

	// A second query sharing the same Kleene sub-query: the RTC is
	// reused, not recomputed.
	query2 := "a·(b·c)+"
	if _, err := engine.EvaluateQuery(query2); err != nil {
		panic(err)
	}
	st := engine.Stats()
	fmt.Printf("\nafter also evaluating %s: RTC cache hits=%d misses=%d\n",
		query2, st.CacheHits, st.CacheMisses)
	fmt.Printf("timing: shared_data=%v  pre_join=%v  remainder=%v\n",
		st.SharedData, st.PreJoin, st.Remainder)

	serveIt(g)
}

// serveIt runs the Fig. 1 graph as a service: rpqd's handler on an
// ephemeral port, four clients asking the Example 1 query at once, and
// the cache counters that show the four shared one evaluation.
func serveIt(g *rtcshare.Graph) {
	fmt.Println("\nrunning it as a service (rpqd in-process):")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	base := "http://" + l.Addr().String()
	served := rtcshare.NewEngine(g, rtcshare.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// The same server `rpqd -demo` runs, with its default options.
		done <- rtcshare.ServeListener(ctx, l, served, rtcshare.ServerOptions{})
	}()

	// Four "users" ask the Example 1 query at the same moment. Each
	// request that finds no memoised result evaluates it, but the
	// engine's cache runs every shared computation — the RTC of
	// R = b·c, each sub-result, the result itself — once, and hands it
	// to every request waiting on it.
	const query = "d·(b·c)+·c"
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			body, _ := json.Marshal(map[string]any{"query": query})
			resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				panic(err)
			}
			defer resp.Body.Close()
			var qr struct {
				Epoch uint64     `json:"epoch"`
				Path  string     `json:"path"`
				Pairs [][2]int32 `json:"pairs"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
				panic(err)
			}
			fmt.Printf("  client %d: epoch=%d path=%-9s pairs=%v\n", i, qr.Epoch, qr.Path, qr.Pairs)
		}(i)
	}
	close(start)
	wg.Wait()

	// What the four requests cost, against one evaluation on its own.
	solo := rtcshare.NewEngine(g, rtcshare.Options{})
	if _, err := solo.EvaluateQuery(query); err != nil {
		panic(err)
	}
	four, one := served.Cache().Counters(), solo.Cache().Counters()
	fmt.Printf("  4 requests computed %d closure structure(s) and %d sub-result(s); one evaluation alone computes %d and %d\n",
		four.Misses, four.RelMisses, one.Misses, one.RelMisses)

	cancel()
	if err := <-done; err != nil {
		panic(err)
	}
	fmt.Println("  graceful shutdown: done")
}
