package rtcshare_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rtcshare"
)

// fig1 builds the paper's running example graph through the public API.
func fig1(t testing.TB) *rtcshare.Graph {
	t.Helper()
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
	return b.Build()
}

func TestPublicQuickstart(t *testing.T) {
	g := fig1(t)
	res, err := rtcshare.Evaluate(g, "d·(b·c)+·c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || !res.Contains(7, 5) || !res.Contains(7, 3) {
		t.Fatalf("got %v, want {(7,5),(7,3)}", res.Sorted())
	}
	// The package doc's quick start pages the result in (src, dst) order.
	if page := res.Page(0, 10); len(page) != 2 || page[0] != (rtcshare.Pair{Src: 7, Dst: 3}) || page[1] != (rtcshare.Pair{Src: 7, Dst: 5}) {
		t.Fatalf("Page(0, 10) = %v, want [(7,3) (7,5)]", page)
	}
}

func TestPublicStrategies(t *testing.T) {
	g := fig1(t)
	for _, s := range []rtcshare.Strategy{rtcshare.RTCSharing, rtcshare.FullSharing, rtcshare.NoSharing} {
		e := rtcshare.NewEngine(g, rtcshare.Options{Strategy: s})
		res, err := e.EvaluateQuery("d.(b.c)+.c")
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Len() != 2 {
			t.Errorf("%v: %d pairs, want 2", s, res.Len())
		}
	}
}

func TestPublicEngineStats(t *testing.T) {
	g := fig1(t)
	e := rtcshare.NewEngine(g, rtcshare.Options{})
	queries := []string{"a.(b.c)+.c", "d.(b.c)+.c", "(b.c)*.c"}
	for _, q := range queries {
		if _, err := e.EvaluateQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Queries != len(queries) {
		t.Errorf("Queries = %d, want %d", st.Queries, len(queries))
	}
	if st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1 (b·c shared)", st.CacheHits, st.CacheMisses)
	}
	sums := e.SharedSummaries()
	if len(sums) != 1 || sums[0].R != "b.c" {
		t.Errorf("summaries = %+v", sums)
	}
}

func TestPublicGraphIO(t *testing.T) {
	text := "# Fig. 1's d·(b·c)+·c paths\n%vertices 10\n" +
		"7 d 4\n4 b 1\n1 c 2\n2 c 5\n2 b 5\n2 b 3\n3 b 2\n5 b 6\n5 c 6\n5 c 4\n6 c 3\n"
	g, err := rtcshare.ReadGraph(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 || g.NumEdges() != 11 {
		t.Fatalf("read %d vertices, %d edges; want 10, 11", g.NumVertices(), g.NumEdges())
	}
	res, err := rtcshare.Evaluate(g, "d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || !res.Contains(7, 5) || !res.Contains(7, 3) {
		t.Fatalf("read graph gives %v, want {(7,5),(7,3)}", res.Sorted())
	}
	if _, err := rtcshare.ReadGraph(strings.NewReader("0 a\n")); err == nil {
		t.Error("a two-field line was accepted")
	}
}

func TestPublicParseQuery(t *testing.T) {
	e, err := rtcshare.ParseQuery("a.(b|c)+")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "a.(b|c)+" {
		t.Errorf("String = %q", e.String())
	}
	if _, err := rtcshare.ParseQuery("(("); err == nil {
		t.Error("want parse error")
	}
}

func TestPublicGenerateRMAT(t *testing.T) {
	g, err := rtcshare.GenerateRMAT(rtcshare.RMATConfig{Vertices: 64, Edges: 256, Labels: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 256 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	eng := rtcshare.NewEngine(g, rtcshare.Options{})
	if _, err := eng.EvaluateQuery("l0.l1+.l2"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicExplain(t *testing.T) {
	g := fig1(t)
	e := rtcshare.NewEngine(g, rtcshare.Options{})
	q, err := rtcshare.ParseQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clauses) != 1 || plan.Clauses[0].R != "b.c" {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.String() == "" {
		t.Error("empty plan rendering")
	}

	want, err := rtcshare.Evaluate(g, "d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := e.ExplainAnalyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if !analyzed.Analyzed || analyzed.ActualResultPairs != want.Len() {
		t.Errorf("analyzed plan %+v, want %d actual pairs", analyzed, want.Len())
	}
	if analyzed.Clauses[0].Kind != "shared" {
		t.Errorf("closure clause planned as %q, want shared", analyzed.Clauses[0].Kind)
	}
}

func TestPublicInverseLabels(t *testing.T) {
	g := fig1(t)
	res, err := rtcshare.Evaluate(g, "^d")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains(4, 7) {
		t.Fatalf("(^d)_G = %v, want {(4,7)}", res.Sorted())
	}
}

// TestPublicConcurrentQueriesShareCache: eight goroutines query one
// engine at once. Every goroutine gets the serial answers, and the
// engine's cache computes each distinct closure structure exactly once.
func TestPublicConcurrentQueriesShareCache(t *testing.T) {
	g := fig1(t)
	// Three distinct closure sub-queries R: b.c, b and c|b.
	queries := []string{"d.(b.c)+.c", "a.(b.c)+.b", "d.b+.c", "a.(c|b)+", "(b.c)*.c"}
	const distinctR = 3
	want := make([]*rtcshare.Relation, len(queries))
	for i, q := range queries {
		res, err := rtcshare.Evaluate(g, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	e := rtcshare.NewEngine(g, rtcshare.Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(queries))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range queries {
				i := (j + w) % len(queries)
				res, err := e.EvaluateQuery(queries[i])
				if err != nil {
					errs <- err
					return
				}
				if !res.Equal(want[i]) {
					errs <- fmt.Errorf("goroutine %d, %s: %v, want %v", w, queries[i], res.Sorted(), want[i].Sorted())
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if c := e.Cache().Counters(); c.Misses != distinctR {
		t.Errorf("cache counters = %+v, want %d misses (each R computed once)", c, distinctR)
	}
}

func TestPublicApplyUpdates(t *testing.T) {
	g := fig1(t)
	engine := rtcshare.NewEngine(g, rtcshare.Options{})
	before, err := engine.EvaluateQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}

	res, err := engine.ApplyUpdates([]rtcshare.GraphUpdate{
		rtcshare.InsertEdge(0, "d", 4),
		rtcshare.DeleteEdge(7, "d", 4),
		rtcshare.InsertEdge(3, "g", 7), // brand-new label
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 1 || res.Epoch == 0 {
		t.Fatalf("update result = %+v", res)
	}
	if engine.Epoch() != res.Epoch {
		t.Fatalf("engine epoch %d, result epoch %d", engine.Epoch(), res.Epoch)
	}

	after, err := engine.EvaluateQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	// The d-anchored paths moved from source 7 to source 0.
	if after.Len() != before.Len() {
		t.Fatalf("result size changed: %d → %d", before.Len(), after.Len())
	}
	if !after.Contains(0, 5) || after.Contains(7, 5) {
		t.Fatalf("updated results wrong: %v", after.Sorted())
	}
	if res, err := engine.EvaluateQuery("b.g"); err != nil {
		t.Fatal(err)
	} else if res.Len() != 1 {
		t.Fatalf("new-label query = %v, want one pair", res.Sorted())
	}
}

// TestPublicServe boots the HTTP service through the public surface
// (NewEngine + ServeListener), issues a query and an update,
// and shuts down cleanly.
func TestPublicServe(t *testing.T) {
	g := fig1(t)
	engine := rtcshare.NewEngine(g, rtcshare.Options{})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- rtcshare.ServeListener(ctx, l, engine, rtcshare.ServerOptions{})
	}()

	resp, err := http.Post(base+"/query", "application/json",
		strings.NewReader(`{"query":"d·(b·c)+·c"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr struct {
		Total int      `json:"total"`
		Epoch uint64   `json:"epoch"`
		Pairs [][2]int `json:"pairs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.Total != 2 {
		t.Fatalf("query: status %d, total %d (want 2)", resp.StatusCode, qr.Total)
	}

	resp, err = http.Post(base+"/update", "application/json",
		strings.NewReader(`{"updates":[{"op":"insert","src":6,"label":"b","dst":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var ur struct {
		Epoch    uint64 `json:"epoch"`
		Inserted int    `json:"inserted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ur.Inserted != 1 || ur.Epoch != qr.Epoch+1 {
		t.Fatalf("update: %+v (query epoch %d)", ur, qr.Epoch)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("ServeListener: %v", err)
	}
}
