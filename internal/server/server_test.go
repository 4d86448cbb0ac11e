package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/workload"
)

// testServer starts an httptest server over g and returns it with the
// underlying Server.
func testServer(t *testing.T, g *graph.Graph, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(core.New(g, core.Options{}), opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postQuery issues one POST /query and decodes the response.
func postQuery(t *testing.T, base string, req QueryRequest) (QueryResponse, int) {
	t.Helper()
	out, status, err := tryQuery(base, req)
	if err != nil {
		t.Fatal(err)
	}
	return out, status
}

// tryQuery is postQuery for goroutines other than the test's own: it
// returns the transport or decoding error instead of failing the test.
func tryQuery(base string, req QueryRequest) (QueryResponse, int, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return QueryResponse{}, 0, fmt.Errorf("POST /query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return QueryResponse{}, resp.StatusCode, nil
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return QueryResponse{}, resp.StatusCode, fmt.Errorf("decoding /query response: %w", err)
	}
	return out, resp.StatusCode, nil
}

// pairsOf converts a response page to a pair list.
func pairsOf(resp QueryResponse) []pairs.Pair {
	out := make([]pairs.Pair, len(resp.Pairs))
	for i, p := range resp.Pairs {
		out[i] = pairs.Pair{Src: p[0], Dst: p[1]}
	}
	return out
}

// TestServerQueryMatchesSerial is the integration identity gate: many
// concurrent HTTP clients issuing a sharing-heavy workload must receive
// exactly what serial Engine.Evaluate computes, pair for pair.
func TestServerQueryMatchesSerial(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 256, Edges: 1024, Labels: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(4, 17)
	wcfg.MaxRPQs = 6
	sets, err := workload.GenerateOver([]string{"l0", "l1", "l2", "l3"}, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var queries []string
	for _, s := range sets {
		for _, q := range s.Queries {
			queries = append(queries, q.String())
		}
	}

	serial := core.New(g, core.Options{})
	want := make(map[string]*pairs.Relation, len(queries))
	for _, q := range queries {
		rel, err := serial.EvaluateRel(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		want[q] = rel
	}

	_, ts := testServer(t, g, Options{})

	const clients = 16
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < len(queries); i++ {
				q := queries[(i+c)%len(queries)]
				resp, status := postQuery(t, ts.URL, QueryRequest{Query: q})
				if status != http.StatusOK {
					errc <- fmt.Errorf("client %d: %s: status %d", c, q, status)
					return
				}
				wantRel := want[q]
				if resp.Total != wantRel.Len() || len(resp.Pairs) != wantRel.Len() {
					errc <- fmt.Errorf("client %d: %s: got %d pairs, want %d", c, q, len(resp.Pairs), wantRel.Len())
					return
				}
				for _, p := range pairsOf(resp) {
					if !wantRel.Contains(p.Src, p.Dst) {
						errc <- fmt.Errorf("client %d: %s: unexpected pair (%d,%d)", c, q, p.Src, p.Dst)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestServerPaging walks a multi-pair result page by page and must
// reassemble exactly the full (src, dst)-ordered result.
func TestServerPaging(t *testing.T) {
	g := fixtures.Figure1()
	serial := core.New(g, core.Options{})
	const q = "(b·c)+"
	full, err := serial.EvaluateRel(rpq.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4 {
		t.Fatalf("fixture query too small to page: %d pairs", full.Len())
	}

	_, ts := testServer(t, g, Options{})
	var got []pairs.Pair
	for offset := 0; ; {
		resp, status := postQuery(t, ts.URL, QueryRequest{Query: q, Limit: 2, Offset: offset})
		if status != http.StatusOK {
			t.Fatalf("page offset=%d: status %d", offset, status)
		}
		if resp.Total != full.Len() {
			t.Fatalf("page offset=%d: total %d, want %d", offset, resp.Total, full.Len())
		}
		if resp.Count == 0 {
			break
		}
		got = append(got, pairsOf(resp)...)
		offset += resp.Count
	}
	wantPairs := full.Sorted()
	if len(got) != len(wantPairs) {
		t.Fatalf("reassembled %d pairs, want %d", len(got), len(wantPairs))
	}
	for i := range got {
		if got[i] != wantPairs[i] {
			t.Fatalf("pair %d: got %v, want %v", i, got[i], wantPairs[i])
		}
	}
}

// TestServerUpdateEndpoint drives POST /update and checks the new path
// is visible to subsequent queries, with an advanced epoch.
func TestServerUpdateEndpoint(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{})

	before, status := postQuery(t, ts.URL, QueryRequest{Query: "e+"})
	if status != http.StatusOK {
		t.Fatalf("query before update: status %d", status)
	}

	body, _ := json.Marshal(UpdateRequest{Updates: []EdgeUpdate{
		{Op: "insert", Src: 9, Label: "e", Dst: 0},
	}})
	resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ur UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ur.Inserted != 1 {
		t.Fatalf("update: status %d, inserted %d", resp.StatusCode, ur.Inserted)
	}
	// An insert drops the e+ structure like a delete would; nothing is
	// patched, though the pinned JSON shape keeps the field.
	if ur.Patched != 0 || ur.Dropped != 1 {
		t.Fatalf("insert-only update: patched %d dropped %d, want 0/1", ur.Patched, ur.Dropped)
	}
	if ur.Epoch <= before.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", before.Epoch, ur.Epoch)
	}

	after, status := postQuery(t, ts.URL, QueryRequest{Query: "e+"})
	if status != http.StatusOK {
		t.Fatalf("query after update: status %d", status)
	}
	if after.Epoch != ur.Epoch {
		t.Fatalf("post-update query epoch %d, want %d", after.Epoch, ur.Epoch)
	}
	hasNew := false
	for _, p := range pairsOf(after) {
		if p == (pairs.Pair{Src: 8, Dst: 0}) {
			hasNew = true
		}
	}
	if !hasNew {
		t.Fatalf("inserted edge not reflected in e+: %v", after.Pairs)
	}

	// Unknown op and out-of-range endpoint are rejected.
	for _, bad := range []EdgeUpdate{
		{Op: "upsert", Src: 0, Label: "e", Dst: 1},
		{Op: "insert", Src: 0, Label: "e", Dst: 10_000},
	} {
		body, _ := json.Marshal(UpdateRequest{Updates: []EdgeUpdate{bad}})
		resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad update %+v: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServerEndpoints smoke-tests /healthz, /metrics, /explain, the GET
// /query form, and the error statuses.
func TestServerEndpoints(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{})

	var health HealthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz: %+v", health)
	}

	if resp, status := postQuery(t, ts.URL, QueryRequest{Query: "d·(b·c)+·c"}); status != http.StatusOK || resp.Total != 2 {
		t.Fatalf("paper query: status %d, total %d (want 2)", status, resp.Total)
	}

	// GET form with paging parameters.
	r, err := http.Get(ts.URL + "/query?q=" + "(b·c)%2B" + "&limit=1&offset=1")
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(r.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK || qr.Count != 1 || qr.Offset != 1 {
		t.Fatalf("GET /query: status %d, %+v", r.StatusCode, qr)
	}

	var ex ExplainResponse
	getJSON(t, ts.URL+"/explain?q=d·(b·c)%2B·c", &ex)
	if len(ex.Clauses) == 0 || ex.Strategy != "RTC" {
		t.Fatalf("explain: %+v", ex)
	}

	var m Metrics
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Graph.Vertices != 10 || m.Admission.Submitted == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.Cache.CrossEpochHits != 0 {
		t.Fatalf("cross-epoch hits on a static graph: %d", m.Cache.CrossEpochHits)
	}

	// Error statuses: missing query, bad syntax, bad paging, bad method.
	if _, status := postQuery(t, ts.URL, QueryRequest{}); status != http.StatusBadRequest {
		t.Fatalf("missing query: status %d", status)
	}
	if _, status := postQuery(t, ts.URL, QueryRequest{Query: "(((("}); status != http.StatusBadRequest {
		t.Fatalf("syntax error: status %d", status)
	}
	if _, status := postQuery(t, ts.URL, QueryRequest{Query: "a", Offset: -1}); status != http.StatusBadRequest {
		t.Fatalf("negative offset: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /update: status %d, want 405", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestServerAccessorsAndParamErrors covers the small surface the other
// tests skip: the accessors, GET-parameter validation, and the explain
// error paths.
func TestServerAccessorsAndParamErrors(t *testing.T) {
	g := fixtures.Figure1()
	srv, ts := testServer(t, g, Options{MaxQueued: 3})

	if srv.Engine() == nil || srv.Engine().Graph().NumVertices() != 10 {
		t.Fatal("Engine accessor broken")
	}
	if got := srv.Options(); got.MaxQueued != 3 || got.MaxInFlight != runtime.GOMAXPROCS(0) {
		t.Fatalf("Options accessor lost the effective options: %+v", got)
	}

	for _, url := range []string{
		ts.URL + "/query?q=a&limit=banana",
		ts.URL + "/query?q=a&offset=banana",
		// Vertex parameters are 32-bit and non-negative: 2^32 must not
		// wrap to vertex 0 and answer for the wrong pair.
		ts.URL + "/query?q=a&witness=1&src=4294967296&dst=1",
		ts.URL + "/query?q=a&witness=1&src=0&dst=2147483648",
		ts.URL + "/query?q=a&witness=1&src=-1&dst=1",
		ts.URL + "/query?q=a&witness=1&src=0&dst=-7",
		ts.URL + "/explain",
		ts.URL + "/explain?q=((((",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", url, resp.StatusCode)
		}
	}

	// Malformed JSON bodies.
	for _, path := range []string{"/query", "/update"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s malformed: status %d, want 400", path, resp.StatusCode)
		}
	}

	// An effective no-op update batch keeps the epoch.
	body, _ := json.Marshal(UpdateRequest{Updates: []EdgeUpdate{
		{Op: "delete", Src: 0, Label: "a", Dst: 3}, // absent edge
	}})
	resp, err := http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ur UpdateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ur.EffectiveNoOp || ur.Epoch != 0 {
		t.Fatalf("no-op update: %+v", ur)
	}
}

// TestServerHugeLimit: a pathological limit must page safely, not
// panic the handler.
func TestServerHugeLimit(t *testing.T) {
	g := fixtures.Figure1()
	_, ts := testServer(t, g, Options{})
	resp, status := postQuery(t, ts.URL, QueryRequest{Query: "(b·c)+", Limit: int(^uint(0) >> 1), Offset: 1})
	if status != http.StatusOK {
		t.Fatalf("huge limit: status %d", status)
	}
	if resp.Count != resp.Total-1 {
		t.Fatalf("huge limit: count %d, total %d", resp.Count, resp.Total)
	}
}

// TestServerResultTooLarge: a result past core.MaxResultPairs is a 413
// with a structured body from /query and /explain?analyze=1, never a
// page over a wrapped count; one of exactly core.MaxResultPairs pairs
// still pages, its count and last cursor position right.
func TestServerResultTooLarge(t *testing.T) {
	for _, path := range []string{"/query?q=a.b%2B.c&limit=1", "/explain?analyze=1&q=a.b%2B.c"} {
		_, ts := testServer(t, fixtures.RingFans(1), Options{})
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body ResultTooLargeResponse
		derr := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil {
			t.Fatalf("%s: status %d (decode %v), want 413", path, resp.StatusCode, derr)
		}
		if body.MaxPairs != core.MaxResultPairs || !strings.Contains(body.Error, "too large") {
			t.Fatalf("%s: body %+v", path, body)
		}
	}

	_, ts := testServer(t, fixtures.RingFans(0), Options{})
	resp, status := postQuery(t, ts.URL, QueryRequest{Query: "a.b+.c", Offset: core.MaxResultPairs - 1, Limit: 5})
	if status != http.StatusOK || resp.Total != core.MaxResultPairs || resp.Count != 1 || len(resp.Pairs) != 1 || resp.NextCursor != "" {
		t.Fatalf("2^31-1 pairs: status %d, total %d, count %d, %d pairs, cursor %q", status, resp.Total, resp.Count, len(resp.Pairs), resp.NextCursor)
	}
}
