package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// blockingEngine returns an engine over g whose evaluations of query
// hold until release is closed, signalling entered as each one starts;
// evaluations(q) counts the evaluations of q that started.
func blockingEngine(g *graph.Graph, query string) (eng *core.Engine, entered <-chan struct{}, release chan struct{}, evaluations func(string) int) {
	var mu sync.Mutex
	counts := map[string]int{}
	in := make(chan struct{}, 1)
	release = make(chan struct{})
	eng = core.New(g, core.Options{})
	eng.SetEvalHook(func(q string) {
		mu.Lock()
		counts[q]++
		mu.Unlock()
		if q == query {
			select {
			case in <- struct{}{}:
			default: // a signal is already pending; the test reads one
			}
			<-release
		}
	})
	return eng, in, release, func(q string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[q]
	}
}

// submitAsync runs one admission in the background.
func submitAsync(a *admission, ctx context.Context, q string) <-chan result {
	out := make(chan result, 1)
	go func() { out <- a.submit(ctx, q, rpq.MustParse(q)) }()
	return out
}

// TestCoalescerDedup: N concurrent identical cold queries run one
// evaluation. Eight clients POST the same query to a fresh server; every
// page is byte-identical to the serial engine's, and the server engine's
// cache misses equal those of one solo cold evaluation — the shared
// cache's singleflight coalesced the eight into one.
func TestCoalescerDedup(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 256, Edges: 1024, Labels: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const q = "l0.(l1.l2)+.l3"
	solo := core.New(g, core.Options{})
	want, err := solo.EvaluateRel(rpq.MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("fixture query has an empty result")
	}
	wantPage := make([][2]graph.VID, 0, want.Len())
	for _, p := range want.Sorted() {
		wantPage = append(wantPage, [2]graph.VID{p.Src, p.Dst})
	}
	wantBytes, _ := json.Marshal(wantPage)

	srv, ts := testServer(t, g, Options{})
	const clients = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	pages := make([][]byte, clients)
	statuses := make([]int, clients)
	errs := make([]error, clients)
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			var resp QueryResponse
			resp, statuses[c], errs[c] = tryQuery(ts.URL, QueryRequest{Query: q})
			pages[c], _ = json.Marshal(resp.Pairs)
		}(c)
	}
	close(start)
	wg.Wait()
	for c := range clients {
		if errs[c] != nil || statuses[c] != http.StatusOK {
			t.Fatalf("client %d: status %d, err %v", c, statuses[c], errs[c])
		}
		if !bytes.Equal(pages[c], wantBytes) {
			t.Fatalf("client %d page differs from the serial engine's:\n%s\nwant\n%s", c, pages[c], wantBytes)
		}
	}
	got, soloCounts := srv.Engine().Cache().Counters(), solo.Cache().Counters()
	if got.RelMisses != soloCounts.RelMisses || got.Misses != soloCounts.Misses {
		t.Fatalf("%d concurrent requests missed %d relations and %d structures; one solo evaluation misses %d and %d",
			clients, got.RelMisses, got.Misses, soloCounts.RelMisses, soloCounts.Misses)
	}
	if st := srv.adm.stats(); st.Submitted != clients || st.FastPathHits+st.Direct != clients {
		t.Fatalf("admission stats = %+v, want %d requests served", st, clients)
	}
}

// TestCoalescerAdmission: with one evaluation slot and one queue place
// both taken, the next cold query is shed with 503 and Retry-After,
// while a memo-warm query still answers 200 from the fast path — memo
// hits take no slot.
func TestCoalescerAdmission(t *testing.T) {
	eng, entered, release, _ := blockingEngine(fixtures.Figure1(), "a.b")
	srv := New(eng, Options{MaxInFlight: 1, MaxQueued: 1})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	if r, status := postQuery(t, ts.URL, QueryRequest{Query: "c"}); status != http.StatusOK || r.Path != "direct" {
		t.Fatalf("warming query: status %d path %q", status, r.Path)
	}
	held := submitAsync(srv.adm, context.Background(), "a.b")
	<-entered
	queued := submitAsync(srv.adm, context.Background(), "b.c")
	eventually(t, 5*time.Second, "second cold query queued", func() bool { return srv.adm.waiting.Load() == 1 })

	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(`{"query":"e.f"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != retryAfterSeconds {
		t.Fatalf("cold query beyond the queue: status %d Retry-After %q, want 503 and %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), retryAfterSeconds)
	}
	if r, status := postQuery(t, ts.URL, QueryRequest{Query: "c"}); status != http.StatusOK || r.Path != "fast_path" {
		t.Fatalf("memo-warm query while the slot is held: status %d path %q, want 200 fast_path", status, r.Path)
	}

	close(release)
	for name, ch := range map[string]<-chan result{"held": held, "queued": queued} {
		if r := <-ch; r.err != nil || r.path != pathDirect {
			t.Fatalf("%s query: path %v err %v", name, r.path, r.err)
		}
	}
	if st := srv.adm.stats(); st.Rejected != 1 || st.Direct != 3 || st.FastPathHits != 1 {
		t.Fatalf("stats = %+v, want 1 rejected, 3 direct, 1 fast-path hit", st)
	}
}

// TestOccupancyCountsLiveWaiters: the queue bound counts the waiters
// still listening. With the one slot held and the one queue place
// taken, a waiter whose client walks away gives its place back at once,
// so the next cold query queues instead of being shed.
func TestOccupancyCountsLiveWaiters(t *testing.T) {
	eng, entered, release, _ := blockingEngine(fixtures.Figure1(), "a.b")
	srv := New(eng, Options{MaxInFlight: 1, MaxQueued: 1})
	defer srv.Close()

	held := submitAsync(srv.adm, context.Background(), "a.b")
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	gone := submitAsync(srv.adm, ctx, "b.c")
	eventually(t, 5*time.Second, "waiter queued", func() bool { return srv.adm.waiting.Load() == 1 })
	cancel()
	if r := <-gone; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("walked-away waiter: err = %v, want context.Canceled", r.err)
	}
	if w := srv.adm.waiting.Load(); w != 0 {
		t.Fatalf("queue occupancy %d after the only waiter left, want 0", w)
	}

	next := submitAsync(srv.adm, context.Background(), "c.a")
	eventually(t, 5*time.Second, "next waiter queued", func() bool { return srv.adm.waiting.Load() == 1 })
	close(release)
	for name, ch := range map[string]<-chan result{"held": held, "next": next} {
		if r := <-ch; r.err != nil {
			t.Fatalf("%s query: %v", name, r.err)
		}
	}
	if st := srv.adm.stats(); st.Abandoned != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 1 abandoned and none rejected", st)
	}
}

// TestCoalescerRequestTimeout: a request whose context expires while it
// waits for a slot walks away promptly with the context error, is
// counted abandoned, and its query is never handed to the engine.
func TestCoalescerRequestTimeout(t *testing.T) {
	eng, entered, release, evaluations := blockingEngine(fixtures.Figure1(), "a.b")
	srv := New(eng, Options{MaxInFlight: 1})
	defer srv.Close()

	held := submitAsync(srv.adm, context.Background(), "a.b")
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	r := srv.adm.submit(ctx, "b.c", rpq.MustParse("b.c"))
	if !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("queued request: err = %v, want context.DeadlineExceeded", r.err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timed-out request blocked %v", waited)
	}
	if st := srv.adm.stats(); st.Abandoned != 1 {
		t.Fatalf("abandonment not counted: %+v", st)
	}

	close(release)
	if r := <-held; r.err != nil {
		t.Fatalf("held query: %v", r.err)
	}
	if n := evaluations("b.c"); n != 0 {
		t.Fatalf("the abandoned query was evaluated %d times", n)
	}
}

// TestCoalescerFastPath: a result memoised at the current epoch is
// served from the memo, without a slot or a second evaluation.
func TestCoalescerFastPath(t *testing.T) {
	srv := New(core.New(fixtures.Figure1(), core.Options{}), Options{})
	defer srv.Close()

	const q = "d.(b.c)+.c"
	first := srv.adm.submit(context.Background(), q, rpq.MustParse(q))
	if first.err != nil || first.path != pathDirect {
		t.Fatalf("cold query: path %v err %v", first.path, first.err)
	}
	second := srv.adm.submit(context.Background(), q, rpq.MustParse(q))
	if second.err != nil || second.path != pathFastPath {
		t.Fatalf("repeat query: path %v err %v", second.path, second.err)
	}
	if second.rel != first.rel {
		t.Fatal("fast path returned a different relation")
	}
	if st := srv.adm.stats(); st.FastPathHits != 1 || st.Direct != 1 {
		t.Fatalf("stats = %+v, want 1 fast-path hit and 1 direct evaluation", st)
	}
}

// TestCoalescerErrorIsolation: a query failing at evaluation time must
// not fail the valid queries evaluated beside it — each request gets
// its own outcome.
func TestCoalescerErrorIsolation(t *testing.T) {
	// MaxDNFClauses 1 makes any alternation-heavy query fail at
	// evaluation (parse-valid, DNF-bound error).
	srv := New(core.New(fixtures.Figure1(), core.Options{MaxDNFClauses: 1}), Options{})
	defer srv.Close()

	queries := []string{"a", "(a|b).(c|d)", "b.c"}
	outs := make([]<-chan result, len(queries))
	for i, q := range queries {
		outs[i] = submitAsync(srv.adm, context.Background(), q)
	}
	results := make([]result, len(queries))
	for i := range outs {
		results[i] = <-outs[i]
	}
	if results[1].err == nil {
		t.Fatal("DNF-bound query did not fail")
	}
	for _, i := range []int{0, 2} {
		if results[i].err != nil || results[i].rel == nil {
			t.Fatalf("valid query %q: rel %v err %v", queries[i], results[i].rel, results[i].err)
		}
	}
	if st := srv.adm.stats(); st.EvalErrors != 1 {
		t.Fatalf("expected one recorded eval error: %+v", st)
	}
}

// TestCoalescerClosedAllPaths: after Close, both serving paths — the
// memo hit and the cold evaluation — reject with ErrShuttingDown.
func TestCoalescerClosedAllPaths(t *testing.T) {
	engine := core.New(fixtures.Figure1(), core.Options{})
	srv := New(engine, Options{})
	const q = "d.(b.c)+.c"
	if r := srv.adm.submit(context.Background(), q, rpq.MustParse(q)); r.err != nil {
		t.Fatal(r.err)
	}
	if _, _, ok := engine.CachedResult(rpq.MustParse(q)); !ok {
		t.Fatal("memo did not warm")
	}
	srv.Close()
	for _, query := range []string{q, "a"} {
		if r := srv.adm.submit(context.Background(), query, rpq.MustParse(query)); !errors.Is(r.err, ErrShuttingDown) {
			t.Fatalf("%s served after close: %v", query, r.err)
		}
	}
	if st := srv.adm.stats(); st.Rejected != 2 {
		t.Fatalf("stats = %+v, want 2 rejected", st)
	}
}

// TestServerCloseFlushesPending: Close waits for every admitted query —
// here one held mid-evaluation — to answer before it returns, and later
// queries are rejected with 503.
func TestServerCloseFlushesPending(t *testing.T) {
	const q = "d.(b.c)+.c"
	eng, entered, release, _ := blockingEngine(fixtures.Figure1(), q)
	srv := New(eng, Options{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	type answer struct {
		resp   QueryResponse
		status int
		err    error
	}
	got := make(chan answer, 1)
	go func() {
		resp, status, err := tryQuery(ts.URL, QueryRequest{Query: q})
		got <- answer{resp, status, err}
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	eventually(t, 5*time.Second, "close begins", srv.adm.closed.Load)
	select {
	case <-closed:
		t.Fatal("Close returned while an admitted query was still evaluating")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	if a := <-got; a.err != nil || a.status != http.StatusOK || a.resp.Total != 2 {
		t.Fatalf("in-flight query: status %d, total %d, err %v", a.status, a.resp.Total, a.err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if _, status := postQuery(t, ts.URL, QueryRequest{Query: "a"}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-close query: status %d, want 503", status)
	}
}

// TestExplainAnalyzeAdmitted: GET /explain?analyze=1 executes its query,
// so it passes the cold-query gate. With the one slot held and the one
// queue place taken it is shed with 503 + Retry-After and never
// evaluated, while plain /explain, which executes nothing, still
// answers; once the slot frees it runs. A query that panics the
// evaluator under analysis answers 500 and, after repeated crashes, is
// quarantined with 422.
func TestExplainAnalyzeAdmitted(t *testing.T) {
	eng, entered, release, evaluations := blockingEngine(fixtures.Figure1(), "a.b")
	srv := New(eng, Options{MaxInFlight: 1, MaxQueued: 1})
	ts := httptest.NewServer(srv)
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer func() {
		free() // a failed assertion must not leave Close waiting on the held query
		ts.Close()
		srv.Close()
	}()
	explain := func(query string) (*http.Response, ExplainResponse) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/explain?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body ExplainResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		return resp, body
	}

	held := submitAsync(srv.adm, context.Background(), "a.b")
	<-entered
	queued := submitAsync(srv.adm, context.Background(), "b.c")
	eventually(t, 5*time.Second, "second cold query queued", func() bool { return srv.adm.waiting.Load() == 1 })

	if resp, _ := explain("q=e.f&analyze=1"); resp.StatusCode != http.StatusServiceUnavailable ||
		resp.Header.Get("Retry-After") != retryAfterSeconds {
		t.Fatalf("analyze beyond the queue: status %d Retry-After %q, want 503 and %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), retryAfterSeconds)
	}
	if n := evaluations("e.f"); n != 0 {
		t.Fatalf("the shed analyze request was evaluated %d times", n)
	}
	if resp, body := explain("q=e.f"); resp.StatusCode != http.StatusOK || body.Analyzed {
		t.Fatalf("plain explain while the slot is held: status %d analyzed %v, want 200 unanalyzed", resp.StatusCode, body.Analyzed)
	}

	free()
	for name, ch := range map[string]<-chan result{"held": held, "queued": queued} {
		if r := <-ch; r.err != nil {
			t.Fatalf("%s query: %v", name, r.err)
		}
	}
	if resp, body := explain("q=e.f&analyze=1"); resp.StatusCode != http.StatusOK || !body.Analyzed {
		t.Fatalf("analyze with a free slot: status %d analyzed %v, want 200 analyzed", resp.StatusCode, body.Analyzed)
	}
	if n := evaluations("e.f"); n != 1 {
		t.Fatalf("admitted analyze evaluated %d times, want 1", n)
	}

	poisoned := core.New(fixtures.Figure1(), core.Options{})
	poisoned.SetEvalHook(func(q string) {
		if q == "c.a" {
			panic("injected evaluator fault")
		}
	})
	psrv := New(poisoned, Options{})
	pts := httptest.NewServer(psrv)
	defer func() {
		pts.Close()
		psrv.Close()
	}()
	for i, want := range []int{http.StatusInternalServerError, http.StatusInternalServerError, http.StatusUnprocessableEntity} {
		resp, err := http.Get(pts.URL + "/explain?q=c.a&analyze=1")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("poisoned analyze %d: status %d, want %d", i, resp.StatusCode, want)
		}
	}
	if st := psrv.adm.stats(); st.Panics != 2 || st.QuarantineRejected != 1 {
		t.Fatalf("stats = %+v, want 2 panics and 1 quarantine rejection", st)
	}
}
