package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/store"
)

// This file tests the fault-tolerance surface end to end: cancellation
// through admission, panic isolation and quarantine over HTTP, the
// degradation ladder under injected store faults, and the chaos
// property gate — the serving stack under concurrent queries, updates
// and a fault scripter must stay correct, degrade honestly, and recover
// to a fingerprint-identical state.

// postUpdate issues one POST /update and returns the decoded response
// (zero on a non-200) plus the raw *http.Response for header checks.
func postUpdate(t *testing.T, base string, req UpdateRequest) (UpdateResponse, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /update: %v", err)
	}
	defer resp.Body.Close()
	var out UpdateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding /update response: %v", err)
		}
	}
	return out, resp
}

// getHealthz fetches /healthz and decodes it.
func getHealthz(t *testing.T, base string) (HealthResponse, int) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var out HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /healthz: %v", err)
	}
	return out, resp.StatusCode
}

// eventually polls cond every millisecond until it holds or the
// deadline passes.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition %q not reached within %v", what, d)
}

// persistentServer builds a Persistent engine over a faulty Dir in a
// temp directory and serves it, returning the injector for fault
// scripting. ProbeInterval is short so degraded episodes heal quickly
// once the injector is disarmed.
func persistentServer(t *testing.T, g *graph.Graph, seed int64) (*store.Injector, *store.Persistent, *Server, *httptest.Server) {
	t.Helper()
	inj := store.NewInjector(seed)
	d, err := store.OpenDirFaulty(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := store.Open(d, g, core.Options{}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p.Engine, Options{
		Persist:       p,
		ProbeInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		p.Close()
	})
	return inj, p, srv, ts
}

// TestSubmitExpiredContext: a request whose context is already done is
// refused before it takes a slot — no evaluation runs, no slot or queue
// place is held, the abandoned counter ticks — and a live request after
// it evaluates normally on the direct path.
func TestSubmitExpiredContext(t *testing.T) {
	eng := core.New(fixtures.Figure1(), core.Options{})
	var evals atomic.Int64
	eng.SetEvalHook(func(string) { evals.Add(1) })
	srv := New(eng, Options{})
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := srv.adm.submit(ctx, "d.(b.c)+.c", rpq.MustParse("d.(b.c)+.c"))
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("expired-ctx submit err = %v, want context.Canceled", res.err)
	}
	if st := srv.adm.stats(); st.Abandoned != 1 || st.Direct != 0 {
		t.Fatalf("stats = %+v, want 1 abandoned and no direct evaluation", st)
	}
	if evals.Load() != 0 {
		t.Fatalf("expired-ctx submit ran %d evaluations", evals.Load())
	}
	if held, queued := len(srv.adm.slots), srv.adm.waiting.Load(); held != 0 || queued != 0 {
		t.Fatalf("expired-ctx submit left %d slots and %d queue places held", held, queued)
	}

	res = srv.adm.submit(context.Background(), "d.(b.c)+.c", rpq.MustParse("d.(b.c)+.c"))
	if res.err != nil || res.path != pathDirect {
		t.Fatalf("live submit after expired one: path %v, err %v", res.path, res.err)
	}
	if evals.Load() == 0 {
		t.Fatal("live submit ran no evaluation")
	}
}

// TestAbandonedBatchCancelled: a cold query whose client walks away
// while it waits for a slot is cancelled instead of evaluated. Over
// HTTP, the only slot is wedged on a first query (eval hook blocks), a
// second client's request queues behind it and then disconnects; its
// queue place is given back at once, the abandonment is counted, and
// the query is never handed to the engine — not even once the slot
// frees. A later live request for the same text evaluates normally.
func TestAbandonedBatchCancelled(t *testing.T) {
	eng, entered, release, evaluations := blockingEngine(fixtures.Figure1(), "a.b")
	srv := New(eng, Options{MaxInFlight: 1, MaxQueued: 1})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	// Runs before the server shuts down, so a failing assertion never
	// leaves Close waiting on the wedged evaluation.
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free()

	held := submitAsync(srv.adm, context.Background(), "a.b")
	<-entered // the only slot is now wedged inside the first evaluation

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"query":"b.c"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()
	eventually(t, 5*time.Second, "abandoning request queued", func() bool { return srv.adm.waiting.Load() == 1 })
	cancel()
	if err := <-clientErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnecting client: err = %v, want context.Canceled", err)
	}
	eventually(t, 5*time.Second, "abandoned waiter leaves the queue", func() bool {
		return srv.adm.waiting.Load() == 0 && srv.adm.stats().Abandoned == 1
	})

	free()
	if r := <-held; r.err != nil {
		t.Fatalf("wedged query: %v", r.err)
	}
	if n := evaluations("b.c"); n != 0 {
		t.Fatalf("abandoned query was still evaluated %d times", n)
	}
	if r, status := postQuery(t, ts.URL, QueryRequest{Query: "b.c"}); status != http.StatusOK || r.Path != "direct" {
		t.Fatalf("live retry of the abandoned query: status %d path %q, want 200 direct", status, r.Path)
	}
	if n := evaluations("b.c"); n != 1 {
		t.Fatalf("live retry ran %d evaluations, want 1", n)
	}
	if st := srv.adm.stats(); st.Abandoned != 1 || st.Direct != 2 {
		t.Fatalf("stats = %+v, want 1 abandoned and 2 direct", st)
	}
}

// TestPanicStormQuarantine: over HTTP, a query whose evaluation panics
// answers 500 with the panic isolated to that request; after
// quarantineAfter crashes the same query text is rejected with 422
// without touching the engine; healthy queries served concurrently
// throughout the storm return exactly the serial oracle's pairs; and
// the daemon survives with its panic counters on /metrics.
func TestPanicStormQuarantine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := fixtures.RandomGraph(rng, 32, 96, []string{"a", "b", "c"})
	eng := core.New(g, core.Options{})
	const poison = "(a.b)+"
	eng.SetEvalHook(func(q string) {
		if q == poison {
			panic("injected evaluator fault")
		}
	})
	srv := New(eng, Options{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	good := []string{"b.c", "c.a", "(b|c)+"}
	serial := core.New(g, core.Options{})
	want := make(map[string]*pairs.Relation)
	for _, q := range good {
		rel, err := serial.EvaluateRel(rpq.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		want[q] = rel
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				q := good[(c+i)%len(good)]
				resp, status := postQuery(t, ts.URL, QueryRequest{Query: q})
				if status != http.StatusOK {
					errc <- fmt.Errorf("healthy %s during storm: status %d", q, status)
					return
				}
				if resp.Total != want[q].Len() {
					errc <- fmt.Errorf("healthy %s during storm: %d pairs, want %d", q, resp.Total, want[q].Len())
					return
				}
			}
		}(c)
	}
	// The storm: the first quarantineAfter crashes answer 500, then the
	// quarantine rejects the query text with 422 without evaluating.
	for i := 0; i < quarantineAfter; i++ {
		if _, status := postQuery(t, ts.URL, QueryRequest{Query: poison}); status != http.StatusInternalServerError {
			t.Fatalf("poison crash %d: status %d, want 500", i+1, status)
		}
	}
	for i := 0; i < 3; i++ {
		if _, status := postQuery(t, ts.URL, QueryRequest{Query: poison}); status != http.StatusUnprocessableEntity {
			t.Fatalf("quarantined poison: status %d, want 422", status)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	st := srv.adm.stats()
	if st.Panics < int64(quarantineAfter) {
		t.Fatalf("Panics = %d, want >= %d", st.Panics, quarantineAfter)
	}
	if st.QuarantineRejected < 3 {
		t.Fatalf("QuarantineRejected = %d, want >= 3", st.QuarantineRejected)
	}
	if st.QuarantineSize < 1 {
		t.Fatalf("QuarantineSize = %d, want >= 1", st.QuarantineSize)
	}
	if h, status := getHealthz(t, ts.URL); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz after storm: %q (%d), want ok (200)", h.Status, status)
	}
}

// TestUpdateDegradedThenRearm: a WAL append failure drops the daemon to
// read-only — POST /update answers 503 with Retry-After, /metrics shows
// the error counters, /healthz says degraded with a reason — while
// /query keeps serving the last durable epoch; once the fault clears,
// the probe loop re-arms updates with no operator action.
func TestUpdateDegradedThenRearm(t *testing.T) {
	inj, _, srv, ts := persistentServer(t, fixtures.Figure1(), 1)

	// A healthy update commits.
	out, resp := postUpdate(t, ts.URL, UpdateRequest{Updates: []EdgeUpdate{{Op: "insert", Src: 0, Label: "z", Dst: 9}}})
	if resp.StatusCode != http.StatusOK || out.Epoch != 1 {
		t.Fatalf("healthy update: status %d epoch %d", resp.StatusCode, out.Epoch)
	}

	// Arm a persistent fault, not a one-shot: the 5ms probe loop would
	// otherwise consume a FailNth and heal the node before the degraded
	// assertions below run.
	inj.Arm(1, store.OpWrite)
	_, resp = postUpdate(t, ts.URL, UpdateRequest{Updates: []EdgeUpdate{{Op: "insert", Src: 1, Label: "z", Dst: 9}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded update: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != retryAfterSeconds {
		t.Fatalf("degraded update Retry-After = %q, want %q", ra, retryAfterSeconds)
	}

	pi := srv.MetricsSnapshot().Persistence
	if pi == nil || pi.WALAppendErrors != 1 || !pi.Degraded || pi.LastError == "" || pi.DegradedSince.IsZero() {
		t.Fatalf("persistence metrics after WAL failure: %+v", pi)
	}
	if h, status := getHealthz(t, ts.URL); status != http.StatusOK || h.Status != "degraded" || h.Reason == "" {
		t.Fatalf("healthz while degraded: %+v (%d)", h, status)
	}

	// Reads still serve the last durable epoch.
	qresp, status := postQuery(t, ts.URL, QueryRequest{Query: "z"})
	if status != http.StatusOK || qresp.Epoch != 1 || qresp.Total != 1 {
		t.Fatalf("degraded read: status %d epoch %d total %d", status, qresp.Epoch, qresp.Total)
	}

	// Fault clears; the probe loop must re-arm updates on its own.
	inj.Disarm()
	eventually(t, 5*time.Second, "updates re-armed after probe", func() bool {
		_, resp := postUpdate(t, ts.URL, UpdateRequest{Updates: []EdgeUpdate{{Op: "insert", Src: 1, Label: "z", Dst: 9}}})
		return resp.StatusCode == http.StatusOK
	})
	if h, status := getHealthz(t, ts.URL); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz after recovery: %q (%d), want ok", h.Status, status)
	}
}

// TestHealthzDraining: Close flips /healthz to "draining" with 503 so a
// load balancer stops routing before the listener goes away; draining
// outranks any degraded state.
func TestHealthzDraining(t *testing.T) {
	eng := core.New(fixtures.Figure1(), core.Options{})
	srv := New(eng, Options{})
	srv.Close()

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", rec.Code)
	}
	var h HealthResponse
	if err := json.NewDecoder(rec.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("draining healthz reports %q", h.Status)
	}
}

// TestSnapshotErrorBody: a failed POST /admin/snapshot answers 500 with
// a structured body carrying the error and the degradation state it
// left behind, and the counters land on /metrics; the probe loop heals
// the node once the fault clears.
func TestSnapshotErrorBody(t *testing.T) {
	inj, _, srv, ts := persistentServer(t, fixtures.Figure1(), 2)

	// Persistent fault (see TestUpdateDegradedThenRearm): the probe loop
	// must keep failing until Disarm or the Degraded assertions race it.
	inj.Arm(1, store.OpRename)
	resp, err := http.Post(ts.URL+"/admin/snapshot", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed snapshot status = %d, want 500", resp.StatusCode)
	}
	var body SnapshotErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" || !body.Degraded || body.SnapshotErrors < 1 || body.DegradedReason == "" {
		t.Fatalf("snapshot error body missing ladder state: %+v", body)
	}
	pi := srv.MetricsSnapshot().Persistence
	if pi == nil || pi.SnapshotErrors < 1 || !pi.Degraded {
		t.Fatalf("persistence metrics after snapshot failure: %+v", pi)
	}

	inj.Disarm()
	eventually(t, 5*time.Second, "snapshot succeeds after probe heals the node", func() bool {
		resp, err := http.Post(ts.URL+"/admin/snapshot", "application/json", strings.NewReader("{}"))
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
}

// relFingerprint renders a relation as its sorted pair list.
func relFingerprint(rel *pairs.Relation) string {
	var ps [][2]graph.VID
	rel.Each(func(src, dst graph.VID) bool {
		ps = append(ps, [2]graph.VID{src, dst})
		return true
	})
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	return fmt.Sprint(ps)
}

// engineFingerprint summarises an engine as its epoch plus the sorted
// result of every probe query — two fingerprint-equal engines answer
// the probe workload identically at the same graph version.
func engineFingerprint(t *testing.T, e *core.Engine, queries []string) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d\n", e.Epoch())
	for _, q := range queries {
		rel, err := e.EvaluateRel(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("fingerprint %s: %v", q, err)
		}
		fmt.Fprintf(&b, "%s: %s\n", q, relFingerprint(rel))
	}
	return b.String()
}

// chaosGraph builds the chaos seed graph; calling it twice with the
// same seed yields identical graphs, which is how the oracle replays
// the run.
func chaosGraph() *graph.Graph {
	return fixtures.RandomGraph(rand.New(rand.NewSource(3)), 48, 160, []string{"a", "b", "c"})
}

// TestChaosServerProperty is the chaos gate of the ISSUE: a server over
// a fault-injected store, hammered by concurrent query clients, an
// updater, and a fault scripter arming and disarming the injector. The
// property: the daemon never crashes, every served page is exactly what
// a serial oracle computes at that page's epoch (CrossEpochHits == 0),
// degradation is reported honestly, the node recovers once faults
// clear, and a snapshot + restart reproduces a fingerprint-identical
// engine.
func TestChaosServerProperty(t *testing.T) {
	seedGraph := chaosGraph()
	inj := store.NewInjector(99)
	dir := t.TempDir()
	d, err := store.OpenDirFaulty(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := store.Open(d, seedGraph, core.Options{}, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Worker panics interleave with the I/O faults: one poison query
	// string crashes its evaluation every time; isolation must confine
	// it to 500s (then 422s once quarantined) while concurrent healthy
	// queries keep verifying against the oracle.
	const poison = "(c.b.a)+"
	p.Engine.SetEvalHook(func(q string) {
		if q == poison {
			panic("chaos: injected evaluator fault")
		}
	})
	srv := New(p.Engine, Options{
		Persist:       p,
		ProbeInterval: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(srv)

	queries := []string{"a.b", "(a.b)+", "b.c", "(b|c)+", "c.a", "a.(b.c)+"}
	labels := []string{"a", "b", "c"}

	type ackedBatch struct {
		epoch   uint64
		updates []core.GraphUpdate
	}
	var (
		mu       sync.Mutex
		acked    []ackedBatch
		observed = make(map[uint64]map[string]string) // epoch -> query -> pairs
		badObs   []string
	)
	record := func(q string, epoch uint64, fp string) {
		mu.Lock()
		defer mu.Unlock()
		byQ := observed[epoch]
		if byQ == nil {
			byQ = make(map[string]string)
			observed[epoch] = byQ
		}
		if prev, ok := byQ[q]; ok && prev != fp {
			badObs = append(badObs, fmt.Sprintf("%s at epoch %d answered two ways", q, epoch))
			return
		}
		byQ[q] = fp
	}
	respFingerprint := func(resp QueryResponse) string {
		ps := pairsOf(resp)
		raw := make([][2]graph.VID, len(ps))
		for i, p := range ps {
			raw[i] = [2]graph.VID{p.Src, p.Dst}
		}
		sort.Slice(raw, func(i, j int) bool {
			if raw[i][0] != raw[j][0] {
				return raw[i][0] < raw[j][0]
			}
			return raw[i][1] < raw[j][1]
		})
		return fmt.Sprint(raw)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)

	// Query clients: record (query, epoch, pairs) for post-hoc oracle
	// verification; 503 sheds are allowed, anything else is a failure.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := queries[(c+i)%len(queries)]
				resp, status := postQuery(t, ts.URL, QueryRequest{Query: q})
				switch status {
				case http.StatusOK:
					record(q, resp.Epoch, respFingerprint(resp))
				case http.StatusServiceUnavailable:
					// Shed or shutting down: allowed under chaos.
				default:
					errc <- fmt.Errorf("client %d: %s: status %d", c, q, status)
					return
				}
			}
		}(c)
	}

	// The poison client: crashes its own evaluations throughout the
	// storm. 500 (isolated panic), 422 (quarantined) and 503 (shed) are
	// the only acceptable answers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			_, status := postQuery(t, ts.URL, QueryRequest{Query: poison})
			switch status {
			case http.StatusInternalServerError, http.StatusUnprocessableEntity, http.StatusServiceUnavailable:
			default:
				errc <- fmt.Errorf("poison query: status %d", status)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The updater: random small batches; a 200 is recorded with its
	// resulting epoch (the oracle replays exactly these), a 503 means
	// the ladder is holding updates back and is fine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		urng := rand.New(rand.NewSource(17))
		for i := 0; i < 60; i++ {
			n := 1 + urng.Intn(3)
			ups := make([]core.GraphUpdate, 0, n)
			edges := make([]EdgeUpdate, 0, n)
			for j := 0; j < n; j++ {
				src := graph.VID(urng.Intn(48))
				dst := graph.VID(urng.Intn(48))
				lbl := labels[urng.Intn(len(labels))]
				op := "insert"
				u := core.InsertEdge(src, lbl, dst)
				if urng.Intn(4) == 0 {
					op = "delete"
					u = core.DeleteEdge(src, lbl, dst)
				}
				ups = append(ups, u)
				edges = append(edges, EdgeUpdate{Op: op, Src: src, Label: lbl, Dst: dst})
			}
			out, resp := postUpdate(t, ts.URL, UpdateRequest{Updates: edges})
			switch resp.StatusCode {
			case http.StatusOK:
				mu.Lock()
				acked = append(acked, ackedBatch{epoch: out.Epoch, updates: ups})
				mu.Unlock()
			case http.StatusServiceUnavailable:
				// Degraded: read-only, by design.
			default:
				errc <- fmt.Errorf("updater: status %d", resp.StatusCode)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// The fault scripter: storms of probabilistic write/sync/rename
	// failures with quiet gaps for the probe loop to heal in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			inj.Arm(0.5, store.OpWrite, store.OpSync, store.OpRename)
			time.Sleep(8 * time.Millisecond)
			inj.Disarm()
			time.Sleep(15 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	mu.Lock()
	for _, bad := range badObs {
		t.Error(bad)
	}
	mu.Unlock()

	// Recovery: with the injector quiet, the probe loop must re-arm
	// updates, and one final update must commit.
	inj.Disarm()
	eventually(t, 5*time.Second, "post-chaos update commits", func() bool {
		_, resp := postUpdate(t, ts.URL, UpdateRequest{Updates: []EdgeUpdate{{Op: "insert", Src: 0, Label: "z", Dst: 47}}})
		if resp.StatusCode != http.StatusOK {
			return false
		}
		return true
	})
	if h, status := getHealthz(t, ts.URL); status != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz after chaos: %q (%d), want ok", h.Status, status)
	}
	if hits := srv.MetricsSnapshot().Cache.CrossEpochHits; hits != 0 {
		t.Fatalf("CrossEpochHits = %d after chaos, want 0", hits)
	}
	if st := srv.adm.stats(); st.Panics < 1 {
		t.Fatalf("Panics = %d after the poison storm, want >= 1", st.Panics)
	}

	// Oracle verification: rebuild the identical seed graph, replay the
	// acknowledged batches in order, and check every served page against
	// what the serial engine computes at that page's epoch.
	mu.Lock()
	ackedCopy := append([]ackedBatch(nil), acked...)
	obsCopy := observed
	mu.Unlock()
	epochs := make([]uint64, 0, len(obsCopy))
	for e := range obsCopy {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	oracle := core.New(chaosGraph(), core.Options{})
	next := 0
	for _, epoch := range epochs {
		for oracle.Epoch() < epoch {
			if next >= len(ackedCopy) {
				t.Fatalf("observed epoch %d beyond all %d acknowledged batches (oracle at %d)", epoch, len(ackedCopy), oracle.Epoch())
			}
			if _, err := oracle.ApplyUpdates(ackedCopy[next].updates); err != nil {
				t.Fatalf("oracle replay: %v", err)
			}
			next++
		}
		if oracle.Epoch() != epoch {
			t.Fatalf("oracle reached epoch %d replaying toward observed epoch %d", oracle.Epoch(), epoch)
		}
		for q, got := range obsCopy[epoch] {
			rel, err := oracle.EvaluateRel(rpq.MustParse(q))
			if err != nil {
				t.Fatalf("oracle %s at epoch %d: %v", q, epoch, err)
			}
			if want := relFingerprint(rel); got != want {
				t.Errorf("%s at epoch %d: served %s, oracle says %s", q, epoch, got, want)
			}
		}
	}

	// Restart identity: snapshot, shut down, reopen the same directory
	// (faults gone), and the restored engine must answer the probe
	// workload identically at the same epoch.
	ts.Close()
	srv.Close()
	fpBefore := engineFingerprint(t, p.Engine, queries)
	if _, err := p.Snapshot(); err != nil {
		t.Fatalf("post-chaos snapshot: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("closing store: %v", err)
	}
	d2, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2, info, err := store.Open(d2, nil, core.Options{}, store.Options{})
	if err != nil {
		t.Fatalf("restart after chaos: %v", err)
	}
	defer p2.Close()
	if !info.RestoredSnapshot {
		t.Fatal("restart did not restore the post-chaos snapshot")
	}
	if fpAfter := engineFingerprint(t, p2.Engine, queries); fpAfter != fpBefore {
		t.Fatalf("restart fingerprint mismatch:\nbefore:\n%s\nafter:\n%s", fpBefore, fpAfter)
	}
}
