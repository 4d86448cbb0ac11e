package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
)

// TestHistogramBuckets: the log-bucket mapping is monotone, bounded,
// and bounds are consistent with the index.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {4096, 0}, {4097, 1}, {8192, 1}, {8193, 2},
		{int64(time.Millisecond), 8}, {1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if bucketIndex(lo+1) != i || bucketIndex(hi) != min(i, histBuckets-1) {
			t.Errorf("bucket %d bounds [%d, %d] disagree with bucketIndex", i, lo, hi)
		}
	}
}

// TestHistogramQuantiles: a quiesced histogram reports exact count, sum
// and max, and interpolated quantiles inside the observed range.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if s := h.snapshot(); s.Count != 0 || s.P99MS != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	h.observe(time.Millisecond)
	s := h.snapshot()
	if s.Count != 1 || s.MeanMS != 1 || s.MaxMS != 1 || s.P50MS != 1 || s.P99MS != 1 {
		t.Fatalf("single-observation snapshot = %+v, want all 1ms", s)
	}

	var mixed histogram
	for i := 0; i < 90; i++ {
		mixed.observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		mixed.observe(50 * time.Millisecond)
	}
	m := mixed.snapshot()
	if m.Count != 100 || m.MaxMS != 50 {
		t.Fatalf("mixed snapshot = %+v", m)
	}
	if m.P50MS >= 1 {
		t.Errorf("p50 %vms should sit in the fast mode (<1ms)", m.P50MS)
	}
	if m.P99MS < 10 || m.P99MS > 50 {
		t.Errorf("p99 %vms should sit in the slow tail", m.P99MS)
	}
	if m.P50MS > m.P90MS || m.P90MS > m.P99MS || m.P99MS > m.MaxMS {
		t.Errorf("quantiles not monotone: %+v", m)
	}
}

// TestLatencyRecorderPaths: observations land in the overall histogram,
// the right per-path histogram, and only the non-zero stage histograms.
func TestLatencyRecorderPaths(t *testing.T) {
	var l latencyRecorder
	l.observe(pathDirect, 2*time.Millisecond, &core.StageTimer{PlanNS: 1000, JoinNS: 2000})
	l.observe(pathDirect, 5*time.Millisecond, &core.StageTimer{QueueNS: 4000})
	if l.overall.count.Load() != 2 {
		t.Fatalf("overall count = %d", l.overall.count.Load())
	}
	if l.paths[pathDirect].count.Load() != 2 || l.paths[pathFastPath].count.Load() != 0 ||
		l.paths[pathStreamed].count.Load() != 0 {
		t.Fatal("per-path histograms mis-routed")
	}
	st := l.stages()
	if st.Plan.Count != 1 || st.Join.Count != 1 || st.Queue.Count != 1 {
		t.Fatalf("stage histograms = %+v", st)
	}
	if st.ClosureBuild.Count != 0 || st.Seal.Count != 0 {
		t.Fatal("zero stages were counted")
	}
}

// TestStageSumWithinWall is the stage-accounting acceptance gate: for
// cold (direct) requests the per-stage breakdown must partition the
// server-measured wall time — the stage sum lands within 5% of WallNS.
// (The evaluation dominates, and every stage of it is measured, so the
// unattributed remainder is just handler overhead.) Encoding happens
// after WallNS is stamped; the second half closes that account against
// the /metrics encode histogram.
func TestStageSumWithinWall(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 2048, Edges: 16384, Labels: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Best of a few attempts, each on a fresh server (a query is cold
	// only once per server): a preemption between the handler's two
	// clocks on a loaded box is not a stage. The 5% bound applies to the
	// worst query of the best attempt.
	direct, directDetail := 1.0, ""
	for attempt := 0; attempt < 5 && direct > 0.05; attempt++ {
		_, ts := testServer(t, g, Options{})
		worst, detail := 0.0, ""
		for i, q := range []string{"l0+", "l1·l2+", "(l0·l1)+"} {
			resp, status := postQuery(t, ts.URL, QueryRequest{Query: q, Limit: 10})
			if status != http.StatusOK {
				t.Fatalf("query %d: status %d", i, status)
			}
			if resp.Path != "direct" {
				t.Fatalf("query %d rode %q, want direct", i, resp.Path)
			}
			sum := resp.Stages.Sum().Nanoseconds()
			if resp.WallNS <= 0 || sum <= 0 {
				t.Fatalf("query %d: wall=%d sum=%d", i, resp.WallNS, sum)
			}
			if resp.Stages.CoalesceWaitNS != 0 {
				t.Fatalf("query %d: direct request attributed a coalesce wait: %+v", i, resp.Stages)
			}
			if gap := math.Abs(float64(resp.WallNS-sum)) / float64(resp.WallNS); gap >= worst {
				worst = gap
				detail = fmt.Sprintf("query %d: stage sum %dns vs wall %dns (stages %+v)", i, sum, resp.WallNS, resp.Stages)
			}
		}
		if worst < direct {
			direct, directDetail = worst, detail
		}
	}
	if direct > 0.05 {
		t.Fatalf("stage sum off by %.1f%% of wall at best — %s", 100*direct, directDetail)
	}

	// A response cannot carry its own encode time, so on the path where
	// encoding is most of the request — a memo-warm 1000-pair page — the
	// account closes across two outputs: the handler's wall is the
	// response's wall_ns plus the encode histogram's sample, within 10%.
	// Measured in-process; the best of a few attempts, since a GC cycle or
	// a preemption between the two clocks is not the handler's time.
	srv, query, _ := denseServer(t)
	body, _ := json.Marshal(QueryRequest{Query: query, Limit: 1000, Offset: 4321})
	encodeHist := &srv.lat.encode[pathFastPath]
	best := 1.0
	for attempt := 0; attempt < 10 && best > 0.10; attempt++ {
		encodeBefore := encodeHist.sumNS.Load()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		handler := time.Since(t0).Nanoseconds()
		var resp QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Path != "fast_path" || resp.Count != 1000 {
			t.Fatalf("page rode %q with %d pairs, want a 1000-pair fast_path hit", resp.Path, resp.Count)
		}
		encode := encodeHist.sumNS.Load() - encodeBefore
		if encode <= 0 {
			t.Fatalf("attempt %d: no encode time observed", attempt)
		}
		best = min(best, math.Abs(float64(handler-resp.WallNS-encode))/float64(handler))
	}
	if best > 0.10 {
		t.Fatalf("handler wall differs from wall_ns + encode by %.1f%% at best", 100*best)
	}
	if got := srv.MetricsSnapshot().Latency.Encode["fast_path"]; got.Count == 0 || got.MaxMS <= 0 {
		t.Fatalf("/metrics encode.fast_path = %+v after fast-path pages", got)
	}
}

// TestMetricsLatencyRuntime: after live traffic, /metrics carries
// populated latency histograms and the runtime section, under their
// wire-stable key names.
func TestMetricsLatencyRuntime(t *testing.T) {
	srv, ts := testServer(t, fixtures.Figure1(), Options{})
	for _, q := range []string{"a", "a", "d·(b·c)+·c"} {
		if _, status := postQuery(t, ts.URL, QueryRequest{Query: q}); status != http.StatusOK {
			t.Fatalf("%s: status %d", q, status)
		}
	}

	m := srv.MetricsSnapshot()
	if m.Latency.Overall.Count != 3 {
		t.Fatalf("overall latency count = %d, want 3", m.Latency.Overall.Count)
	}
	if m.Latency.FastPath.Count != 1 || m.Latency.Direct.Count != 2 {
		t.Fatalf("path histograms: fast_path %d, direct %d, want 1 and 2",
			m.Latency.FastPath.Count, m.Latency.Direct.Count)
	}
	if m.Latency.Stages.Plan.Count == 0 {
		t.Fatal("no plan-stage observations")
	}
	if m.Runtime.Goroutines <= 0 || m.Runtime.HeapInuseBytes == 0 {
		t.Fatalf("runtime section empty: %+v", m.Runtime)
	}

	// Wire-format stability: the latency and runtime sections keep their
	// documented key sets (clients alert on these names).
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var lat map[string]json.RawMessage
	if err := json.Unmarshal(raw["latency"], &lat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"overall", "fast_path", "direct", "ask", "streamed", "witness",
		"stages", "encode", "first_chunk"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("latency section missing %q", key)
		}
	}
	var rt map[string]json.RawMessage
	if err := json.Unmarshal(raw["runtime"], &rt); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"goroutines", "heap_inuse_bytes", "heap_alloc_bytes",
		"num_gc", "last_gc_pause_ms", "gc_cpu_fraction"} {
		if _, ok := rt[key]; !ok {
			t.Errorf("runtime section missing %q", key)
		}
	}
	var hist map[string]json.RawMessage
	if err := json.Unmarshal(lat["overall"], &hist); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"} {
		if _, ok := hist[key]; !ok {
			t.Errorf("histogram missing %q", key)
		}
	}
}
