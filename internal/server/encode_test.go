package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// The append-encoder's contract is byte equality with encoding/json on
// the wire types; these tests hold the two together.

// jsonLine is the reference: what a json.Encoder with HTML escaping off
// writes for v, trailing newline included.
func jsonLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wirePairs is the page as the wire types hold it: never nil, so an
// empty page is [] and not null.
func wirePairs(page []pairs.Pair) [][2]graph.VID {
	out := make([][2]graph.VID, len(page))
	for i, p := range page {
		out[i] = [2]graph.VID{p.Src, p.Dst}
	}
	return out
}

// testPages covers the page shapes that matter: empty, the digit-count
// boundaries and those of appendPairs' four-digit groups, a negative
// VID, a page exactly at and one past the piece size, and random pages
// with repeated sources.
func testPages() [][]pairs.Pair {
	rng := rand.New(rand.NewSource(11))
	edge := []graph.VID{0, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999999, 100000000, math.MaxInt32, -1, math.MinInt32}
	var edges []pairs.Pair
	for _, s := range edge {
		for _, d := range edge {
			edges = append(edges, pairs.Pair{Src: s, Dst: d})
		}
	}
	pages := [][]pairs.Pair{nil, {}, {{Src: 0, Dst: 0}}, {{Src: math.MaxInt32, Dst: math.MaxInt32}}, edges}
	for _, n := range []int{1, 7, 512, 1000, pagePiece, pagePiece + 1, 3*pagePiece + 5} {
		page := make([]pairs.Pair, n)
		src := graph.VID(0)
		for i := range page {
			if rng.Intn(4) == 0 {
				src += graph.VID(rng.Intn(1 << uint(rng.Intn(20))))
			}
			page[i] = pairs.Pair{Src: src, Dst: graph.VID(rng.Intn(1 << uint(1+rng.Intn(30))))}
		}
		pages = append(pages, page)
	}
	return pages
}

// slicePager serves page as the pairs from position at on.
type slicePager struct {
	at   int
	page []pairs.Pair
}

func (s slicePager) PageInto(offset int, buf []pairs.Pair) int {
	return copy(buf, s.page[offset-s.at:])
}

// writeTestPage sends page as r's pairs the way the handler does: the
// first piece paged up front, the rest by writePage.
func writeTestPage(w http.ResponseWriter, r *QueryResponse, page []pairs.Pair) {
	src := slicePager{r.Offset, page}
	writePage(w, r, src, firstPiece(src, r.Offset, r.Count))
}

// testEnvelope is a response envelope with every field set.
func testEnvelope(query, next string, page []pairs.Pair) QueryResponse {
	return QueryResponse{
		Query: query, Epoch: math.MaxUint64, Total: 1 << 40, Offset: 12345, Count: len(page),
		Path: pathFastPath.String(),
		Stages: core.StageTimer{
			QueueNS: 1, CoalesceWaitNS: 22, PlanNS: 333, ClosureBuildNS: 4444,
			JoinNS: 55555, SealNS: 666666, PageNS: 7777777, OtherNS: 0,
		},
		WallNS: 987654321, NextCursor: next,
	}
}

// TestWritePageMatchesEncodingJSON: a /query body is byte for byte what
// encoding/json writes for QueryResponse, whether the page goes out
// whole (with Content-Length) or in pieces (without).
func TestWritePageMatchesEncodingJSON(t *testing.T) {
	for _, page := range testPages() {
		for _, next := range []string{"", "UgEAAAAAAAAAAQ-_"} {
			r := testEnvelope("a.(b|c)+", next, page)
			rec := httptest.NewRecorder()
			writeTestPage(rec, &r, page)

			r.Pairs = wirePairs(page)
			if want := jsonLine(t, r); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%d pairs, next %q:\n got %.200s\nwant %.200s", len(page), next, rec.Body, want)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" || rec.Code != http.StatusOK {
				t.Fatalf("status %d, Content-Type %q", rec.Code, ct)
			}
			cl := rec.Header().Get("Content-Length")
			if len(page) <= pagePiece && cl != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("%d pairs: Content-Length %q on a %d-byte body", len(page), cl, rec.Body.Len())
			}
			if len(page) > pagePiece && cl != "" {
				t.Fatalf("%d pairs sent in pieces, yet Content-Length %q", len(page), cl)
			}
		}
	}
}

// TestStreamSinkMatchesEncodingJSON: both framings carry encoding/json's
// bytes — pairs records from the append-encoder, cold records from
// encoding/json itself, HTML-escaped in SSE data (json.Marshal) and not
// in NDJSON lines, as both always were.
func TestStreamSinkMatchesEncodingJSON(t *testing.T) {
	sseFrame := func(event string, v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, data))
	}
	for _, page := range testPages() {
		nd, sse := httptest.NewRecorder(), httptest.NewRecorder()
		ndSink, sseSink := newStreamSink(nd, false), newStreamSink(sse, true)
		if err := ndSink.pairs(page); err != nil {
			t.Fatal(err)
		}
		if err := sseSink.pairs(page); err != nil {
			t.Fatal(err)
		}
		w := wireChunk{wirePairs(page)}
		if want := jsonLine(t, w); !bytes.Equal(nd.Body.Bytes(), want) {
			t.Fatalf("NDJSON, %d pairs:\n got %.200s\nwant %.200s", len(page), nd.Body, want)
		}
		if want := sseFrame("pairs", w); !bytes.Equal(sse.Body.Bytes(), want) {
			t.Fatalf("SSE, %d pairs:\n got %.200s\nwant %.200s", len(page), sse.Body, want)
		}
		ndSink.release()
		sseSink.release()
	}

	meta := streamMeta{Query: "<a>&\u2028\"b\\", Epoch: 7}
	nd, sse := httptest.NewRecorder(), httptest.NewRecorder()
	if err := newStreamSink(nd, false).record("meta", meta); err != nil {
		t.Fatal(err)
	}
	if err := newStreamSink(sse, true).record("meta", meta); err != nil {
		t.Fatal(err)
	}
	if want := jsonLine(t, meta); !bytes.Equal(nd.Body.Bytes(), want) {
		t.Fatalf("NDJSON meta:\n got %s\nwant %s", nd.Body, want)
	}
	if want := sseFrame("meta", meta); !bytes.Equal(sse.Body.Bytes(), want) {
		t.Fatalf("SSE meta:\n got %s\nwant %s", sse.Body, want)
	}
}

// FuzzQueryEnvelope: whatever string a request echoes — the query, or a
// cursor — the envelope stays what encoding/json writes.
func FuzzQueryEnvelope(f *testing.F) {
	for _, s := range []string{
		"", "a.b+", `"quoted"`, `back\slash`, "tab\tnl\ncr\rbs\bff\fnul\x00esc\x1bdel\x7f",
		"line\u2028para\u2029", "invalid\xff\xc0\xafutf8\xe2\x80", "<script>&amp;</script>",
		"d·(b·c)+·c", "\U0001F600", "\xed\xa0\x80",
	} {
		f.Add(s)
	}
	page := []pairs.Pair{{Src: 1, Dst: 2}}
	f.Fuzz(func(t *testing.T, s string) {
		r := testEnvelope(s, s, page)
		rec := httptest.NewRecorder()
		writeTestPage(rec, &r, page)
		r.Pairs = wirePairs(page)
		if want := jsonLine(t, r); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("string %q:\n got %s\nwant %s", s, rec.Body, want)
		}
	})
}

// FuzzAppendPairs: whatever a page holds — any int32 on either side,
// sources in any order — appendPairs writes json.Marshal's bytes, into
// an empty buffer and after a prefix.
func FuzzAppendPairs(f *testing.F) {
	for _, page := range testPages()[:5] {
		data := make([]byte, 0, 8*len(page))
		for _, p := range page {
			data = binary.LittleEndian.AppendUint32(data, uint32(p.Src))
			data = binary.LittleEndian.AppendUint32(data, uint32(p.Dst))
		}
		f.Add(data)
	}
	prefix := []byte(`{"pairs":[[1,2]],"more":`)
	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]pairs.Pair, len(data)/8)
		for i := range page {
			page[i] = pairs.Pair{
				Src: graph.VID(binary.LittleEndian.Uint32(data[8*i:])),
				Dst: graph.VID(binary.LittleEndian.Uint32(data[8*i+4:])),
			}
		}
		want, err := json.Marshal(wirePairs(page))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendPairs(nil, page); !bytes.Equal(got, want) {
			t.Fatalf("%v:\n got %s\nwant %s", page, got, want)
		}
		got := appendPairs(prefix[:len(prefix):len(prefix)], page)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%v after %s:\n got %s\nwant %s%s", page, prefix, got, prefix, want)
		}
	})
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// and heap measurements see the handler alone.
type discardWriter struct {
	h      http.Header
	n      int
	writes int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(int)     {}
func (d *discardWriter) Write(b []byte) (int, error) {
	d.n += len(b)
	d.writes++
	return len(b), nil
}
func (d *discardWriter) Flush() {}

// denseServer serves a graph whose closure result is a few hundred
// thousand pairs, sealed and memoised, so /query is a fast-path hit.
func denseServer(t testing.TB) (*Server, string, int) {
	g, err := datagen.PaperRMATN(5, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	names := g.Dict().Names()
	query := "(" + names[0] + "|" + names[1] + ")+"
	engine := core.New(g, core.Options{})
	rel, err := engine.EvaluateRel(rpq.MustParse(query))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, Options{})
	t.Cleanup(func() { srv.Close() })
	return srv, query, rel.Len()
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestUnlimitedPageLeavesHeapFlat: a limit=0 page over a large result
// is encoded piece by piece, so after it nothing of its size stays
// reachable — not in the handler, not in the buffer pool. One GC only:
// a second would empty the pool and hide a pinned buffer.
func TestUnlimitedPageLeavesHeapFlat(t *testing.T) {
	srv, query, total := denseServer(t)
	if total < 50*pagePiece {
		t.Fatalf("fixture result has only %d pairs", total)
	}
	body, _ := json.Marshal(QueryRequest{Query: query})
	serve := func() int {
		w := &discardWriter{h: http.Header{}}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		return w.n
	}
	serve() // warm: pool, routing, result memo
	before := heapAfterGC()
	sent := serve()
	after := heapAfterGC()
	if sent < 8*total {
		t.Fatalf("unlimited page wrote %d bytes for %d pairs", sent, total)
	}
	if grown := int64(after) - int64(before); grown > 4*maxPooledBuf {
		t.Fatalf("heap grew %d bytes across one %d-byte unlimited page", grown, sent)
	}
}

// TestStreamChunkAllocs: once the sink's buffer has grown through one
// flush cycle, a streamed chunk costs no allocation — not in the
// engine's Next, not in the sink.
func TestStreamChunkAllocs(t *testing.T) {
	srv, query, _ := denseServer(t)
	fresh := core.New(srv.engine.Graph(), core.Options{}) // no memoised result: a live stream
	stream, err := fresh.OpenStream(context.Background(), rpq.MustParse(query), core.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for _, sse := range []bool{false, true} {
		w := &discardWriter{h: http.Header{}}
		sink := newStreamSink(w, sse)
		buf := make([]pairs.Pair, srv.opts.StreamChunk)
		chunk := func() {
			n, done, err := stream.Next(buf)
			if err != nil || done {
				t.Fatalf("stream ended inside the measured window: done=%v err=%v", done, err)
			}
			if err := sink.pairs(buf[:n]); err != nil {
				t.Fatal(err)
			}
		}
		// The first pairs record is one write, the first size flush the
		// second: by then the buffer has grown to what a cycle needs.
		for w.writes < 2 {
			chunk()
		}
		// 50 chunks as one run, so a single allocation among them is
		// not divided away.
		if allocs := testing.AllocsPerRun(1, func() {
			for range 50 {
				chunk()
			}
		}); allocs != 0 {
			t.Fatalf("sse=%v: %v allocations in 50 chunks after a flush cycle, want 0", sse, allocs)
		}
		sink.release()
	}
}

// TestFastPathQueryAllocBudget: a memo-warm 1000-pair page costs a
// small fixed number of allocations — request decoding and parsing, the
// timeout context, the cursor — and no bytes per pair: the page is read
// into a pooled piece and encoded into a pooled buffer. (The count is
// what net/http, encoding/json and rpq.Parse need for one request; the
// byte budget is what they allocate, well under the 8 KB page itself.)
func TestFastPathQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	const allocBudget, byteBudget = 36, 4 << 10
	srv, query, _ := denseServer(t)
	body, _ := json.Marshal(QueryRequest{Query: query, Limit: 1000, Offset: 4321})
	reader := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", reader)
	w := &discardWriter{h: http.Header{}}
	serve := func() {
		reader.Reset(body)
		clear(w.h)
		srv.ServeHTTP(w, req)
	}
	serve()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, serve)
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%v allocations, %d bytes per fast-path page", allocs, perRun)
	if allocs > allocBudget || perRun > byteBudget {
		t.Fatalf("%v allocations, %d bytes per fast-path page; budget %d allocations, %d bytes",
			allocs, perRun, allocBudget, byteBudget)
	}
}

// BenchmarkAppendPairs explains the benchmark's server.bytes_per_pair:
// the cost of rendering one delivered pair of a 512-pair chunk of dense
// runs, with the short VIDs of the paper graphs and with the 7-digit
// VIDs of 2^20-vertex graphs, which take the split-group path. It must
// stay allocation-free.
func BenchmarkAppendPairs(b *testing.B) {
	short, wide := make([]pairs.Pair, 512), make([]pairs.Pair, 512)
	for i := range short {
		short[i] = pairs.Pair{Src: graph.VID(300 + i/200), Dst: graph.VID(i * 2)}
		wide[i] = pairs.Pair{Src: graph.VID(1<<20 - 300 + i/200), Dst: graph.VID(1_000_000 + i*89)}
	}
	for _, c := range []struct {
		name string
		page []pairs.Pair
	}{{"short", short}, {"7-digit", wide}} {
		b.Run(c.name, func(b *testing.B) {
			buf := appendPairs(nil, c.page)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = appendPairs(buf[:0], c.page)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.page)), "ns/pair")
		})
	}
}
