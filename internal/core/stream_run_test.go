package core

import (
	"context"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// TestStreamRunBoundaries cuts the per-source runs at every kind of
// boundary the accumulator drain has: caller buffers of 1, 7 and 512
// pairs, with no limit and with limits that end the stream in the middle
// of a run. Every combination must be exactly a prefix of the sealed
// order.
func TestStreamRunBoundaries(t *testing.T) {
	c := differentialCases()[4]
	g := c.graph(t)
	engine := New(g, Options{})
	oracle := New(g, Options{})
	for _, q := range c.queries(t, g.Dict()) {
		want, err := oracle.EvaluateRel(q)
		if err != nil {
			t.Fatalf("sealed %q: %v", q, err)
		}
		sorted := want.Sorted()
		// One limit inside each of the first runs holding several pairs.
		limits := []int{0}
		want.EachSrc(func(src graph.VID, dsts []graph.VID) bool {
			if len(dsts) >= 3 {
				offsets, _ := want.CSR()
				limits = append(limits, int(offsets[src])+len(dsts)/2)
			}
			return len(limits) < 4
		})
		for _, limit := range limits {
			for _, bufSize := range []int{1, 7, 512} {
				s, err := engine.OpenStream(context.Background(), q, StreamOptions{Limit: limit})
				if err != nil {
					t.Fatalf("open %q limit %d: %v", q, limit, err)
				}
				got := drainStream(t, s, bufSize)
				wantK := sorted
				if limit > 0 {
					wantK = sorted[:limit]
				}
				if !pairsEqual(got, wantK) {
					t.Fatalf("%q limit %d buffer %d: got %d pairs, want the sealed prefix of %d",
						q, limit, bufSize, len(got), len(wantK))
				}
				if st := s.Stats(); st.Pairs != int64(len(got)) {
					t.Fatalf("%q limit %d buffer %d: Stats().Pairs = %d, want %d", q, limit, bufSize, st.Pairs, len(got))
				}
			}
		}
	}
}

// denseStreamFixture is the stream-dense workload's shape in miniature:
// RMAT_5 (degree 8 per label), a closure over two labels, so every
// source's run covers about half the vertices.
func denseStreamFixture(tb testing.TB) (*Engine, rpq.Expr) {
	g, err := datagen.PaperRMATN(5, 9, 3)
	if err != nil {
		tb.Fatal(err)
	}
	names := g.Dict().Names()
	return New(g, Options{}), rpq.MustParse("(" + names[0] + "|" + names[1] + ")+")
}

// sparseStreamFixture is the opposite shape: b-chains of eight vertices
// over a large vertex space, so under b+ a run is at most 7
// destinations among 2^18 vertices.
func sparseStreamFixture(tb testing.TB) (*Engine, rpq.Expr) {
	const numV = 1 << 18
	b := graph.NewBuilder(numV)
	for v := 0; v+1 < numV; v++ {
		if (v+1)%8 != 0 {
			b.MustAddEdge(graph.VID(v), "b", graph.VID(v+1))
		}
	}
	return New(b.Build(), Options{}), rpq.MustParse("b+")
}

// TestStreamNextSteadyStateAllocs: a live stream's chunks cost no
// allocation after the first — the run accumulator, the frontier and the
// caller's buffer are all reused.
func TestStreamNextSteadyStateAllocs(t *testing.T) {
	engine, q := denseStreamFixture(t)
	s, err := engine.OpenStream(context.Background(), q, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]pairs.Pair, 512)
	next := func() {
		if _, done, err := s.Next(buf); err != nil || done {
			t.Fatalf("stream ended inside the measured window: done=%v err=%v", done, err)
		}
	}
	next()
	if allocs := testing.AllocsPerRun(100, next); allocs != 0 {
		t.Fatalf("%v allocations per chunk after the first, want 0", allocs)
	}
}

// BenchmarkStreamRun explains the benchmark's core.stream_drain_ns: one
// full live drain (shared structures cached, nothing sealed) of a dense
// and of a sparse result, reported per delivered pair.
func BenchmarkStreamRun(b *testing.B) {
	for _, fx := range []struct {
		name string
		open func(testing.TB) (*Engine, rpq.Expr)
	}{{"dense", denseStreamFixture}, {"sparse", sparseStreamFixture}} {
		b.Run(fx.name, func(b *testing.B) {
			engine, q := fx.open(b)
			buf := make([]pairs.Pair, 512)
			var delivered int64
			drain := func() {
				s, err := engine.OpenStream(context.Background(), q, StreamOptions{})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				for {
					n, done, err := s.Next(buf)
					if err != nil {
						b.Fatal(err)
					}
					delivered += int64(n)
					if done {
						return
					}
				}
			}
			drain() // builds and caches the shared structures
			delivered = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drain()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(delivered), "ns/pair")
		})
	}
}
