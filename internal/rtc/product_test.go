package rtc

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/tc"
)

// productOracle builds the RTC of r on g both ways — from R's product
// graph, and by Compute over G_R = EdgeReduceRel(R_G) — and fails unless
// they describe the same reduced structure (sameReduction), and still do
// after InsertEdges grows both by the same two G_R edges. The
// product-built condensation must stay in Tarjan's reverse topological
// order.
func productOracle(t *testing.T, g *graph.Graph, r rpq.Expr) {
	t.Helper()
	n := g.NumVertices()
	want := Compute(edgeReduce(g, r), BFSClosure)
	got, err := FromProduct(g, r, nil)
	if err != nil {
		t.Fatalf("R=%q: %v", r, err)
	}
	got.Condensation().Edges(func(s, t2 graph.VID) bool {
		if t2 > s {
			t.Fatalf("R=%q: condensation edge %d→%d breaks Tarjan's order", r, s, t2)
		}
		return true
	})
	sameReduction(t, n, got, want, fmt.Sprintf("R=%q", r))
	delta := []pairs.Pair{{Src: 0, Dst: graph.VID(n - 1)}, {Src: graph.VID(n / 2), Dst: 0}}
	sameReduction(t, n, got.InsertEdges(delta), want.InsertEdges(delta), fmt.Sprintf("R=%q + %v", r, delta))
}

// sameReduction fails unless two RTCs over n vertices agree on V_R, the
// SCC partition of V_R, |V̄_R|, NumSharedPairs, ExpandedSize and Expand,
// and both reach tables match a closure of their own condensation.
func sameReduction(t *testing.T, n int, got, want *RTC, ctx string) {
	t.Helper()
	// V_R and the partition: a want SID maps to exactly one got SID, with
	// the same members.
	image := make(map[int32]int32)
	for v := graph.VID(0); int(v) < n; v++ {
		ws, gs := want.CompOf(v), got.CompOf(v)
		if (ws < 0) != (gs < 0) {
			t.Fatalf("%s: vertex %d in V_R: %v, want %v", ctx, v, gs >= 0, ws >= 0)
		}
		if ws < 0 {
			continue
		}
		if prev, ok := image[ws]; ok && prev != gs {
			t.Fatalf("%s: vertex %d splits the SCC %v", ctx, v, want.Members(ws))
		}
		image[ws] = gs
		if !slices.Equal(got.Members(gs), want.Members(ws)) {
			t.Fatalf("%s: SCC of %d is %v, want %v", ctx, v, got.Members(gs), want.Members(ws))
		}
	}
	if g, w := got.NumReducedVertices(), want.NumReducedVertices(); g != w {
		t.Fatalf("%s: |V̄_R| = %d, want %d", ctx, g, w)
	}
	if g, w := got.NumSharedPairs(), want.NumSharedPairs(); g != w {
		t.Fatalf("%s: NumSharedPairs = %d, want %d", ctx, g, w)
	}
	if g, w := got.ExpandedSize(), want.ExpandedSize(); g != w {
		t.Fatalf("%s: ExpandedSize = %d, want %d", ctx, g, w)
	}
	if g, w := got.Expand(), want.Expand(); !g.Equal(w) {
		t.Fatalf("%s: Expand has %d pairs, want %d", ctx, g.Len(), w.Len())
	}
	checkReachTable(t, want, ctx+" (want)")
	checkReachTable(t, got, ctx)
}

// checkReachTable holds an RTC's reach table to the member-bearing part
// of a full closure of its condensation: the list when it has at most
// LightReach entries, heavy otherwise.
func checkReachTable(t *testing.T, r *RTC, ctx string) {
	t.Helper()
	full := tc.BFS(r.Condensation())
	for s := int32(0); int(s) < r.Condensation().NumVertices(); s++ {
		var want []int32
		for _, u := range full.From(s) {
			if len(r.Members(u)) > 0 {
				want = append(want, u)
			}
		}
		got, ok := r.BoundedReach(s)
		if ok != (len(want) <= LightReach) {
			t.Fatalf("%s: component %d reaches %d members, light = %v", ctx, s, len(want), ok)
		}
		if ok && !slices.Equal(slices.Sorted(slices.Values(got)), want) {
			t.Fatalf("%s: component %d lists %v, want %v", ctx, s, got, want)
		}
	}
}

// productLabels are the labels the oracle's graphs and queries draw from.
var productLabels = []string{"a", "b", "c"}

// TestFromProductMatchesCompute runs the oracle on 3,600 cases: over 200
// random graphs, the fixed R — closures nested under R, ε in R, inverse
// labels, a label absent from the graph — and 12 R drawn by
// rpq.RandomExpr2RPQ.
func TestFromProductMatchesCompute(t *testing.T) {
	fixed := []string{"(a?)+", "(a*)+", "c.(^a.b)*", "(a.b*.c)+", "a.zz", "b.c"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 1+rng.Intn(32), rng.Intn(70), productLabels)
		for _, q := range fixed {
			productOracle(t, g, rpq.MustParse(q))
		}
		for i := 0; i < 12; i++ {
			productOracle(t, g, rpq.RandomExpr2RPQ(rng, productLabels, 3))
		}
	}
	productOracle(t, fixtures.Figure1(), rpq.MustParse("b.c"))
}

// FuzzFromProduct is the same oracle over decoded inputs: the seed draws
// R (rpq.RandomExpr2RPQ, depth 3), the first byte sizes the graph (at
// most 32 vertices) and every further three bytes are one labeled edge.
func FuzzFromProduct(f *testing.F) {
	f.Add(int64(1), []byte{5, 0, 0, 1, 1, 1, 2, 2, 2, 0})
	f.Add(int64(7), []byte{31, 3, 1, 4, 4, 2, 3, 3, 0, 3, 9, 1, 30})
	f.Add(int64(42), []byte{0})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		n := 1
		if len(data) > 0 {
			n += int(data[0]) % 32
			data = data[1:]
		}
		b := graph.NewBuilder(n)
		for _, l := range productLabels {
			b.Dict().Intern(l)
		}
		for ; len(data) >= 3; data = data[3:] {
			b.MustAddEdge(graph.VID(int(data[0])%n), productLabels[int(data[1])%len(productLabels)], graph.VID(int(data[2])%n))
		}
		productOracle(t, b.Build(), rpq.RandomExpr2RPQ(rand.New(rand.NewSource(seed)), productLabels, 3))
	})
}

// TestFromProductCheckpoint: a checkpoint error aborts the build with
// that error and no RTC.
func TestFromProductCheckpoint(t *testing.T) {
	g := fixtures.Figure1()
	stop := errors.New("stop")
	calls := 0
	r, err := FromProduct(g, rpq.MustParse("b.c"), func(int) error {
		if calls++; calls == 3 {
			return stop
		}
		return nil
	})
	if err != stop || r != nil {
		t.Fatalf("FromProduct = %v, %v; want nil, the checkpoint's error", r, err)
	}
}

// labelChain is n vertices joined by a-edges i → i+1, closed into a
// ring when ring is set.
func labelChain(n int, ring bool) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.MustAddEdge(graph.VID(i), "a", graph.VID(i+1))
	}
	if ring {
		b.MustAddEdge(graph.VID(n-1), "a", 0)
	}
	return b.Build()
}

// TestFromProductCheckpointInsideComponent: the product of a 4,096-vertex
// a-ring with R = a is one SCC of 8,192 copies, and a checkpoint that
// fails on its second call still aborts the build: FromProduct polls per
// entered copy, not per closed component.
func TestFromProductCheckpointInsideComponent(t *testing.T) {
	g := labelChain(4096, true)
	stop := errors.New("stop")
	calls := 0
	r, err := FromProduct(g, rpq.MustParse("a"), func(int) error {
		if calls++; calls == 2 {
			return stop
		}
		return nil
	})
	if err != stop || r != nil || calls != 2 {
		t.Fatalf("FromProduct = %v, %v after %d calls; want nil, the checkpoint's error after 2", r, err, calls)
	}
}

// TestFromProductPollsOnEntry: the product of a 2^15-vertex a-ring with
// R = a is one SCC of 2^16 copies that the DFS descends in one path. A
// checkpoint that fails on its first call must stop the walk before it
// goes deeper, so the build allocates little beyond its per-copy
// arrays. Polling only once a copy is left would walk the whole ring
// first, growing Tarjan's frames to 2^16 entries: over 30 bytes a copy.
func TestFromProductPollsOnEntry(t *testing.T) {
	const n = 1 << 15
	g := labelChain(n, true)
	r := rpq.MustParse("a")
	stop := errors.New("stop")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	built, err := FromProduct(g, r, func(int) error { return stop })
	runtime.ReadMemStats(&after)
	if err != stop || built != nil {
		t.Fatalf("FromProduct = %v, %v; want nil, the checkpoint's error", built, err)
	}
	// The DFS numbers take 4 bytes a copy and the in-edge flags 1 byte a
	// vertex: 9 bytes per ring vertex.
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 16*n {
		t.Fatalf("an abort on the first poll allocated %d bytes, want at most %d", bytes, 16*n)
	}
}

// TestFromProductAllocsIndependentOfComponents: on a 4,096-vertex a-path
// with R = a, which leaves 4,096 components after compaction, a build
// allocates a bounded number of times, not once or more per component.
func TestFromProductAllocsIndependentOfComponents(t *testing.T) {
	g := labelChain(4096, false)
	r := rpq.MustParse("a")
	built, err := FromProduct(g, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k := built.Components().NumComponents(); k != 4096 {
		t.Fatalf("%d components, want 4096", k)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := FromProduct(g, r, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 512 {
		t.Fatalf("FromProduct allocates %.0f times, want under 512", allocs)
	}
}

// TestClosureBuiltOnceConcurrently: RTCs are shared across goroutines
// and TC(Ḡ_R) is built lazily, so concurrent first calls to the size
// accessors must build it once and agree (run under -race).
func TestClosureBuiltOnceConcurrently(t *testing.T) {
	g := fixtures.Figure1()
	r, err := FromProduct(g, rpq.MustParse("b.c"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	closures := make([]*tc.Closure, 8)
	for i := range closures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.NumSharedPairs() != 3 || r.ExpandedSize() != 10 || !r.Reachable(2, 6) {
				t.Error("wrong sizes from a concurrent first use")
			}
			closures[i] = r.Closure()
		}()
	}
	wg.Wait()
	for _, c := range closures[1:] {
		if c != closures[0] {
			t.Fatal("TC(Ḡ_R) built more than once")
		}
	}
}

// TestFromProductHoldsKeptComponents: on RMAT_3 at 2^11 vertices, the
// live heap an RTC holds is its columns and nothing sized by R's product
// graph — 4 bytes per vertex of G, per member, per condensation edge and
// per reach-table entry, 8 per kept component for the member and
// successor offsets and 8 more for its reach span — within 2.5 KiB for
// the struct and allocation rounding, which take 1.1–2.0 KB here. A
// member-offset column sized to the product's components, 4 bytes per
// component compaction drops, holds 3.1–4.4 KB over the columns and
// fails. The heap is read after two collections with the RTC referenced
// and again without it. About one reading in ten comes out 5 KB low
// (the runtime allocated between the two), none high, so the largest of
// three builds is what an RTC holds. Not parallel: another test's
// garbage would be counted.
func TestFromProductHoldsKeptComponents(t *testing.T) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, q := range []string{"l1", "l0.l2", "l3.l1.l3"} {
		var held int64
		var k, members, edges, reach int
		for range 3 {
			r, err := FromProduct(g, rpq.MustParse(q), nil)
			if err != nil {
				t.Fatal(err)
			}
			with := live()
			k, members, edges, reach = r.NumComponents(), r.NumActiveVertices(), len(r.cond.at), len(r.reach.sids)
			runtime.KeepAlive(r)
			held = max(held, with-live())
		}
		bound := int64(4*g.NumVertices()+4*members+4*edges+4*reach+16*k+8) + 2560
		t.Logf("%s: %d components, %d members, %d edges, %d reach entries: %d bytes held, bound %d", q, k, members, edges, reach, held, bound)
		if held > bound {
			t.Errorf("%s: the RTC holds %d bytes, want at most %d", q, held, bound)
		}
	}
	runtime.KeepAlive(g)
}
