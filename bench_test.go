// Microbenchmarks, one per layer function the repository benchmark's
// replay pins (benchmark/README.md, "Public functions the replay pins"),
// each named Benchmark<Layer>_<Metric> after the `layer.metric` of the
// traced run it explains — so `go test -bench` and
// `bash benchmark/run.sh -trace 1` share a vocabulary. They time one
// call on the paper's batch-unit shape Pre.R+.Post over RMAT_3; the
// end-to-end numbers come from the benchmark, not from here.
//
// Run with: go test -run=NONE -bench=. -benchmem .
package rtcshare_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// layerFixture is the batch unit l3.(l0.l1)+.l2 over RMAT_3 at 2^8
// vertices, taken apart the way the replay takes a query apart: the
// sealed side relation Pre_G, the edge-level reduced graph G_R and the
// Post expression.
type layerFixture struct {
	g    *graph.Graph
	r    rpq.Expr
	post rpq.Expr
	preG *pairs.Relation
	gr   *graph.DiGraph
}

func newLayerFixture(b *testing.B) layerFixture {
	b.Helper()
	g, err := datagen.PaperRMATN(3, 8, 2022)
	if err != nil {
		b.Fatal(err)
	}
	seal := func(q rpq.Expr) *pairs.Relation {
		bld := pairs.NewBuilder(g.NumVertices())
		eval.New(g, q, eval.Options{}).AppendAll(bld)
		return bld.Seal()
	}
	fx := layerFixture{g: g, r: rpq.MustParse("l0.l1"), post: rpq.MustParse("l2")}
	fx.preG = seal(rpq.MustParse("l3"))
	fx.gr = rtc.EdgeReduceRel(g.NumVertices(), seal(fx.r))
	return fx
}

// BenchmarkEval_RG explains eval.rg_ns: the automaton-product search,
// 64 start vertices at a time, that evaluates the closure body R into a
// builder.
func BenchmarkEval_RG(b *testing.B) {
	fx := newLayerFixture(b)
	bld := pairs.NewBuilder(fx.g.NumVertices())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Reset()
		eval.New(fx.g, fx.r, eval.Options{}).AppendAll(bld)
	}
}

// BenchmarkPairs_Seal explains pairs.seal_ns: sorting and deduplicating
// R_G's rows into the sealed columns.
func BenchmarkPairs_Seal(b *testing.B) {
	fx := newLayerFixture(b)
	bld := pairs.NewBuilder(fx.g.NumVertices())
	ev := eval.New(fx.g, fx.r, eval.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ev.AppendAll(bld)
		b.StartTimer()
		bld.Seal()
	}
}

// BenchmarkPairs_Page explains pairs.page_ns: one 1000-pair page from
// the middle of a sealed result (the full closure of G_R, as a relation).
func BenchmarkPairs_Page(b *testing.B) {
	fx := newLayerFixture(b)
	bld := pairs.NewBuilder(fx.g.NumVertices())
	tc.BFS(fx.gr).Each(func(u, w graph.VID) bool {
		bld.Add(u, w)
		return true
	})
	rel := bld.Seal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel.Page(rel.Len()/2, 1000)
	}
}

// BenchmarkPairs_PageShared is BenchmarkPairs_Page over the same pairs
// as the RTC kernel seals them: R+ answered by RTCSharing, whose sources
// in one component share one stored row.
func BenchmarkPairs_PageShared(b *testing.B) {
	fx := newLayerFixture(b)
	rel, err := core.New(fx.g, core.Options{Strategy: core.RTCSharing}).EvaluateRel(rpq.Plus{Sub: fx.r})
	if err != nil {
		b.Fatal(err)
	}
	if rel.ColumnBytes() >= 4*int64(rel.Len()) {
		b.Fatalf("%d pairs in %d column bytes: no row is shared", rel.Len(), rel.ColumnBytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel.Page(rel.Len()/2, 1000)
	}
}

// BenchmarkSCC_Tarjan explains scc.tarjan_ns.
func BenchmarkSCC_Tarjan(b *testing.B) {
	fx := newLayerFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scc.Tarjan(fx.gr)
	}
}

// BenchmarkSCC_Condense explains scc.condense_ns.
func BenchmarkSCC_Condense(b *testing.B) {
	fx := newLayerFixture(b)
	comps := scc.Tarjan(fx.gr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scc.Condense(fx.gr, comps)
	}
}

// BenchmarkTC_FullClosure explains tc.full_closure_ns: TC(G_R), the
// structure FullSharing and NoSharing build (Table III's left column).
func BenchmarkTC_FullClosure(b *testing.B) {
	fx := newLayerFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closure := tc.BFS(fx.gr)
		b.ReportMetric(float64(closure.NumPairs()), "pairs")
	}
}

// BenchmarkTC_FullClosurePaper is tc.full_closure_ns at paper-batch's
// scale: TC(G_R) for three closure bodies R over its RMAT_3 graph at
// 2^11 vertices, seed 1, G_R built the way the engine builds it. The
// fourth case, a 2^12-vertex directed cycle, is the sparse guard: every
// level of its closure stays top-down. (At 2^14 vertices its 2^28 pairs
// take 1 GB and about 10 s per op.)
func BenchmarkTC_FullClosurePaper(b *testing.B) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, gr *graph.DiGraph) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tc.BFS(gr)
			}
		})
	}
	for _, q := range []string{"l1", "l0.l2", "l3.l1.l3"} {
		bld := pairs.NewBuilder(g.NumVertices())
		eval.New(g, rpq.MustParse(q), eval.Options{}).AppendAll(bld)
		run(q, rtc.EdgeReduceRel(g.NumVertices(), bld.Seal()))
	}
	const n = 1 << 12
	ring := graph.NewDiBuilder(n)
	for i := 0; i < n; i++ {
		ring.AddEdge(graph.VID(i), graph.VID((i+1)%n))
	}
	run("ring", ring.Build())
}

// BenchmarkRTC_Compute explains rtc.compute_ns: Tarjan, condensation and
// the reach table over G_R, with the zero-value algorithm; the metric
// builds TC(Ḡ_R) (Table III's right column) outside the timer.
func BenchmarkRTC_Compute(b *testing.B) {
	fx := newLayerFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		structure := rtc.Compute(fx.gr, 0)
		b.StopTimer()
		b.ReportMetric(float64(structure.NumSharedPairs()), "pairs")
		b.StartTimer()
	}
}

// BenchmarkRTC_FromProduct is the structure RTCSharing builds instead:
// the same RTC from R's product graph, R_G never evaluated — so its time
// stands for eval.rg_ns, rtc.edge_reduce_ns and rtc.compute_ns together.
func BenchmarkRTC_FromProduct(b *testing.B) {
	fx := newLayerFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		structure, err := rtc.FromProduct(fx.g, fx.r, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(structure.NumComponents()), "components")
	}
}

// BenchmarkRTC_FromProductPaper explains core.shared_data_ns.rtc: one
// cold FromProduct per closure body R of paper-batch at seed 1, over its
// RMAT_3 graph at 2^11 vertices.
func BenchmarkRTC_FromProductPaper(b *testing.B) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{"l1", "l0.l2", "l3.l1.l3"} {
		r := rpq.MustParse(q)
		b.Run(q, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := rtc.FromProduct(g, r, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCore_Join explains core.join_ns: Algorithm 2's
// Pre_G ⋈ R̄+ ⋈ Post on prebuilt inputs.
func BenchmarkCore_Join(b *testing.B) {
	fx := newLayerFixture(b)
	structure := rtc.Compute(fx.gr, 0)
	engine := core.New(fx.g, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := engine.EvalBatchUnit(fx.preG, structure, rpq.ClosurePlus, fx.post)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rel.Len()), "rows_out")
	}
}

// BenchmarkCore_JoinPaper explains core.pre_join_ns.rtc plus
// core.remainder_ns.rtc: Algorithm 2's join, one sub-benchmark per
// paper-batch query at seed 1, on prebuilt inputs over its RMAT_3 graph
// at 2^11 vertices — Pre_G sealed, the RTC built by rtc.FromProduct as
// RTCSharing builds it. Every Post is one label.
func BenchmarkCore_JoinPaper(b *testing.B) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		b.Fatal(err)
	}
	engine := core.New(g, core.Options{})
	for _, q := range []struct{ pre, r, post string }{
		{"l3", "l1", "l3"}, {"l3", "l1", "l1"}, {"l0", "l1", "l1"}, {"l2", "l1", "l2"},
		{"l0", "l0.l2", "l3"}, {"l3", "l0.l2", "l3"}, {"l2", "l0.l2", "l0"}, {"l3", "l0.l2", "l1"},
		{"l0", "l3.l1.l3", "l2"}, {"l3", "l3.l1.l3", "l1"}, {"l1", "l3.l1.l3", "l1"}, {"l1", "l3.l1.l3", "l3"},
	} {
		bld := pairs.NewBuilder(g.NumVertices())
		eval.New(g, rpq.MustParse(q.pre), eval.Options{}).AppendAll(bld)
		preG := bld.Seal()
		structure, err := rtc.FromProduct(g, rpq.MustParse(q.r), nil)
		if err != nil {
			b.Fatal(err)
		}
		post := rpq.MustParse(q.post)
		b.Run(q.pre+".("+q.r+")+."+q.post, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := engine.EvalBatchUnit(preG, structure, rpq.ClosurePlus, post); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCore_JoinSparse is core.join_ns at the other extreme:
// a.b+.c over 2^20 vertices of which a few hundred have edges
// (fixtures.SparseChains), 310 result pairs. Its ns/op and B/op must
// follow the output, not |V|; TestRowKernelSparseMemoryGate holds B/op
// under 16 MiB.
func BenchmarkCore_JoinSparse(b *testing.B) {
	const numV = 1 << 20
	g := fixtures.SparseChains(numV, 10, 32)
	seal := func(q string) *pairs.Relation {
		bld := pairs.NewBuilder(numV)
		eval.New(g, rpq.MustParse(q), eval.Options{}).AppendAll(bld)
		return bld.Seal()
	}
	preG := seal("a")
	structure := rtc.Compute(rtc.EdgeReduceRel(numV, seal("b")), 0)
	post := rpq.MustParse("c")
	engine := core.New(g, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := engine.EvalBatchUnit(preG, structure, rpq.ClosurePlus, post)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rel.Len()), "rows_out")
	}
}

// BenchmarkGraph_Freeze explains graph.freeze_ns: one update of batch
// edges over RMAT_3 at 2^scale vertices, spread over the four labels,
// each inserted if absent and deleted if present, then Freeze. The
// edges cycle through a fixed pool of eight batches, so the graph keeps
// its size. s11/b8 is serve-churn's update; s16/b8 the same batch on a
// graph 32 times larger, where copying the touched labels' columns is
// the cost; s11/b4096 a batch rewriting about a sixth of the edges,
// where sorting the edits is.
func BenchmarkGraph_Freeze(b *testing.B) {
	for _, c := range []struct{ scale, batch int }{{11, 8}, {16, 8}, {11, 4096}} {
		b.Run(fmt.Sprintf("s%d/b%d", c.scale, c.batch), func(b *testing.B) {
			g, err := datagen.PaperRMATN(3, c.scale, 1)
			if err != nil {
				b.Fatal(err)
			}
			labels := g.Dict().Names()
			rng := rand.New(rand.NewSource(1))
			pool := make([]graph.Edge, 8*c.batch)
			for i := range pool {
				pool[i] = graph.Edge{Src: graph.VID(rng.Intn(g.NumVertices())), Label: graph.LID(i % len(labels)), Dst: graph.VID(rng.Intn(g.NumVertices()))}
			}
			m := graph.MutableFromGraph(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, e := range pool[i*c.batch%len(pool):][:c.batch] {
					label := labels[e.Label]
					var err error
					if m.HasEdge(e.Src, label, e.Dst) {
						_, err = m.DeleteEdge(e.Src, label, e.Dst)
					} else {
						_, err = m.InsertEdge(e.Src, label, e.Dst)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				m.Freeze()
			}
		})
	}
}

// BenchmarkCore_JoinFull explains the trace's core.join_full span: the
// same join at vertex-pair level over the full closure.
func BenchmarkCore_JoinFull(b *testing.B) {
	fx := newLayerFixture(b)
	closure := tc.BFS(fx.gr)
	engine := core.New(fx.g, core.Options{Strategy: core.FullSharing})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel, err := engine.EvalBatchUnitFull(fx.preG, closure, rpq.ClosurePlus, fx.post)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rel.Len()), "rows_out")
	}
}

// BenchmarkCore_JoinFullPaper explains core.pre_join_ns.full (and .none):
// the pair-level join of FullSharing and NoSharing, one sub-benchmark per
// paper-batch query at seed 1, on prebuilt inputs over its RMAT_3 graph
// at 2^11 vertices — Pre_G sealed, TC(G_R) built by tc.BFS over G_R as
// the engine builds it. Every Post is one label.
func BenchmarkCore_JoinFullPaper(b *testing.B) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		b.Fatal(err)
	}
	engine := core.New(g, core.Options{Strategy: core.FullSharing})
	seal := func(q string) *pairs.Relation {
		bld := pairs.NewBuilder(g.NumVertices())
		eval.New(g, rpq.MustParse(q), eval.Options{}).AppendAll(bld)
		return bld.Seal()
	}
	closures := map[string]*tc.Closure{}
	for _, q := range []struct{ pre, r, post string }{
		{"l3", "l1", "l3"}, {"l3", "l1", "l1"}, {"l0", "l1", "l1"}, {"l2", "l1", "l2"},
		{"l0", "l0.l2", "l3"}, {"l3", "l0.l2", "l3"}, {"l2", "l0.l2", "l0"}, {"l3", "l0.l2", "l1"},
		{"l0", "l3.l1.l3", "l2"}, {"l3", "l3.l1.l3", "l1"}, {"l1", "l3.l1.l3", "l1"}, {"l1", "l3.l1.l3", "l3"},
	} {
		closure, ok := closures[q.r]
		if !ok {
			closure = tc.BFS(rtc.EdgeReduceRel(g.NumVertices(), seal(q.r)))
			closures[q.r] = closure
		}
		preG, post := seal(q.pre), rpq.MustParse(q.post)
		b.Run(q.pre+".("+q.r+")+."+q.post, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := engine.EvalBatchUnitFull(preG, closure, rpq.ClosurePlus, post); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCore_AutomatonPaper explains eval.rg_ns as the engine pays
// it: closure-free clauses sealed cold, on a fresh engine per iteration
// — paper-batch's two closure-free R at 2^11 vertices, seed 1, whose
// R_G the baselines evaluate before building TC(G_R), and, at 2^14,
// l2.(l0.l1).(l0.l1)*.l3, whose closure-free Pre l2.l0.l1 is searched
// from its candidate starts.
func BenchmarkCore_AutomatonPaper(b *testing.B) {
	for _, c := range []struct {
		scale int
		q     string
	}{{11, "l0.l2"}, {11, "l3.l1.l3"}, {14, "l2.(l0.l1).(l0.l1)*.l3"}} {
		g, err := datagen.PaperRMATN(3, c.scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("2^%d:%s", c.scale, c.q), func(b *testing.B) {
			rel := benchCold(b, g, c.q)
			b.ReportMetric(float64(rel.Len()), "pairs")
		})
	}
}

// unionQueries are single-clause batch units and two-clause unions of
// them over one closure l1+: an alternation in Pre, a top-level `|`, an
// alternation in Post and a `?` outside the closure each make a DNF of
// two clauses.
var unionQueries = []string{
	"l2.(l1)+.l0", "l3.(l1)+.l0",
	"(l2|l3).(l1)+.l0", "l2.(l1)+.l0|l3.(l1)+.l0", "l2.(l1)+.(l0|l3)", "l2.(l1)+.l0.l3?",
}

// BenchmarkUnion times a cold RTCSharing evaluation, on a fresh engine
// per iteration, of each of unionQueries over RMAT_3 at 2^11 vertices:
// the structure build, the clauses' joins and, for a union, the drain
// that ORs the clauses' runs per source. column_bytes is the result's
// ColumnBytes, the memory a memoised result holds.
func BenchmarkUnion(b *testing.B) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range unionQueries {
		b.Run(q, func(b *testing.B) {
			rel := benchCold(b, g, q)
			b.ReportMetric(float64(rel.ColumnBytes()), "column_bytes")
			b.ReportMetric(float64(rel.Len()), "pairs")
		})
	}
}

// BenchmarkCore_SealScale explains server.seal_ns at scale: a cold
// RTCSharing evaluation, on a fresh engine per iteration, over RMAT_3 at
// 2^14 vertices, of a batch unit whose sources mostly share one stored
// row, a closure whose runs have many parts, and a union of two such
// clauses. col_bytes is the result's ColumnBytes: a run repeated across
// sources is written once, so it follows the distinct runs, not the
// pairs.
func BenchmarkCore_SealScale(b *testing.B) {
	g, err := datagen.PaperRMATN(3, 14, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []string{"l2.(l1)+.l0", "(l0|l1)+", "(l2|l3).(l1)+.l0"} {
		b.Run(q, func(b *testing.B) {
			rel := benchCold(b, g, q)
			b.ReportMetric(float64(rel.ColumnBytes()), "col_bytes")
		})
	}
}

// benchCold times a cold RTCSharing evaluation of q over g, on a fresh
// engine per iteration, and returns the last result.
func benchCold(b *testing.B, g *graph.Graph, q string) *pairs.Relation {
	b.Helper()
	expr := rpq.MustParse(q)
	b.ReportAllocs()
	var rel *pairs.Relation
	for b.Loop() {
		var err error
		if rel, err = core.New(g, core.Options{}).EvaluateRel(expr); err != nil {
			b.Fatal(err)
		}
	}
	return rel
}
