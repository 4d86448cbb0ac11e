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

// BenchmarkEval_RG explains eval.rg_ns: the automaton-product traversal
// that evaluates the closure body R into a builder.
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

// BenchmarkRTC_Compute explains rtc.compute_ns: Tarjan, condensation and
// TC(Ḡ_R) with the zero-value algorithm (Table III's right column).
func BenchmarkRTC_Compute(b *testing.B) {
	fx := newLayerFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		structure := rtc.Compute(fx.gr, 0)
		b.ReportMetric(float64(structure.NumSharedPairs()), "pairs")
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
