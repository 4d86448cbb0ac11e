package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// This file is the row kernel's own oracle suite: the forward RTC join
// (rowkernel.go) against the pair-level join over the full closure and
// against the compositional reference evaluator, through both of its
// drivers, plus its memory and cancellation gates.

// sealExpr evaluates e on g by automaton traversal into a sealed
// relation.
func sealExpr(g *graph.Graph, e rpq.Expr) *pairs.Relation {
	b := pairs.NewBuilder(g.NumVertices())
	eval.New(g, e, eval.Options{}).AppendAll(b)
	return b.Seal()
}

// kernelCase is one batch unit Pre·R{+,*}·Post over one graph, with the
// structures the joins take: the RTC computed from scratch and the full
// closure.
type kernelCase struct {
	name      string
	g         *graph.Graph
	pre, post rpq.Expr
	r         rpq.Expr
	typ       rpq.ClosureType

	preG     *pairs.Relation
	computed *rtc.RTC
	full     *tc.Closure
}

func newKernelCase(name string, g *graph.Graph, pre, r, post rpq.Expr, typ rpq.ClosureType) kernelCase {
	n := g.NumVertices()
	gr := rtc.EdgeReduceRel(n, sealExpr(g, r))
	computed := rtc.Compute(gr, 0)
	return kernelCase{
		name: name, g: g, pre: pre, r: r, post: post, typ: typ,
		preG:     sealExpr(g, pre),
		computed: computed,
		full:     tc.BFS(gr),
	}
}

func (c kernelCase) query() rpq.Expr {
	closure := rpq.Expr(rpq.Plus{Sub: c.r})
	if c.typ == rpq.ClosureStar {
		closure = rpq.Star{Sub: c.r}
	}
	return rpq.NewConcat(c.pre, closure, c.post)
}

// kernelCases crosses random RMAT graphs with Pre/R/Post shapes, both
// closure types and ε and non-ε Post — Pre-ends inside and outside V_R,
// an empty Pre, SCCs from giant to singleton, and a label Post read
// forward, inverse (^l2) and absent from the graph (zz) — and adds a hand-built
// graph holding every component shape by construction: a singleton with
// a self-loop, one without, a two-member SCC, a sink, and Pre-ends off
// V_R.
func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	eps := rpq.Expr(rpq.Epsilon{})
	l := func(s string) rpq.Expr { return rpq.MustParse(s) }
	var cases []kernelCase
	for seed := int64(0); seed < 4; seed++ {
		n := 60 + 20*int(seed)
		g, err := datagen.RMAT(datagen.RMATConfig{Vertices: n, Edges: n * (2 + int(seed)), Labels: 3, Seed: 500 + seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range []struct{ pre, r, post rpq.Expr }{
			{l("l0"), l("l1"), eps},
			{l("l0"), l("l1"), l("l2")},
			{l("l0"), l("l1"), l("^l2")},
			{l("l0"), l("l1"), l("zz")},
			{eps, l("l1.l2"), l("l0")},
			{l("l2"), l("l0|l1"), l("l1.l0")},
			{l("zz"), l("l1"), l("l2")}, // empty Pre
		} {
			for _, typ := range []rpq.ClosureType{rpq.ClosurePlus, rpq.ClosureStar} {
				name := fmt.Sprintf("rmat%d/%s.(%s)%s.%s", seed, shape.pre, shape.r, typ, shape.post)
				cases = append(cases, newKernelCase(name, g, shape.pre, shape.r, shape.post, typ))
			}
		}
	}

	// r: 1↺, 1→2, {2,3}, 3→4, 4→5 (sink); p: Pre-ends in every shape
	// and off V_R (6, 9); q: the Post.
	b := graph.NewBuilder(10)
	for _, e := range [][2]graph.VID{{1, 1}, {1, 2}, {2, 3}, {3, 2}, {3, 4}, {4, 5}} {
		b.MustAddEdge(e[0], "r", e[1])
	}
	for _, e := range [][2]graph.VID{{0, 1}, {0, 4}, {0, 6}, {7, 2}, {8, 5}, {8, 9}, {6, 4}} {
		b.MustAddEdge(e[0], "p", e[1])
	}
	for _, e := range [][2]graph.VID{{1, 9}, {2, 9}, {4, 0}, {5, 8}, {6, 7}, {9, 9}} {
		b.MustAddEdge(e[0], "q", e[1])
	}
	shapes := b.Build()
	for _, post := range []rpq.Expr{eps, l("q")} {
		for _, typ := range []rpq.ClosureType{rpq.ClosurePlus, rpq.ClosureStar} {
			name := fmt.Sprintf("shapes/p.(r)%s.%s", typ, post)
			cases = append(cases, newKernelCase(name, shapes, l("p"), l("r"), post, typ))
		}
	}
	return cases
}

// kernelSeal runs the sealed driver with the row budget replaced, so
// the fallback through the closure answers every component it reaches
// once the budget is spent.
func kernelSeal(t *testing.T, call *evalCall, c kernelCase, structure *rtc.RTC, budget int) *pairs.Relation {
	t.Helper()
	k := call.acquireKernel(c.preG, structure, c.typ, c.post)
	defer call.releaseKernel(k)
	k.budget = budget
	rel, err := call.drain(k)
	if err != nil {
		t.Fatalf("%s: sealed driver: %v", c.name, err)
	}
	return rel
}

// kernelStream drives the kernel the way ResultStream does — one source
// at a time into the caller's accumulator — and collects the runs.
func kernelStream(t *testing.T, call *evalCall, c kernelCase, structure *rtc.RTC) *pairs.Relation {
	t.Helper()
	k := call.acquireKernel(c.preG, structure, c.typ, c.post)
	defer call.releaseKernel(k)
	n := c.g.NumVertices()
	acc := pairs.NewRunAccumulator(n)
	b := pairs.NewBuilder(n)
	c.preG.EachSrc(func(vi graph.VID, vjs []graph.VID) bool {
		if _, err := k.gather(vjs); err != nil {
			t.Fatalf("%s: stream gather: %v", c.name, err)
		}
		if err := k.orRun(acc); err != nil {
			t.Fatalf("%s: stream run: %v", c.name, err)
		}
		idx, words := acc.DrainWords(nil, nil)
		for i, wi := range idx {
			for _, vk := range pairs.AppendWordBits(nil, wi, words[i]) {
				b.Add(vi, vk)
			}
		}
		return true
	})
	return b.Seal()
}

// TestRowKernelDifferential: for every case, EvalBatchUnit's answer
// over the computed RTC equals the pair-level join over TC(G_R), the
// reference evaluator, the sealed driver with no row budget (everything
// answered through the closure) and the per-source stream driver.
func TestRowKernelDifferential(t *testing.T) {
	for _, c := range kernelCases(t) {
		e := New(c.g, Options{})
		want, err := e.EvalBatchUnitFull(c.preG, c.full, c.typ, c.post)
		if err != nil {
			t.Fatalf("%s: full join: %v", c.name, err)
		}
		ref := eval.Reference(c.g, c.query())
		if !want.EqualSet(ref) {
			t.Fatalf("%s: full join %d pairs, reference %d — the oracles disagree", c.name, want.Len(), ref.Len())
		}
		got, err := e.EvalBatchUnit(c.preG, c.computed, c.typ, c.post)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: kernel %d pairs, full join %d", c.name, got.Len(), want.Len())
		}
		if fb := kernelSeal(t, e.call(nil, nil), c, c.computed, 0); !fb.Equal(want) {
			t.Errorf("%s: closure fallback %d pairs, full join %d", c.name, fb.Len(), want.Len())
		}
		if st := kernelStream(t, e.call(nil, nil), c, c.computed); !st.Equal(got) {
			t.Errorf("%s: stream driver %d pairs, sealed %d", c.name, st.Len(), got.Len())
		}
	}
}

// TestRowKernelProductDifferential: the kernel over an RTC built from
// R's product graph — intermediate components without members, spliced
// pass-throughs — answers every kernel case exactly as over Compute's
// RTC and as the reference evaluator: EvalBatchUnit, the sealed driver
// with no row budget (every component a fallback DFS) and the
// per-source driver. A full OpenStream drain of the case's query, which
// the engine answers from its own product-built RTC, matches at
// buffers 1 and 7.
func TestRowKernelProductDifferential(t *testing.T) {
	withIntermediates := 0
	for _, c := range kernelCases(t) {
		e := New(c.g, Options{})
		product, err := rtc.FromProduct(c.g, c.r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if product.Condensation().NumVertices() > product.NumReducedVertices() {
			withIntermediates++
		}
		want, err := e.EvalBatchUnit(c.preG, c.computed, c.typ, c.post)
		if err != nil {
			t.Fatalf("%s computed: %v", c.name, err)
		}
		ref := eval.Reference(c.g, c.query())
		if !want.EqualSet(ref) {
			t.Fatalf("%s: kernel over Compute %d pairs, reference %d", c.name, want.Len(), ref.Len())
		}
		got, err := e.EvalBatchUnit(c.preG, product, c.typ, c.post)
		if err != nil {
			t.Fatalf("%s product: %v", c.name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: kernel over the product %d pairs, over Compute %d", c.name, got.Len(), want.Len())
		}
		if fb := kernelSeal(t, e.call(nil, nil), c, product, 0); !fb.Equal(want) {
			t.Errorf("%s: product fallback %d pairs, want %d", c.name, fb.Len(), want.Len())
		}
		if st := kernelStream(t, e.call(nil, nil), c, product); !st.Equal(want) {
			t.Errorf("%s: product stream driver %d pairs, want %d", c.name, st.Len(), want.Len())
		}
		sorted := want.Sorted()
		for _, bufSize := range []int{1, 7} {
			s, err := New(c.g, Options{}).OpenStream(context.Background(), c.query(), StreamOptions{})
			if err != nil {
				t.Fatalf("%s: open: %v", c.name, err)
			}
			if drained := drainStream(t, s, bufSize); !pairsEqual(drained, sorted) {
				t.Errorf("%s buffer %d: stream %d pairs, want %d", c.name, bufSize, len(drained), len(sorted))
			}
		}
	}
	if withIntermediates == 0 {
		t.Fatal("no product RTC kept an intermediate component: the memberless path went untested")
	}
}

// TestLabelPostMatchesTraversedPost: a label Post l is the graph's CSR,
// read in place by both joins, and must give exactly the join with Post
// l|zzz — the same ends, through the memoised, timed traversals — and
// the reference evaluator: the sealed kernel over the computed and the
// product-built RTC, the budget-0 fallback, the per-source stream driver
// and the pair-level join. Reading Post in place must not cost row
// sharing (the sealed columns are no larger than the traversed Post's),
// and no label Post time is Remainder.
func TestLabelPostMatchesTraversedPost(t *testing.T) {
	labels := 0
	for _, c := range kernelCases(t) {
		l, ok := c.post.(rpq.Label)
		if !ok {
			continue
		}
		labels++
		traversed := c
		traversed.post = rpq.MustParse(l.String() + "|zzz")
		if _, _, isLabel := eval.New(c.g, traversed.post, eval.Options{}).LabelCSR(); isLabel {
			t.Fatalf("%s: %s reads as a label, so the traversal path goes untested", c.name, traversed.post)
		}
		ref := eval.Reference(c.g, c.query())
		if tref := eval.Reference(c.g, traversed.query()); !tref.Equal(ref) {
			t.Fatalf("%s: reference with Post %s differs from Post %s", c.name, traversed.post, l)
		}
		product, err := rtc.FromProduct(c.g, c.r, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := New(c.g, Options{})
		for _, s := range []struct {
			name      string
			structure *rtc.RTC
		}{{"computed", c.computed}, {"product", product}} {
			var sealed [2]*pairs.Relation
			for i, kc := range []kernelCase{c, traversed} {
				call := e.call(nil, nil)
				k := call.acquireKernel(kc.preG, s.structure, kc.typ, kc.post)
				rel, err := call.drain(k)
				if err != nil {
					t.Fatalf("%s %s Post %s: %v", c.name, s.name, kc.post, err)
				}
				if other := call.rec.ns[bucketOther]; (i == 0) != (other == 0) {
					t.Errorf("%s %s: Post %s charged %v of Remainder: a label Post charges none, a traversed one its traversals", c.name, s.name, kc.post, time.Duration(other))
				}
				call.releaseKernel(k)
				if !rel.EqualSet(ref) {
					t.Fatalf("%s %s Post %s: %d pairs, reference %d", c.name, s.name, kc.post, rel.Len(), ref.Len())
				}
				sealed[i] = rel
				if fb := kernelSeal(t, e.call(nil, nil), kc, s.structure, 0); !fb.Equal(rel) {
					t.Errorf("%s %s Post %s: fallback %d pairs, sealed %d", c.name, s.name, kc.post, fb.Len(), rel.Len())
				}
				if st := kernelStream(t, e.call(nil, nil), kc, s.structure); !st.Equal(rel) {
					t.Errorf("%s %s Post %s: stream driver %d pairs, sealed %d", c.name, s.name, kc.post, st.Len(), rel.Len())
				}
			}
			if !sealed[0].Equal(sealed[1]) {
				t.Errorf("%s %s: Post %s %d pairs, Post %s %d", c.name, s.name, l, sealed[0].Len(), traversed.post, sealed[1].Len())
			}
			if got, want := sealed[0].ColumnBytes(), sealed[1].ColumnBytes(); got > want {
				t.Errorf("%s %s: Post %s sealed %d column bytes, Post %s %d: row sharing lost", c.name, s.name, l, got, traversed.post, want)
			}
		}
		var full [2]*pairs.Relation
		for i, kc := range []kernelCase{c, traversed} {
			call := e.call(nil, nil)
			j := call.acquireFull(kc.preG, kc.full, kc.typ, kc.post)
			rel, err := call.drain(j)
			if err != nil {
				t.Fatalf("%s full Post %s: %v", c.name, kc.post, err)
			}
			if other := call.rec.ns[bucketOther]; (i == 0) != (other == 0) {
				t.Errorf("%s: Post %s charged %v of Remainder in the pair-level join: a label Post charges none, a traversed one its traversals", c.name, kc.post, time.Duration(other))
			}
			j.release()
			full[i] = rel
		}
		if !full[0].Equal(full[1]) || !full[0].EqualSet(ref) {
			t.Errorf("%s: pair-level join Post %s %d pairs, Post %s %d, reference %d", c.name, l, full[0].Len(), traversed.post, full[1].Len(), ref.Len())
		}
		if rel, err := e.EvalBatchUnitFull(c.preG, c.full, c.typ, c.post); err != nil || !rel.Equal(full[1]) {
			t.Errorf("%s: EvalBatchUnitFull Post %s: %v, want the traversed Post's %d pairs", c.name, l, err, full[1].Len())
		}
	}
	if labels == 0 {
		t.Fatal("no kernel case has a label Post")
	}
}

// TestRowKernelSparseMemoryGate: over 2^20 vertices a join with a few
// hundred result pairs allocates less than 16 MiB per call, the first
// (which compiles the Post evaluator) included. One 2^20-bit row per
// reached component would be 128 KiB × 320 components — the gate fails
// any layout whose memory follows |V| per row instead of the rows'
// content.
func TestRowKernelSparseMemoryGate(t *testing.T) {
	const numV, sources, chainLen = 1 << 20, 10, 32
	g := fixtures.SparseChains(numV, sources, chainLen)
	preG := sealExpr(g, rpq.MustParse("a"))
	structure := rtc.Compute(rtc.EdgeReduceRel(numV, sealExpr(g, rpq.MustParse("b"))), 0)
	post := rpq.MustParse("c")
	for _, c := range []struct {
		typ  rpq.ClosureType
		want int
	}{{rpq.ClosurePlus, sources * (chainLen - 1)}, {rpq.ClosureStar, sources * chainLen}} {
		e := New(g, Options{})
		for call := 0; call < 3; call++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rel, err := e.EvalBatchUnit(preG, structure, c.typ, post)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if rel.Len() != c.want {
				t.Fatalf("%v call %d: %d pairs, want %d", c.typ, call, rel.Len(), c.want)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
				t.Fatalf("%v call %d allocated %.1f MiB for %d pairs, want < 16 MiB", c.typ, call, float64(alloc)/(1<<20), rel.Len())
			}
		}
	}
}

// TestRowKernelCancelInsideDFS: one source whose Pre-end heads a chain
// of 6000 components, so the join is almost all row DFS. Uncancelled,
// it polls the context dozens of times; cancelled at poll 3, it stops at
// that poll — no further checkpoint runs once the DFS has seen the
// error.
func TestRowKernelCancelInsideDFS(t *testing.T) {
	const chainLen = 6000
	b := graph.NewBuilder(chainLen + 1)
	b.MustAddEdge(chainLen, "a", 0)
	for v := 0; v+1 < chainLen; v++ {
		b.MustAddEdge(graph.VID(v), "b", graph.VID(v+1))
	}
	g := b.Build()
	preG := sealExpr(g, rpq.MustParse("a"))
	structure := rtc.Compute(rtc.EdgeReduceRel(g.NumVertices(), sealExpr(g, rpq.MustParse("b"))), 0)
	run := func(cc *countingCtx) error {
		c := New(g, Options{}).call(cc, nil)
		_, err := c.sealClause(c.acquireKernel(preG, structure, rpq.ClosurePlus, rpq.Epsilon{}))
		return err
	}

	full := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	if err := run(full); err != nil {
		t.Fatal(err)
	}
	if polls := full.polls.Load(); polls < 20 {
		t.Fatalf("uncancelled join polled %d times — fixture too light to test granularity", polls)
	}

	const failAfter = 3
	cc := &countingCtx{Context: context.Background(), failAfter: failAfter}
	if err := run(cc); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if polls := cc.polls.Load(); polls > failAfter+1 {
		t.Fatalf("join kept polling %d times after cancellation at poll %d", polls-failAfter-1, failAfter+1)
	}
}

// TestRowKernelAttribution: the Post traversals are Remainder, the rest
// of the join is PreJoin, and the two together fit inside the call.
func TestRowKernelAttribution(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 1500, Edges: 9000, Labels: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	preG := sealExpr(g, rpq.MustParse("l0"))
	structure := rtc.Compute(rtc.EdgeReduceRel(g.NumVertices(), sealExpr(g, rpq.MustParse("l1|l2"))), 0)
	e := New(g, Options{})
	start := time.Now()
	if _, err := e.EvalBatchUnit(preG, structure, rpq.ClosurePlus, rpq.MustParse("l2.l0")); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	st := e.Stats()
	if st.PreJoin <= 0 || st.Remainder <= 0 {
		t.Fatalf("PreJoin %v, Remainder %v: both must be attributed", st.PreJoin, st.Remainder)
	}
	if sum := st.PreJoin + st.Remainder; sum > wall {
		t.Fatalf("attributed %v of a %v call", sum, wall)
	}
}

// TestJoinEntryPointsRejectMismatchedSpaces: every exported join entry
// point returns an error — not an index-out-of-range panic mid-join —
// when an input covers another vertex space than the engine's graph.
func TestJoinEntryPointsRejectMismatchedSpaces(t *testing.T) {
	g := fixtures.Figure1()
	n := g.NumVertices()
	e := New(g, Options{})
	bc := rpq.MustParse("b.c")
	gr := rtc.EdgeReduceRel(n, sealExpr(g, bc))
	preG := sealExpr(g, rpq.MustParse("d"))
	structure, closure := rtc.Compute(gr, 0), tc.BFS(gr)

	small := pairs.RelationFromPairs(n/2, pairs.Pair{Src: 0, Dst: 1}, pairs.Pair{Src: 1, Dst: 0})
	smallGR := rtc.EdgeReduceRel(n/2, small)
	wide := pairs.RelationFromPairs(n+5, pairs.Pair{Src: graph.VID(n + 4), Dst: 0})
	smallRTC, smallClosure := rtc.Compute(smallGR, 0), tc.BFS(smallGR)

	post := rpq.MustParse("c")
	for _, tt := range []struct {
		name string
		call func() (*pairs.Relation, error)
	}{
		{"RTC/Pre", func() (*pairs.Relation, error) { return e.EvalBatchUnit(wide, structure, rpq.ClosurePlus, post) }},
		{"RTC/structure", func() (*pairs.Relation, error) { return e.EvalBatchUnit(preG, smallRTC, rpq.ClosurePlus, post) }},
		{"Full/Pre", func() (*pairs.Relation, error) { return e.EvalBatchUnitFull(small, closure, rpq.ClosureStar, post) }},
		{"Full/closure", func() (*pairs.Relation, error) {
			return e.EvalBatchUnitFull(preG, smallClosure, rpq.ClosurePlus, post)
		}},
	} {
		if rel, err := tt.call(); err == nil || rel != nil || !strings.Contains(err.Error(), "vertices") {
			t.Errorf("%s: err = %v, want a vertex-space error and no relation", tt.name, err)
		}
	}

	// The matching inputs still join, and agree.
	fwd, err := e.EvalBatchUnit(preG, structure, rpq.ClosurePlus, post)
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.EvalBatchUnitFull(preG, closure, rpq.ClosurePlus, post)
	if err != nil {
		t.Fatalf("Full on matching inputs: %v", err)
	}
	if !full.Equal(fwd) {
		t.Errorf("Full on matching inputs: %d pairs, the RTC join %d", full.Len(), fwd.Len())
	}
}

// TestRowSharedResultFeedsFullSharing: a row-shared result is a valid
// R_G for the pair-level join. An RTCSharing engine seals
// (l0|l1)+.l2 in row-shared form; a FullSharing engine takes it as R_G,
// reduces it to G_R through its CSR, closes G_R and joins through
// EvalBatchUnitFull. Both answers match the reference evaluator.
func TestRowSharedResultFeedsFullSharing(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 120, Edges: 480, Labels: 3, Seed: 503})
	if err != nil {
		t.Fatal(err)
	}
	body := rpq.MustParse("(l0|l1)+.l2")
	shared, err := New(g, Options{Strategy: RTCSharing}).EvaluateRel(body)
	if err != nil {
		t.Fatal(err)
	}
	if !shared.EqualSet(eval.Reference(g, body)) {
		t.Fatalf("RTCSharing %s: %d pairs disagree with the reference", body, shared.Len())
	}
	if shared.ColumnBytes() >= 4*int64(shared.Len()) {
		t.Fatalf("%s sealed %d column bytes for %d pairs: not row-shared, the route goes untested", body, shared.ColumnBytes(), shared.Len())
	}

	pre, post := rpq.MustParse("l1"), rpq.MustParse("l0")
	closure := tc.BFS(rtc.EdgeReduceRel(g.NumVertices(), shared))
	got, err := New(g, Options{Strategy: FullSharing}).EvalBatchUnitFull(sealExpr(g, pre), closure, rpq.ClosurePlus, post)
	if err != nil {
		t.Fatal(err)
	}
	q := rpq.NewConcat(pre, rpq.Plus{Sub: body}, post)
	if ref := eval.Reference(g, q); !got.EqualSet(ref) {
		t.Fatalf("FullSharing %s over the row-shared body: %d pairs, reference %d", q, got.Len(), ref.Len())
	}
}
