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
	"rtcshare/internal/scc"
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
// structures the joins take: the RTC computed from scratch, the same RTC
// reached by InsertEdges from half of G_R, and the full closure.
type kernelCase struct {
	name      string
	g         *graph.Graph
	pre, post rpq.Expr
	r         rpq.Expr
	typ       rpq.ClosureType

	preG     *pairs.Relation
	computed *rtc.RTC
	patched  *rtc.RTC
	full     *tc.Closure
}

func newKernelCase(name string, g *graph.Graph, pre, r, post rpq.Expr, typ rpq.ClosureType) kernelCase {
	n := g.NumVertices()
	rg := sealExpr(g, r)
	gr := rtc.EdgeReduceRel(n, rg)
	// Half of G_R's edges computed, the other half inserted.
	all := rg.Sorted()
	var first, second []pairs.Pair
	for i, p := range all {
		if i%2 == 0 {
			first = append(first, p)
		} else {
			second = append(second, p)
		}
	}
	base := rtc.Compute(rtc.EdgeReduceRel(n, pairs.RelationFromPairs(n, first...)), 0)
	return kernelCase{
		name: name, g: g, pre: pre, r: r, post: post, typ: typ,
		preG:     sealExpr(g, pre),
		computed: rtc.Compute(gr, 0),
		patched:  base.InsertEdges(second),
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

// topological reports whether every non-self edge of the structure's
// condensation runs from a higher SID to a lower one — the order
// rtc.Compute guarantees and InsertEdges does not.
func topological(structure *rtc.RTC) bool {
	ok := true
	structure.Condensation().Edges(func(s, t graph.VID) bool {
		ok = s == t || s > t
		return ok
	})
	return ok
}

// kernelCases crosses random RMAT graphs with Pre/R/Post shapes, both
// closure types and ε and non-ε Post — Pre-ends inside and outside V_R,
// an empty Pre, and SCCs from giant to singleton — and adds a hand-built
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
func kernelSeal(t *testing.T, v *engineVersion, c kernelCase, structure *rtc.RTC, budget int) *pairs.Relation {
	t.Helper()
	k := v.acquireKernel(structure, c.typ, c.post)
	defer v.releaseKernel(k)
	k.budget = budget
	rel, err := k.seal(c.preG)
	if err != nil {
		t.Fatalf("%s: sealed driver: %v", c.name, err)
	}
	return rel
}

// kernelStream drives the kernel the way ResultStream does — one source
// at a time into the caller's accumulator — and collects the runs.
func kernelStream(t *testing.T, v *engineVersion, c kernelCase, structure *rtc.RTC) *pairs.Relation {
	t.Helper()
	k := v.acquireKernel(structure, c.typ, c.post)
	defer v.releaseKernel(k)
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
		for _, vk := range acc.DrainAppend(nil) {
			b.Add(vi, vk)
		}
		return true
	})
	return b.Seal()
}

// TestRowKernelDifferential: for every case and for both the computed
// and the InsertEdges-patched RTC, EvalBatchUnit's answer equals the
// pair-level join over TC(G_R), the reference evaluator, the sealed
// driver with no row budget (everything answered through the closure)
// and the per-source stream driver.
func TestRowKernelDifferential(t *testing.T) {
	nonTopological := 0
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
		for _, s := range []struct {
			name      string
			structure *rtc.RTC
		}{{"computed", c.computed}, {"patched", c.patched}} {
			if !topological(s.structure) {
				nonTopological++
			}
			got, err := e.EvalBatchUnit(c.preG, s.structure, c.typ, c.post)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, s.name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s %s: kernel %d pairs, full join %d", c.name, s.name, got.Len(), want.Len())
			}
			if fb := kernelSeal(t, e.version(), c, s.structure, 0); !fb.Equal(want) {
				t.Errorf("%s %s: closure fallback %d pairs, full join %d", c.name, s.name, fb.Len(), want.Len())
			}
			if st := kernelStream(t, e.version(), c, s.structure); !st.Equal(got) {
				t.Errorf("%s %s: stream driver %d pairs, sealed %d", c.name, s.name, st.Len(), got.Len())
			}
		}
	}
	if nonTopological == 0 {
		t.Fatal("no patched RTC had a non-topological SID order: the DFS's independence from SID order went untested")
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
		w := New(g, Options{}).Fork()
		w.setCancel(cc)
		_, err := w.EvalBatchUnit(preG, structure, rpq.ClosurePlus, rpq.Epsilon{})
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

// TestRowKernelRejectsCyclicCondensation: an RTC whose condensation has
// a cycle between distinct components — which only a corrupt structure,
// such as a damaged snapshot, can hold — fails the join with an error
// instead of looping or panicking.
func TestRowKernelRejectsCyclicCondensation(t *testing.T) {
	const k = 12 // a ring longer than lightReach, so the DFS walks it
	g := graph.NewBuilder(k).Build()
	comps := &scc.Components{CompOf: make([]int32, k), Members: make([][]graph.VID, k)}
	ring := graph.NewDiBuilder(k)
	for s := 0; s < k; s++ {
		comps.CompOf[s] = int32(s)
		comps.Members[s] = []graph.VID{graph.VID(s)}
		ring.AddEdge(graph.VID(s), graph.VID((s+1)%k))
	}
	cond := ring.Build()
	structure, err := rtc.FromParts(comps, cond, tc.BFS(cond))
	if err != nil {
		t.Fatal(err)
	}
	preG := pairs.RelationFromPairs(k, pairs.Pair{Src: 0, Dst: 0})
	if _, err := New(g, Options{}).EvalBatchUnit(preG, structure, rpq.ClosurePlus, rpq.Epsilon{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want a condensation-cycle error", err)
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
	preG, postG := sealExpr(g, rpq.MustParse("d")), sealExpr(g, rpq.MustParse("c"))
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
		{"Backward/Post", func() (*pairs.Relation, error) {
			return e.EvalBatchUnitBackward(preG, structure, rpq.ClosurePlus, wide)
		}},
		{"Backward/structure", func() (*pairs.Relation, error) {
			return e.EvalBatchUnitBackward(preG, smallRTC, rpq.ClosurePlus, postG)
		}},
		{"FullBackward/Pre", func() (*pairs.Relation, error) {
			return e.EvalBatchUnitFullBackward(wide, closure, rpq.ClosurePlus, postG)
		}},
		{"FullBackward/closure", func() (*pairs.Relation, error) {
			return e.EvalBatchUnitFullBackward(preG, smallClosure, rpq.ClosurePlus, postG)
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
	for name, call := range map[string]func() (*pairs.Relation, error){
		"Full": func() (*pairs.Relation, error) { return e.EvalBatchUnitFull(preG, closure, rpq.ClosurePlus, post) },
		"Backward": func() (*pairs.Relation, error) {
			return e.EvalBatchUnitBackward(preG, structure, rpq.ClosurePlus, postG)
		},
		"FullBackward": func() (*pairs.Relation, error) {
			return e.EvalBatchUnitFullBackward(preG, closure, rpq.ClosurePlus, postG)
		},
	} {
		rel, err := call()
		if err != nil {
			t.Fatalf("%s on matching inputs: %v", name, err)
		}
		if !rel.Equal(fwd) {
			t.Errorf("%s on matching inputs: %d pairs, the forward join %d", name, rel.Len(), fwd.Len())
		}
	}
}
