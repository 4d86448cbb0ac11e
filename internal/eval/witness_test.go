package eval

import (
	"math/rand"
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// The streaming-delivery probes (AnyFrom, Witness) tested directly
// against the reference evaluator. The core-level differential suite
// exercises them end to end; these pin the per-evaluator contracts —
// source-existence agreement, walk validity, shortest length — at the
// package boundary.

// frontierWalk validates a witness word properly: it advances the full
// frontier of vertices reachable from src by the word's prefix, and
// checks dst is in the final frontier. Unlike a greedy single walk this
// cannot be fooled by branching.
func frontierWalk(t *testing.T, g *graph.Graph, src, dst graph.VID, path []rpq.Label) bool {
	t.Helper()
	frontier := map[graph.VID]bool{src: true}
	for _, step := range path {
		lid, ok := g.Dict().Lookup(step.Name)
		if !ok {
			t.Fatalf("witness step %q: unknown label", step.Name)
		}
		next := map[graph.VID]bool{}
		for v := range frontier {
			if step.Inverse {
				for _, w := range g.Predecessors(v, lid) {
					next[w] = true
				}
			} else {
				for _, w := range g.Successors(v, lid) {
					next[w] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		frontier = next
	}
	return frontier[dst]
}

func TestAnyFromMatchesReference(t *testing.T) {
	queries := []string{"d.(b.c)+.c", "(b.c)+", "b.c", "a", "^d", "f.f", "(b.^b)+"}
	g := fixtures.Figure1()
	for _, qs := range queries {
		q := rpq.MustParse(qs)
		ref := Reference(g, q)
		hasSrc := map[graph.VID]bool{}
		ref.Each(func(src, _ int32) bool {
			hasSrc[graph.VID(src)] = true
			return true
		})
		ev := New(g, q, Options{})
		for v := 0; v < g.NumVertices(); v++ {
			if got := ev.AnyFrom(graph.VID(v)); got != hasSrc[graph.VID(v)] {
				t.Errorf("%q: AnyFrom(%d) = %v, reference says %v", qs, v, got, hasSrc[graph.VID(v)])
			}
		}
	}
}

func TestAnyFromRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	labels := []string{"l0", "l1", "l2"}
	for trial := 0; trial < 4; trial++ {
		const n = 24
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.MustAddEdge(graph.VID(rng.Intn(n)), labels[rng.Intn(len(labels))], graph.VID(rng.Intn(n)))
		}
		g := b.Build()
		for _, qs := range []string{"l0+", "l0.l1*", "l2|^l0+", "(l0.l1)+.l2?"} {
			q := rpq.MustParse(qs)
			ref := Reference(g, q)
			hasSrc := map[graph.VID]bool{}
			ref.Each(func(src, _ int32) bool {
				hasSrc[graph.VID(src)] = true
				return true
			})
			ev := New(g, q, Options{})
			for v := 0; v < n; v++ {
				if got := ev.AnyFrom(graph.VID(v)); got != hasSrc[graph.VID(v)] {
					t.Fatalf("trial %d %q: AnyFrom(%d) = %v, reference says %v", trial, qs, v, got, hasSrc[graph.VID(v)])
				}
			}
		}
	}
}

func TestWitnessMembershipAndValidity(t *testing.T) {
	g := fixtures.Figure1()
	queries := []string{"d.(b.c)+.c", "(b.c)+", "b.c", "^d", "(b.^b)+"}
	for _, qs := range queries {
		q := rpq.MustParse(qs)
		ref := Reference(g, q)
		member := map[[2]graph.VID]bool{}
		ref.Each(func(src, dst int32) bool {
			member[[2]graph.VID{graph.VID(src), graph.VID(dst)}] = true
			return true
		})
		ev := New(g, q, Options{})
		for s := 0; s < g.NumVertices(); s++ {
			for d := 0; d < g.NumVertices(); d++ {
				src, dst := graph.VID(s), graph.VID(d)
				path, ok := ev.Witness(src, dst)
				if ok != member[[2]graph.VID{src, dst}] {
					t.Fatalf("%q: Witness(%d,%d) ok=%v, membership %v", qs, s, d, ok, !ok)
				}
				if ok && !frontierWalk(t, g, src, dst, path) {
					t.Fatalf("%q: witness %v does not walk %d → %d", qs, path, s, d)
				}
			}
		}
	}
}

func TestWitnessShortestOnFixture(t *testing.T) {
	g := fixtures.Figure1()
	// Example 1: the only witnesses for (7,5) and (7,3) under d·(b·c)+·c
	// repeat the (b·c) block once resp. twice — 4 and 6 labels.
	ev := New(g, rpq.MustParse("d.(b.c)+.c"), Options{})
	path, ok := ev.Witness(7, 5)
	if !ok || len(path) != 4 {
		t.Fatalf("Witness(7,5) = %v, %v; want a 4-label path", path, ok)
	}
	if path[0].Name != "d" || path[0].Inverse {
		t.Fatalf("Witness(7,5) starts with %+v, want forward d", path[0])
	}
	path, ok = ev.Witness(7, 3)
	if !ok || len(path) != 6 {
		t.Fatalf("Witness(7,3) = %v, %v; want a 6-label path", path, ok)
	}

	// Shortest means one b·c round even when longer walks exist.
	ev2 := New(g, rpq.MustParse("(b.c)+"), Options{})
	path, ok = ev2.Witness(2, 4)
	if !ok || len(path) != 2 {
		t.Fatalf("Witness(2,4) = %v, %v; want a 2-label path", path, ok)
	}
}

func TestWitnessEdgeCases(t *testing.T) {
	g := fixtures.Figure1()
	// Zero-length witness: b* accepts the empty word, so (v,v) has the
	// empty path as its (shortest) witness.
	ev := New(g, rpq.MustParse("b*"), Options{})
	path, ok := ev.Witness(0, 0)
	if !ok || len(path) != 0 {
		t.Fatalf("Witness(0,0) under b* = %v, %v; want empty path, true", path, ok)
	}
	// Out-of-range endpoints are a clean miss, not a panic.
	if _, ok := ev.Witness(0, graph.VID(g.NumVertices())); ok {
		t.Error("Witness with dst out of range returned ok")
	}
	if _, ok := ev.Witness(-1, 0); ok {
		t.Error("Witness with negative src returned ok")
	}
	// Non-member pair on a non-trivial query.
	ev2 := New(g, rpq.MustParse("d.(b.c)+.c"), Options{})
	if _, ok := ev2.Witness(0, 1); ok {
		t.Error("Witness(0,1) returned ok for a non-member pair")
	}
}
