package eval

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// TestPaperExample1 reproduces Example 1/2: (d·(b·c)+·c)_G = {(v7,v5), (v7,v3)}.
func TestPaperExample1(t *testing.T) {
	g := fixtures.Figure1()
	got := Evaluate(g, rpq.MustParse("d.(b.c)+.c"))
	want := pairs.FromPairs(pairs.Pair{Src: 7, Dst: 5}, pairs.Pair{Src: 7, Dst: 3})
	if !got.Equal(want) {
		t.Fatalf("(d·(b·c)+·c)_G = %v, want %v", got.Sorted(), want.Sorted())
	}
}

// TestPaperExample3 reproduces Example 3: the paths satisfying b·c.
func TestPaperExample3(t *testing.T) {
	g := fixtures.Figure1()
	got := Evaluate(g, rpq.MustParse("b.c"))
	want := pairs.FromPairs(
		pairs.Pair{Src: 2, Dst: 4}, pairs.Pair{Src: 2, Dst: 6},
		pairs.Pair{Src: 3, Dst: 5}, pairs.Pair{Src: 4, Dst: 2},
		pairs.Pair{Src: 5, Dst: 3},
	)
	if !got.Equal(want) {
		t.Fatalf("(b·c)_G = %v, want %v", got.Sorted(), want.Sorted())
	}
}

// TestPaperExample4 reproduces Example 4: (b·c)+_G = TC(G_{b·c}).
func TestPaperExample4(t *testing.T) {
	g := fixtures.Figure1()
	got := Evaluate(g, rpq.MustParse("(b.c)+"))
	want := pairs.FromPairs(
		pairs.Pair{Src: 2, Dst: 2}, pairs.Pair{Src: 2, Dst: 4}, pairs.Pair{Src: 2, Dst: 6},
		pairs.Pair{Src: 3, Dst: 3}, pairs.Pair{Src: 3, Dst: 5},
		pairs.Pair{Src: 4, Dst: 2}, pairs.Pair{Src: 4, Dst: 4}, pairs.Pair{Src: 4, Dst: 6},
		pairs.Pair{Src: 5, Dst: 3}, pairs.Pair{Src: 5, Dst: 5},
	)
	if !got.Equal(want) {
		t.Fatalf("(b·c)+_G = %v, want %v", got.Sorted(), want.Sorted())
	}
}

// TestReachFrom: one start's traversal is EvalRestrictedRPQ from it —
// the ends of c-edges from v5, nothing from v0, and (b·c)+ from v2 as in
// Example 4.
func TestReachFrom(t *testing.T) {
	g := fixtures.Figure1()
	ev := New(g, rpq.MustParse("c"), Options{})
	ends := ev.AppendReachFrom(5, nil)
	seen := map[graph.VID]bool{}
	for _, e := range ends {
		seen[e] = true
	}
	if len(ends) != 2 || !seen[4] || !seen[6] {
		t.Fatalf("AppendReachFrom(5, c) = %v, want [4 6]", ends)
	}
	if got := ev.AppendReachFrom(0, nil); len(got) != 0 {
		t.Fatalf("AppendReachFrom(0, c) = %v, want empty", got)
	}
	got := New(g, rpq.MustParse("(b.c)+"), Options{}).AppendReachFrom(2, nil)
	slices.Sort(got)
	if !slices.Equal(got, []graph.VID{2, 4, 6}) {
		t.Fatalf("(b·c)+ from v2 = %v, want [2 4 6]", got)
	}
}

func TestStarIncludesIdentity(t *testing.T) {
	g := fixtures.Figure1()
	got := Evaluate(g, rpq.MustParse("(b.c)*"))
	plus := Evaluate(g, rpq.MustParse("(b.c)+"))
	want := plus.Clone()
	for v := 0; v < g.NumVertices(); v++ {
		want.Add(graph.VID(v), graph.VID(v))
	}
	if !got.Equal(want) {
		t.Fatalf("(b·c)*_G = %v, want plus ∪ identity", got.Sorted())
	}
}

func TestUnknownQueryLabel(t *testing.T) {
	g := fixtures.Figure1()
	if got := Evaluate(g, rpq.MustParse("nosuchlabel")); got.Len() != 0 {
		t.Fatalf("unknown label matched %v", got.Sorted())
	}
	// An alternative with one unknown branch still works.
	got := Evaluate(g, rpq.MustParse("nosuchlabel|d"))
	if !got.Contains(7, 4) {
		t.Fatal("nosuchlabel|d lost the d edge")
	}
}

func TestEvaluatorReuseAcrossStarts(t *testing.T) {
	// The generation-stamp trick must not leak visited marks between
	// start vertices: v1 is reachable from both v7 and v0.
	g := fixtures.Figure1()
	ev := New(g, rpq.MustParse("a"), Options{})
	from0 := ev.AppendReachFrom(0, nil)
	from7 := ev.AppendReachFrom(7, nil)
	if !slices.Contains(from0, 1) || !slices.Contains(from7, 8) {
		t.Fatalf("reuse lost results: from v0 %v, from v7 %v", from0, from7)
	}
}

// Property: the automaton-product evaluator agrees with the compositional
// relational reference on random graphs and random queries.
func TestEvaluateAgainstReference(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 1+rng.Intn(10), rng.Intn(25), labels)
		e := rpq.RandomExpr(rng, labels, 3)
		want := Reference(g, e)
		if got := Evaluate(g, e); !got.Equal(want) {
			t.Logf("NFA mismatch: expr=%q |got|=%d |want|=%d", e, got.Len(), want.Len())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: evaluating from a subset of the start vertices —
// AppendReachFrom per start — equals the restriction of EvaluateAll to
// those start vertices.
func TestEvaluateFromIsRestriction(t *testing.T) {
	labels := []string{"a", "b"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		g := fixtures.RandomGraph(rng, n, rng.Intn(20), labels)
		e := rpq.RandomExpr(rng, labels, 2)
		all := Evaluate(g, e)
		starts := []graph.VID{graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n))}
		ev := New(g, e, Options{})
		sub := pairs.NewSet()
		for _, s := range starts {
			for _, end := range ev.AppendReachFrom(s, nil) {
				sub.Add(s, end)
			}
		}
		inStarts := func(v graph.VID) bool {
			for _, s := range starts {
				if s == v {
					return true
				}
			}
			return false
		}
		ok := true
		all.Each(func(src, dst graph.VID) bool {
			if inStarts(src) && !sub.Contains(src, dst) {
				ok = false
				return false
			}
			return true
		})
		sub.Each(func(src, dst graph.VID) bool {
			if !inStarts(src) || !all.Contains(src, dst) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
