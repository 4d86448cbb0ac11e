package eval

import (
	"math/rand"
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

func TestEvaluateFrom(t *testing.T) {
	g := fixtures.Figure1()
	got := EvaluateFrom(g, rpq.MustParse("(b.c)+"), []graph.VID{2})
	want := pairs.FromPairs(
		pairs.Pair{Src: 2, Dst: 2}, pairs.Pair{Src: 2, Dst: 4}, pairs.Pair{Src: 2, Dst: 6},
	)
	if !got.Equal(want) {
		t.Fatalf("from v2: %v, want %v", got.Sorted(), want.Sorted())
	}
}

func TestReachFrom(t *testing.T) {
	g := fixtures.Figure1()
	ev := New(g, rpq.MustParse("c"), Options{})
	ends := ev.ReachFrom(5)
	seen := map[graph.VID]bool{}
	for _, e := range ends {
		seen[e] = true
	}
	if len(ends) != 2 || !seen[4] || !seen[6] {
		t.Fatalf("ReachFrom(5, c) = %v, want [4 6]", ends)
	}
	if got := ev.ReachFrom(0); len(got) != 0 {
		t.Fatalf("ReachFrom(0, c) = %v, want empty", got)
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
	got := ev.EvaluateFrom([]graph.VID{0, 7})
	if !got.Contains(0, 1) || !got.Contains(7, 8) {
		t.Fatalf("reuse lost results: %v", got.Sorted())
	}
}

func TestEvaluateAllParallel(t *testing.T) {
	g := fixtures.Figure1()
	for _, q := range []string{"d.(b.c)+.c", "(b.c)+", "a|b.c", "(a|b|c)*"} {
		e := rpq.MustParse(q)
		want := Evaluate(g, e)
		for _, workers := range []int{0, 1, 2, 4, 16, 100} {
			got := New(g, e, Options{}).EvaluateAllParallel(workers)
			if !got.Equal(want) {
				t.Errorf("%q with %d workers: %v != %v", q, workers, got.Sorted(), want.Sorted())
			}
		}
	}
}

// Property: parallel evaluation equals serial on random graphs.
func TestParallelMatchesSerial(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 1+rng.Intn(30), rng.Intn(80), labels)
		e := rpq.RandomExpr(rng, labels, 3)
		want := Evaluate(g, e)
		got := New(g, e, Options{}).EvaluateAllParallel(3)
		return got.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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

// Property: EvaluateFrom(starts) equals the restriction of EvaluateAll to
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
		sub := EvaluateFrom(g, e, starts)
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
