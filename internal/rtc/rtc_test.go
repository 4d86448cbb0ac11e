package rtc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/tc"
)

// edgeReduce evaluates r on g, seals R_G and reduces it to G_R.
func edgeReduce(g *graph.Graph, r rpq.Expr) *graph.DiGraph {
	b := pairs.NewBuilder(g.NumVertices())
	eval.New(g, r, eval.Options{}).AppendAll(b)
	return EdgeReduceRel(g.NumVertices(), b.Seal())
}

// buildFig1RTC computes the RTC for R = b·c on the paper's Fig. 1 graph.
func buildFig1RTC(t *testing.T) (*graph.Graph, *RTC) {
	t.Helper()
	g := fixtures.Figure1()
	return g, Compute(edgeReduce(g, rpq.MustParse("b.c")), BFSClosure)
}

// TestPaperExample6 reproduces Example 6: TC(Ḡ_{b·c}) has three pairs,
// and its expansion equals TC(G_{b·c}) from Example 4.
func TestPaperExample6(t *testing.T) {
	_, r := buildFig1RTC(t)
	if got := r.NumSharedPairs(); got != 3 {
		t.Fatalf("|TC(Ḡ)| = %d, want 3", got)
	}
	if got := r.NumReducedVertices(); got != 3 {
		t.Fatalf("|V̄| = %d, want 3", got)
	}
	want := pairs.FromPairs(
		pairs.Pair{Src: 2, Dst: 2}, pairs.Pair{Src: 2, Dst: 4}, pairs.Pair{Src: 2, Dst: 6},
		pairs.Pair{Src: 3, Dst: 3}, pairs.Pair{Src: 3, Dst: 5},
		pairs.Pair{Src: 4, Dst: 2}, pairs.Pair{Src: 4, Dst: 4}, pairs.Pair{Src: 4, Dst: 6},
		pairs.Pair{Src: 5, Dst: 3}, pairs.Pair{Src: 5, Dst: 5},
	)
	if got := r.Expand(); !got.Equal(want) {
		t.Fatalf("Expand = %v, want %v", got.Sorted(), want.Sorted())
	}
	if got := r.ExpandedSize(); got != 10 {
		t.Fatalf("ExpandedSize = %d, want 10", got)
	}
}

// TestLemma1 verifies R+_G = TC(G_R) on the Fig. 1 graph.
func TestLemma1OnFigure1(t *testing.T) {
	g := fixtures.Figure1()
	gr := edgeReduce(g, rpq.MustParse("b.c"))
	closure := tc.BFS(gr)
	plus := eval.Evaluate(g, rpq.MustParse("(b.c)+"))
	if !closure.ToPairs().Equal(plus) {
		t.Fatalf("TC(G_R) = %v, want R+_G = %v", closure.ToPairs().Sorted(), plus.Sorted())
	}
}

func TestReachable(t *testing.T) {
	_, r := buildFig1RTC(t)
	cases := []struct {
		u, w graph.VID
		want bool
	}{
		{2, 2, true}, {2, 6, true}, {4, 6, true}, {3, 5, true},
		{6, 2, false}, {6, 6, false}, {0, 0, false}, {2, 3, false},
		{7, 5, false}, // v7 is not in V_{b·c} at all
	}
	for _, tc := range cases {
		if got := r.Reachable(tc.u, tc.w); got != tc.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", tc.u, tc.w, got, tc.want)
		}
	}
}

func TestCompOfAndMembers(t *testing.T) {
	_, r := buildFig1RTC(t)
	if r.CompOf(0) != -1 {
		t.Error("v0 should be outside V_R")
	}
	s := r.CompOf(2)
	if s < 0 {
		t.Fatal("v2 must be in an SCC")
	}
	m := r.Members(s)
	if len(m) != 2 || m[0] != 2 || m[1] != 4 {
		t.Errorf("Members(comp(v2)) = %v, want [2 4]", m)
	}
	if r.CompOf(4) != s {
		t.Error("v2 and v4 must share an SCC")
	}
	if r.CompOf(6) == s || r.CompOf(3) == s {
		t.Error("v6/v3 must be in different SCCs from v2")
	}
}

// Property (Lemma 1 + Theorem 1): for random graphs and random Kleene-free
// R, Expand(RTC(R_G)) == R+_G == TC(G_R).
func TestTheorem1(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 1+rng.Intn(12), rng.Intn(30), labels)
		// R: a random Kleene-free expression (concatenations and
		// alternations of labels).
		r := randomKleeneFree(rng, labels, 2)
		plus := eval.Evaluate(g, rpq.Plus{Sub: r})

		gr := edgeReduce(g, r)
		if !tc.BFS(gr).ToPairs().Equal(plus) { // Lemma 1
			t.Logf("Lemma 1 failed for R=%q", r)
			return false
		}
		rtc := Compute(gr, BFSClosure)
		if !rtc.Expand().Equal(plus) { // Theorem 1
			t.Logf("Theorem 1 failed for R=%q", r)
			return false
		}
		if rtc.ExpandedSize() != plus.Len() {
			return false
		}
		// Reachable must agree with membership.
		ok := true
		plus.Each(func(u, w graph.VID) bool {
			if !rtc.Reachable(u, w) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomKleeneFree draws concatenations/alternations of labels only.
func randomKleeneFree(rng *rand.Rand, labels []string, depth int) rpq.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		return rpq.Label{Name: labels[rng.Intn(len(labels))]}
	}
	n := 2 + rng.Intn(2)
	parts := make([]rpq.Expr, n)
	for i := range parts {
		parts[i] = randomKleeneFree(rng, labels, depth-1)
	}
	if rng.Intn(2) == 0 {
		return rpq.NewConcat(parts...)
	}
	return rpq.NewAlt(parts...)
}

// Property: the RTC is never larger than the full closure (the paper's
// Table III size claim |R̄+_Ḡ| ≤ |R+_G|).
func TestRTCNoLargerThanFullClosure(t *testing.T) {
	labels := []string{"a", "b"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 1+rng.Intn(15), rng.Intn(40), labels)
		r := randomKleeneFree(rng, labels, 2)
		gr := edgeReduce(g, r)
		full := tc.BFS(gr)
		reduced := Compute(gr, BFSClosure)
		return reduced.NumSharedPairs() <= full.NumPairs() &&
			reduced.NumReducedVertices() <= gr.NumActive()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
