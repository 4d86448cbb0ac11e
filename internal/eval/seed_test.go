package eval

import (
	"math/rand"
	"slices"
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

func TestCandidateStarts(t *testing.T) {
	g := fixtures.Figure1()
	starts := func(q string) []graph.VID { return New(g, rpq.MustParse(q), Options{}).Starts() }

	// "d" has one edge (v7 → v4): only v7 can start.
	if got := starts("d.b"); !slices.Equal(got, []graph.VID{7}) {
		t.Errorf("starts(d.b) = %v; want [7]", got)
	}

	// Nullable expressions cannot restrict the start set: every vertex
	// matches (v, v).
	for _, q := range []string{"d*", "d?", "ε"} {
		if got := starts(q); len(got) != g.NumVertices() {
			t.Errorf("%s is nullable; starts = %v, want all %d vertices", q, got, g.NumVertices())
		}
	}

	// A star prefix pushes the FIRST set into the next part too.
	// Starters: vertices with an e edge (8) or an f edge (9).
	if got := starts("e*.f"); !slices.Equal(got, []graph.VID{8, 9}) {
		t.Errorf("starts(e*.f) = %v, want [8 9]", got)
	}

	// Inverse first labels look at predecessors.
	if got := starts("^d.a"); !slices.Equal(got, []graph.VID{4}) {
		t.Errorf("starts(^d.a) = %v; want [4]", got)
	}

	// Unknown labels admit no start at all.
	if got := starts("nope.d"); len(got) != 0 {
		t.Errorf("starts(nope.d) = %v; want none", got)
	}

	// The list is computed once per evaluator.
	ev := New(g, rpq.MustParse("d.b"), Options{})
	if a, b := ev.Starts(), ev.Starts(); &a[0] != &b[0] {
		t.Error("Starts recomputed its list")
	}
}

// Property: traversing from the candidate starts only — the engine's
// producer of a closure-free clause — gives exactly Reference's pairs on
// random graphs and random expressions, including nullable and
// inverse-labeled ones (a nullable one starts at every vertex).
// EvaluateAll searches from the same start list, so it cannot be the
// oracle: a list that dropped a start would lose the same pairs there.
func TestCandidateStartsSeedingMatchesFull(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 2+rng.Intn(25), rng.Intn(70), labels)
		e := rpq.RandomExpr(rng, labels, 3)
		ev := New(g, e, Options{})
		want := Reference(g, e)
		got := pairs.NewSet()
		for _, s := range ev.Starts() {
			for _, end := range ev.AppendReachFrom(s, nil) {
				got.Add(s, end)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: %q: seeded %d pairs, reference %d pairs", seed, e, got.Len(), want.Len())
		}
	}
}
