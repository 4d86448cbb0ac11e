package eval

import (
	"math/rand"
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

func TestCandidateStarts(t *testing.T) {
	g := fixtures.Figure1()

	// "d" has one edge (v7 → v4): only v7 can start.
	starts, ok := CandidateStarts(g, rpq.MustParse("d.b"))
	if !ok || len(starts) != 1 || starts[0] != 7 {
		t.Errorf("starts(d.b) = %v, %v; want [7], true", starts, ok)
	}

	// Nullable expressions cannot restrict the start set.
	if _, ok := CandidateStarts(g, rpq.MustParse("d*")); ok {
		t.Error("d* is nullable; seeding must be refused")
	}
	if _, ok := CandidateStarts(g, rpq.MustParse("d?")); ok {
		t.Error("d? is nullable; seeding must be refused")
	}
	if _, ok := CandidateStarts(g, rpq.MustParse("ε")); ok {
		t.Error("ε is nullable; seeding must be refused")
	}

	// A star prefix pushes the FIRST set into the next part too.
	starts, ok = CandidateStarts(g, rpq.MustParse("e*.f"))
	if !ok {
		t.Fatal("e*.f is not nullable")
	}
	// Starters: vertices with an e edge (8) or an f edge (9).
	if len(starts) != 2 || starts[0] != 8 || starts[1] != 9 {
		t.Errorf("starts(e*.f) = %v, want [8 9]", starts)
	}

	// Inverse first labels look at predecessors.
	starts, ok = CandidateStarts(g, rpq.MustParse("^d.a"))
	if !ok || len(starts) != 1 || starts[0] != 4 {
		t.Errorf("starts(^d.a) = %v, %v; want [4], true", starts, ok)
	}

	// Unknown labels admit no start at all.
	starts, ok = CandidateStarts(g, rpq.MustParse("nope.d"))
	if !ok || len(starts) != 0 {
		t.Errorf("starts(nope.d) = %v, %v; want none, true", starts, ok)
	}
}

// Property: traversing from the candidate starts only — the engine's
// producer of a closure-free clause — loses no pair of EvaluateAll on
// random graphs and random expressions, including nullable and
// inverse-labeled ones (for which CandidateStarts refuses to restrict).
func TestCandidateStartsSeedingMatchesFull(t *testing.T) {
	labels := []string{"a", "b", "c"}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 2+rng.Intn(25), rng.Intn(70), labels)
		e := rpq.RandomExpr(rng, labels, 3)
		ev := New(g, e, Options{})
		want := ev.EvaluateAll()
		starts, ok := CandidateStarts(g, e)
		if !ok {
			for v := 0; v < g.NumVertices(); v++ {
				starts = append(starts, graph.VID(v))
			}
		}
		got := pairs.NewSet()
		for _, s := range starts {
			for _, end := range ev.AppendReachFrom(s, nil) {
				got.Add(s, end)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("seed %d: %q: seeded %d pairs, full %d pairs", seed, e, got.Len(), want.Len())
		}
	}
}
