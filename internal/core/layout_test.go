package core

import (
	"context"
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// Warm columnar batch evaluation must be close to allocation-free: the
// stamp sets, tuple buffers, builders and evaluators are all pooled, so
// the steady state allocates only the sealed result columns and
// per-query planning scraps. The same holds for the serving entry
// points: a timed, cancellable evaluation and a live stream run on the
// engine's own version, whose pools are as warm as the library path's.
// The bounds are deliberately loose (a regression tripwire, not a spec),
// but far below what any per-tuple or per-vertex allocation would cost.
func TestColumnarSteadyStateAllocations(t *testing.T) {
	g := fixtures.Figure1()
	q := rpq.MustParse("d.(b.c)+.c")
	e := New(g, Options{})
	if _, err := e.EvaluateRel(q); err != nil {
		t.Fatal(err)
	}
	// A stream never memoises its result, so after one drain the
	// structures are warm and every later stream runs live.
	streams := New(g, Options{})
	buf := make([]pairs.Pair, 64)
	drain := func() error {
		s, err := streams.OpenStream(context.Background(), q, StreamOptions{})
		if err != nil {
			return err
		}
		defer s.Close()
		for {
			if _, done, err := s.Next(buf); err != nil || done {
				return err
			}
		}
	}
	if err := drain(); err != nil {
		t.Fatal(err)
	}
	var st StageTimer
	for _, c := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"memo-warm EvaluateRel", 60, func() error {
			_, err := e.EvaluateRel(q)
			return err
		}},
		{"memo-warm EvaluateRelTimedCtx", 6, func() error {
			_, _, err := e.EvaluateRelTimedCtx(context.Background(), q, &st)
			return err
		}},
		{"structure-warm OpenStream drain", 50, drain},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.1f allocs", c.name, allocs)
		if allocs > c.max {
			t.Errorf("%s allocates %.1f objects per call, want ≤ %.0f", c.name, allocs, c.max)
		}
	}
}

// When the shared relation region's budget is exhausted, a declined
// relation is kept by the call that sealed it, for the rest of that call
// only: a sub-query two DNF clauses share is still sealed once per
// evaluation, and the shared version keeps nothing past the call, so
// declined relations never outlive the region's budget.
func TestRelationOverflowMemo(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	e.cache.relBytes.Store(relBudgetBytes) // exhaust the region up front
	// Both clauses, d.(b.c)+.c and d.(b.c)+.b, have Pre d.
	q := rpq.MustParse("d.(b.c)+.(c|b)")
	evaluate := func() int64 {
		before := e.cache.Counters().RelMisses
		if _, err := e.EvaluateRel(q); err != nil {
			t.Fatal(err)
		}
		return e.cache.Counters().RelMisses - before
	}

	// The query and its shared Pre, each sealed once.
	if got := evaluate(); got != 2 {
		t.Errorf("one evaluation sealed %d relations, want 2 (the query, and d once for both clauses)", got)
	}
	if got := e.cache.Counters().RelEntries; got != 0 {
		t.Errorf("relation region retained %d entries despite exhausted budget", got)
	}
	// Nothing was kept after the call returned: the next evaluation
	// seals both again.
	if got := evaluate(); got != 2 {
		t.Errorf("second evaluation sealed %d relations, want 2 (the version holds no declined relation)", got)
	}
}
