package core

import (
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/rpq"
)

// Warm columnar batch evaluation must be close to allocation-free: the
// stamp sets, tuple buffers, builders and evaluators are all pooled, so
// the steady state allocates only the sealed result columns, the final
// Set materialisation and per-query planning scraps. The bound is
// deliberately loose (it is a regression tripwire, not a spec), but it
// is far below what any per-tuple or per-vertex allocation would cost.
func TestColumnarSteadyStateAllocations(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	q := rpq.MustParse("d.(b.c)+.c")
	if _, err := e.Evaluate(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.EvaluateRel(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Errorf("warm columnar EvaluateRel allocates %.1f objects per query, want ≤ 60", allocs)
	}
}

// When the shared relation region's budget is exhausted, the engine
// falls back to its own overflow memo: sub-queries still evaluate once
// per engine, never once per batch unit.
func TestRelationOverflowMemo(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	e.cache.relPairs.Store(relBudgetPairs) // exhaust the region up front

	for i := 0; i < 2; i++ {
		if _, err := e.Evaluate(rpq.MustParse("d.(b.c)+.c")); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Evaluate(rpq.MustParse("a.(b.c)+.c")); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.cache.RelLen(); got != 0 {
		t.Errorf("relation region retained %d entries despite exhausted budget", got)
	}
	e.version().subMu.Lock()
	overflow := len(e.version().subRels)
	e.version().subMu.Unlock()
	if overflow == 0 {
		t.Error("overflow memo empty: declined relations were not kept engine-locally")
	}
	// Each distinct sub-query sealed at most twice (the in-flight
	// singleflight plus one race-free local store): the second round of
	// queries must hit the overflow memo, so the relation region's miss
	// counter stops growing.
	missesAfterWarm := e.cache.Counters().RelMisses
	if _, err := e.Evaluate(rpq.MustParse("d.(b.c)+.c")); err != nil {
		t.Fatal(err)
	}
	if got := e.cache.Counters().RelMisses; got != missesAfterWarm {
		t.Errorf("warm query recomputed sub-relations: RelMisses %d → %d", missesAfterWarm, got)
	}
}
