package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// This file is the differential suite of the multi-clause union: a DNF
// of several clauses is sealed clause by clause and drained through one
// union producer, the producer a stream ORs its clauses through. The
// queries are single-clause batch units over one closure and the
// two-clause unions an alternation in Pre or Post, a top-level `|` and a
// `?` make of them; the last one's `?` is around the closure itself, so
// one of its clauses is closure-free.
var unionTestQueries = []string{
	"l2.(l1)+.l0", "l3.(l1)+.l0",
	"(l2|l3).(l1)+.l0", "l2.(l1)+.l0|l3.(l1)+.l0", "l2.(l1)+.(l0|l3)", "l2.(l1)+.l0.l3?",
	"l2.((l1)+)?.l3",
}

// unionGraph is RMAT_3 at 2^scale vertices.
func unionGraph(t *testing.T, scale int, seed int64) *graph.Graph {
	t.Helper()
	g, err := datagen.PaperRMATN(3, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestUnionMatchesReference: at 2^7 vertices, over three seeds, every
// strategy's sealed answer equals the compositional reference's.
func TestUnionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := unionGraph(t, 7, seed)
		for _, s := range []Strategy{RTCSharing, FullSharing, NoSharing} {
			e := New(g, Options{Strategy: s})
			for _, qs := range unionTestQueries {
				q := rpq.MustParse(qs)
				rel, err := e.EvaluateRel(q)
				if err != nil {
					t.Fatalf("seed %d %s %s: %v", seed, s, qs, err)
				}
				if want := eval.Reference(g, q); !rel.EqualSet(want) {
					t.Errorf("seed %d %s %s: %d pairs, reference %d", seed, s, qs, rel.Len(), want.Len())
				}
			}
		}
	}
}

// TestUnionSealedMatchesStream: at 2^11 vertices, under every strategy,
// the sealed union equals a cold stream's full drain pair for pair,
// order included, through buffers of 1 and 7 pairs, and ASK agrees on
// emptiness — an unknown label makes the last query empty.
func TestUnionSealedMatchesStream(t *testing.T) {
	g := unionGraph(t, 11, 1)
	for _, s := range []Strategy{RTCSharing, FullSharing, NoSharing} {
		for _, qs := range append(unionTestQueries, "l2.(l1)+.(l8|l9)") {
			q := rpq.MustParse(qs)
			rel, err := New(g, Options{Strategy: s}).EvaluateRel(q)
			if err != nil {
				t.Fatalf("%s %s: %v", s, qs, err)
			}
			want := rel.Sorted()
			for _, bufSize := range []int{1, 7} {
				st, err := New(g, Options{Strategy: s}).OpenStream(context.Background(), q, StreamOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got := drainStream(t, st, bufSize); !pairsEqual(got, want) {
					t.Errorf("%s %s: stream through %d-pair buffers gave %d pairs, sealed %d", s, qs, bufSize, len(got), len(want))
				}
			}
			found, _, _, err := New(g, Options{Strategy: s}).AskCounted(context.Background(), q)
			if err != nil || found != (rel.Len() > 0) {
				t.Errorf("%s %s: ASK %v (%v), sealed %d pairs", s, qs, found, err, rel.Len())
			}
		}
	}
}

// TestUnionExplainAnalyzeActuals: EXPLAIN ANALYZE of a union reports,
// for each clause, the result and Pre_G sizes that clause has evaluated
// alone, and the union's own size as its result.
func TestUnionExplainAnalyzeActuals(t *testing.T) {
	g := unionGraph(t, 9, 1)
	for _, s := range []Strategy{RTCSharing, FullSharing, NoSharing} {
		for _, qs := range unionTestQueries {
			q := rpq.MustParse(qs)
			p, err := New(g, Options{Strategy: s}).ExplainAnalyze(q)
			if err != nil {
				t.Fatalf("%s %s: %v", s, qs, err)
			}
			rel, err := New(g, Options{Strategy: s}).EvaluateRel(q)
			if err != nil {
				t.Fatal(err)
			}
			if p.ActualResultPairs != rel.Len() {
				t.Errorf("%s %s: ActualResultPairs %d, result %d", s, qs, p.ActualResultPairs, rel.Len())
			}
			for _, c := range p.Clauses {
				alone, err := New(g, Options{Strategy: s}).ExplainAnalyze(rpq.MustParse(c.Clause))
				if err != nil {
					t.Fatal(err)
				}
				if len(alone.Clauses) != 1 {
					t.Fatalf("%s: clause %s plans as %d clauses", qs, c.Clause, len(alone.Clauses))
				}
				if a := alone.Clauses[0]; c.ActualPairs != a.ActualPairs || c.ActualPrePairs != a.ActualPrePairs {
					t.Errorf("%s %s: clause %s actual %d pairs, |Pre_G| %d; alone %d, %d",
						s, qs, c.Clause, c.ActualPairs, c.ActualPrePairs, a.ActualPairs, a.ActualPrePairs)
				}
			}
		}
	}
}

// TestUnionCancelsInsideOR: the union's OR pass polls the call's
// context for the pairs it ORs, and a cancellation at its first, second,
// middle or last poll stops the drain with the context's error and leaves the pooled drain
// scratch clean. Through EvaluateRelTimedCtx, whose last poll is in that
// pass, a cancellation there fails the query.
func TestUnionCancelsInsideOR(t *testing.T) {
	g := unionGraph(t, 11, 1)
	e := New(g, Options{})
	want, err := e.EvaluateRel(rpq.MustParse("(l2|l3).(l1)+.l0"))
	if err != nil {
		t.Fatal(err)
	}
	var rels []*pairs.Relation
	for _, qs := range []string{"l2.(l1)+.l0", "l3.(l1)+.l0"} {
		rel, err := e.EvaluateRel(rpq.MustParse(qs))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	drainUnion := func(ctx context.Context) error {
		c := e.call(ctx, nil)
		u := &union{c: c}
		for _, rel := range rels {
			u.parts = append(u.parts, &sealedRuns{c: c, rel: rel})
		}
		rel, err := c.drain(u)
		if err == nil && !rel.Equal(want) {
			t.Fatalf("union drain: %d pairs, want %d", rel.Len(), want.Len())
		}
		return err
	}
	full := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	if err := drainUnion(full); err != nil {
		t.Fatal(err)
	}
	polls := full.polls.Load()
	if polls < 2 {
		t.Fatalf("the OR pass polled %d times: fixture too light", polls)
	}
	for _, failAfter := range []int64{0, 1, polls / 2, polls - 1} {
		if err := drainUnion(&countingCtx{Context: context.Background(), failAfter: failAfter}); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: %v", failAfter+1, polls, err)
		}
		if err := drainUnion(context.Background()); err != nil {
			t.Fatalf("after a cancel at poll %d: %v", failAfter+1, err)
		}
	}

	q := rpq.MustParse("(l2|l3).(l1)+.l0")
	full = &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	if _, _, err := New(g, Options{}).EvaluateRelTimedCtx(full, q, nil); err != nil {
		t.Fatal(err)
	}
	last := &countingCtx{Context: context.Background(), failAfter: full.polls.Load() - 1}
	if _, _, err := New(g, Options{}).EvaluateRelTimedCtx(last, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled at the last of %d polls: %v", full.polls.Load(), err)
	}
}

// TestUnionCostBound: at 2^11 vertices, a cold union on a fresh engine,
// structure build included, allocates at most twice what its clauses
// allocate cold, each on a fresh engine of its own, and its result
// holds no more column bytes than theirs together: a drained union
// stores each distinct run once, as its row-shared clauses do. Counted
// in bytes allocated, not time; skipped under the race detector, whose
// lossy sync.Pool allocates the pooled join state again.
func TestUnionCostBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	g := unionGraph(t, 11, 1)
	cold := func(qs string) (uint64, *pairs.Relation) {
		e := New(g, Options{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, err := e.EvaluateRel(rpq.MustParse(qs))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		return after.TotalAlloc - before.TotalAlloc, rel
	}
	const q = "(l2|l3).(l1)+.l0"
	alloc, rel := cold(q)
	var clauseAlloc uint64
	var clauseCols int64
	for _, qs := range []string{"l2.(l1)+.l0", "l3.(l1)+.l0"} {
		a, r := cold(qs)
		clauseAlloc, clauseCols = clauseAlloc+a, clauseCols+r.ColumnBytes()
	}
	if alloc > 2*clauseAlloc {
		t.Errorf("cold %s allocated %d bytes, %.1fx its clauses' %d; want at most 2x", q, alloc, float64(alloc)/float64(clauseAlloc), clauseAlloc)
	}
	if cols := rel.ColumnBytes(); cols > clauseCols {
		t.Errorf("%s holds %d column bytes, its clauses %d together; want no more", q, cols, clauseCols)
	}
}
