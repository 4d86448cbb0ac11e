package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/rpq"
)

// countingCtx is a context whose Err flips to Canceled after failAfter
// polls — a deterministic stand-in for "the client walked away
// mid-evaluation" that also counts exactly how often the engine's
// checkpoints look at it.
type countingCtx struct {
	context.Context
	polls     atomic.Int64
	failAfter int64
}

func (c *countingCtx) Err() error {
	if c.polls.Add(1) > c.failAfter {
		return context.Canceled
	}
	return nil
}

// heavyFixture returns a fresh engine over a graph, with a query,
// expensive enough that an uncancelled evaluation polls an attached
// context many times — the precondition for asserting anything about
// checkpoint granularity. Each call builds a new engine so its caches
// are cold: a cache hit would answer without ever reaching a
// checkpoint, which is correct behaviour but useless for these tests.
func heavyFixture(t *testing.T) (*Engine, rpq.Expr) {
	t.Helper()
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 1500, Edges: 9000, Labels: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, Options{}), rpq.MustParse("(l0|l1)+.(l1|l2)+")
}

// TestEvaluateRelTimedCtxPreCancelled: an already-done context returns
// its error immediately, before any evaluation work.
func TestEvaluateRelTimedCtxPreCancelled(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	evals := 0
	e.SetEvalHook(func(string) { evals++ })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.EvaluateRelTimedCtx(ctx, rpq.MustParse("d.(b.c)+.c"), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if evals != 0 {
		t.Fatalf("pre-cancelled context still ran %d evaluations", evals)
	}
}

// TestCancellationStopsWithinOneCheckpoint is the acceptance gate for
// the cancellation tentpole, made deterministic: the heavy query is
// first shown to poll an attached context many times (so checkpoints
// are dense in its evaluation), then a context that fails on poll K is
// attached and the evaluation must stop essentially at that poll — at
// most one further poll may happen (a second checkpoint site reached
// before the first's error propagates through a phase boundary), which
// is exactly the "within one checkpoint interval" bound.
func TestCancellationStopsWithinOneCheckpoint(t *testing.T) {
	e, q := heavyFixture(t)

	full := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	if _, _, err := e.EvaluateRelTimedCtx(full, q, nil); err != nil {
		t.Fatal(err)
	}
	total := full.polls.Load()
	if total < 20 {
		t.Fatalf("uncancelled evaluation polled only %d times — fixture not heavy enough to test granularity", total)
	}

	// A cold engine for the cancelled run: on e the first run populated
	// the shared caches, so a repeat would answer without reaching a
	// single checkpoint.
	cold, _ := heavyFixture(t)
	const failAfter = 3
	cc := &countingCtx{Context: context.Background(), failAfter: failAfter}
	_, _, err := cold.EvaluateRelTimedCtx(cc, q, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if polls := cc.polls.Load(); polls > failAfter+2 {
		t.Fatalf("evaluation kept running for %d polls after cancellation at poll %d", polls-failAfter, failAfter)
	}

	// The engine must be unharmed: the same query evaluates cleanly —
	// the aborted run must not have cached a partial result.
	if _, _, err := cold.EvaluateRelTimedCtx(context.Background(), q, nil); err != nil {
		t.Fatalf("evaluation after a cancelled run: %v", err)
	}
}

// TestCancellationStopsCPU is the wall-clock face of the same gate: an
// evaluation cancelled right after it starts must return far sooner
// than the full evaluation takes. Bounds are deliberately loose (4x) so
// scheduler noise cannot flake the test.
func TestCancellationStopsCPU(t *testing.T) {
	e, q := heavyFixture(t)

	t0 := time.Now()
	if _, _, err := e.EvaluateRelTimedCtx(context.Background(), q, nil); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(t0)

	cold, _ := heavyFixture(t)
	cc := &countingCtx{Context: context.Background(), failAfter: 2}
	t0 = time.Now()
	_, _, err := cold.EvaluateRelTimedCtx(cc, q, nil)
	cancelled := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if serial > 20*time.Millisecond && cancelled > serial/4 {
		t.Fatalf("cancelled evaluation took %v of the serial %v — cancellation is not stopping work", cancelled, serial)
	}
}

// TestPanicIsolatedToQuery: a panic raised inside one query's
// evaluation surfaces as *QueryPanicError carrying the query text, and
// the engine — including its singleflight cache — stays fully usable
// for other queries and for the same query once the fault is removed.
func TestPanicIsolatedToQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := fixtures.RandomGraph(rng, 32, 96, []string{"a", "b", "c"})
	e := New(g, Options{})
	poison := "(a.b)+"
	armed := true
	e.SetEvalHook(func(q string) {
		if armed && q == poison {
			panic("injected evaluator fault")
		}
	})

	_, _, err := e.EvaluateRelTimedCtx(context.Background(), rpq.MustParse(poison), nil)
	var pe *QueryPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *QueryPanicError", err)
	}
	if pe.Query == "" || pe.Value == nil || len(pe.Stack) == 0 {
		t.Fatalf("panic error missing context: %+v", pe)
	}

	// Neighbours are unaffected, immediately after the recovered panic.
	if _, _, err := e.EvaluateRelTimedCtx(context.Background(), rpq.MustParse("b.c"), nil); err != nil {
		t.Fatalf("healthy query after panic: %v", err)
	}

	// The batch path: the poisoned query fails the batch call with the
	// panic error (recovered, not propagated), workers survive.
	qs := []rpq.Expr{rpq.MustParse("b.c"), rpq.MustParse(poison), rpq.MustParse("c.a")}
	if _, _, err := e.EvaluateBatchParallelRel(qs, 2); !errors.As(err, &pe) {
		t.Fatalf("batch err = %v, want *QueryPanicError", err)
	}

	// Disarm: the same string must evaluate cleanly — no poisoned entry
	// left behind in the singleflight or result caches.
	armed = false
	if _, _, err := e.EvaluateRelTimedCtx(context.Background(), rpq.MustParse(poison), nil); err != nil {
		t.Fatalf("query after fault removed: %v", err)
	}
}

// TestExplainAnalyzeCtxGuards: the serving entry point of EXPLAIN ANALYZE
// refuses a done context before any work, stops a running analysis at a
// checkpoint, recovers a panic into *QueryPanicError, and folds the
// fork's accounting back into the engine.
func TestExplainAnalyzeCtxGuards(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	poison := "a.b"
	e.SetEvalHook(func(q string) {
		if q == poison {
			panic("injected evaluator fault")
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExplainAnalyzeCtx(ctx, rpq.MustParse("d.(b.c)+.c")); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}
	var pe *QueryPanicError
	if _, err := e.ExplainAnalyzeCtx(context.Background(), rpq.MustParse(poison)); !errors.As(err, &pe) {
		t.Fatalf("poisoned: err = %v, want *QueryPanicError", err)
	}
	p, err := e.ExplainAnalyzeCtx(context.Background(), rpq.MustParse("d.(b.c)+.c"))
	if err != nil || !p.Analyzed || p.ActualResultPairs != 2 {
		t.Fatalf("healthy analyze: plan %+v, err %v", p, err)
	}
	if q := e.Stats().Queries; q != 2 {
		t.Errorf("engine counted %d queries, want the 2 analyses that started", q)
	}

	heavy, q := heavyFixture(t)
	cc := &countingCtx{Context: context.Background(), failAfter: 2}
	if _, err := heavy.ExplainAnalyzeCtx(cc, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-run: err = %v, want context.Canceled", err)
	}
}
