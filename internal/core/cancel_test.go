package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
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

// TestCancellationStopsInsideAutomatonClause: a closure-free query is
// eight automaton clauses and no closure, so every checkpoint it reaches
// is one the automaton producer polls per source, weighted by the ends
// the traversal adds. Uncancelled it polls many times; cancelled at poll
// 3 it stops there, and the engine then answers the same query in full.
func TestCancellationStopsInsideAutomatonClause(t *testing.T) {
	e, _ := heavyFixture(t)
	q := rpq.MustParse("(l0|l1).(l1|l2).(l0|l2)")
	full := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	want, _, err := e.EvaluateRelTimedCtx(full, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if polls := full.polls.Load(); polls < 20 {
		t.Fatalf("uncancelled evaluation of %d pairs polled only %d times", want.Len(), polls)
	}

	cold, _ := heavyFixture(t)
	const failAfter = 3
	cc := &countingCtx{Context: context.Background(), failAfter: failAfter}
	if _, _, err := cold.EvaluateRelTimedCtx(cc, q, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if polls := cc.polls.Load(); polls > failAfter+1 {
		t.Fatalf("evaluation kept polling %d times after cancellation at poll %d", polls-failAfter-1, failAfter+1)
	}
	got, _, err := cold.EvaluateRelTimedCtx(context.Background(), q, nil)
	if err != nil {
		t.Fatalf("evaluation after a cancelled run: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("after a cancelled run: %d pairs, want %d", got.Len(), want.Len())
	}
}

// TestFullJoinCancelInsideRun is the pair-level mirror of
// TestRowKernelCancelInsideDFS: one source whose 600 Pre-ends each reach
// a 600-vertex cycle, so its one run walks 360,000 closure tuples. Both
// drivers of the pair-level producer — the sealed join and the stream —
// poll the context dozens of times inside that run uncancelled and stop
// at the poll that fails. ASK, a stream stopped at its first pair, finds
// the pair behind an empty first clause, and a cancelled context fails
// it before any work.
func TestFullJoinCancelInsideRun(t *testing.T) {
	const cycle = 600
	b := graph.NewBuilder(cycle + 1)
	for v := 0; v < cycle; v++ {
		b.MustAddEdge(graph.VID(v), "b", graph.VID((v+1)%cycle))
		b.MustAddEdge(cycle, "a", graph.VID(v))
	}
	g := b.Build()
	preG := sealExpr(g, rpq.MustParse("a"))
	closure := tc.BFS(rtc.EdgeReduceRel(g.NumVertices(), sealExpr(g, rpq.MustParse("b"))))
	q := rpq.MustParse("a.b+")
	// Warming the engine with a.b+.a caches Pre_G and the closure but not
	// q's result, so a stream's polls all fall inside the drain.
	warm := New(g, Options{Strategy: FullSharing})
	if _, err := warm.EvaluateRel(rpq.MustParse("a.b+.a")); err != nil {
		t.Fatal(err)
	}
	drivers := []struct {
		name string
		run  func(cc *countingCtx) error
	}{
		{"sealed", func(cc *countingCtx) error {
			c := New(g, Options{Strategy: FullSharing}).call(cc, nil)
			_, err := c.sealClause(c.acquireFull(preG, closure, rpq.ClosurePlus, rpq.Epsilon{}))
			return err
		}},
		{"stream", func(cc *countingCtx) error {
			s, err := warm.OpenStream(cc, q, StreamOptions{})
			if err != nil {
				return err
			}
			defer s.Close()
			buf := make([]pairs.Pair, 64)
			for {
				if _, done, err := s.Next(buf); err != nil || done {
					return err
				}
			}
		}},
	}
	for _, d := range drivers {
		full := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
		if err := d.run(full); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if polls := full.polls.Load(); polls < 20 {
			t.Fatalf("%s: uncancelled join polled %d times — fixture too light to test granularity", d.name, polls)
		}
		const failAfter = 3
		cc := &countingCtx{Context: context.Background(), failAfter: failAfter}
		if err := d.run(cc); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", d.name, err)
		}
		if polls := cc.polls.Load(); polls > failAfter+1 {
			t.Fatalf("%s: join kept polling %d times after cancellation at poll %d", d.name, polls-failAfter-1, failAfter+1)
		}
	}

	for _, opts := range []Options{{Strategy: FullSharing}, {Strategy: NoSharing}} {
		found, _, _, err := New(g, opts).AskCounted(context.Background(), rpq.MustParse("a.b+.a|a.b+"))
		if err != nil || !found {
			t.Fatalf("%v: ask behind an empty first clause = (%v, %v), want found", opts.Strategy, found, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := warm.AskCounted(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ask: err = %v, want context.Canceled", err)
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
// checkpoint, recovers a panic into *QueryPanicError, and counts each
// analysis that started on the engine.
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

// TestConcurrentCallsKeepOwnState: eight cold queries run at once on
// one engine, so every call shares the engine's version — its pools,
// free lists and planner — and each must still keep its own context,
// stage timer and memo. The four whose context cancels after a few
// polls fail with context.Canceled; the four others, sharing
// sub-queries with them, match the reference, and each one's stages sum
// to a positive time no longer than its own wall.
func TestConcurrentCallsKeepOwnState(t *testing.T) {
	// Small enough for the reference, large enough that each cancelled
	// query's own join polls its context a dozen times even when every
	// structure it needs is already cached.
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 300, Edges: 1800, Labels: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := New(g, Options{})
	cancelled := []string{"(l0|l1)+.(l1|l2)+", "(l1|l2)+.(l0|l2)+", "(l0|l2)+.(l0|l1)+", "(l0|l1|l2)+"}
	served := []string{"l0.(l1)+.l2", "l2.(l0|l1)+", "l1.(l2.l0)+", "(l0|l1)+.l2"}

	var wg sync.WaitGroup
	errs := make([]error, len(cancelled))
	for i, q := range cancelled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc := &countingCtx{Context: context.Background(), failAfter: 2}
			_, _, errs[i] = e.EvaluateRelTimedCtx(cc, rpq.MustParse(q), nil)
		}()
	}
	rels := make([]*pairs.Relation, len(served))
	rerrs := make([]error, len(served))
	stages := make([]StageTimer, len(served))
	walls := make([]time.Duration, len(served))
	for i, q := range served {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			rels[i], _, rerrs[i] = e.EvaluateRelTimedCtx(context.Background(), rpq.MustParse(q), &stages[i])
			walls[i] = time.Since(t0)
		}()
	}
	wg.Wait()

	for i, q := range cancelled {
		if !errors.Is(errs[i], context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", q, errs[i])
		}
	}
	for i, q := range served {
		if rerrs[i] != nil {
			t.Errorf("%s: %v", q, rerrs[i])
			continue
		}
		if want := eval.Reference(g, rpq.MustParse(q)); !rels[i].EqualSet(want) {
			t.Errorf("%s: %d pairs, reference has %d", q, rels[i].Len(), want.Len())
		}
		if sum := stages[i].Sum(); sum <= 0 || sum > walls[i] {
			t.Errorf("%s: stages sum to %v, want in (0, %v]: %+v", q, sum, walls[i], stages[i])
		}
	}
	if cc := e.Cache().Counters(); cc.CrossEpochHits != 0 {
		t.Errorf("cross-epoch hits: %d", cc.CrossEpochHits)
	}
}
