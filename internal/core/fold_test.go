package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"rtcshare/internal/datagen"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
)

// TestStatsAndStagesFoldOneRecord: the engine's Stats and a call's
// StageTimer are two folds of one timing of the call. On the
// differential fixtures, under every strategy on a fresh engine, each
// timed call raises PreJoin by exactly its JoinNS, SharedData by at most
// its ClosureBuildNS and Remainder by at most PlanNS + SealNS + OtherNS
// — the cache boundaries reach the timer only — and Queries and the
// cache counts exactly. Which parts move is pinned per query: a result
// memo hit moves no part of the split; otherwise planning always runs,
// the join runs exactly when a clause joins through a closure structure,
// and SharedData moves exactly when the call built a structure.
func TestStatsAndStagesFoldOneRecord(t *testing.T) {
	for _, dc := range differentialCases() {
		g := dc.graph(t)
		qs := dc.queries(t, g.Dict())
		for _, s := range []Strategy{RTCSharing, FullSharing, NoSharing} {
			e := New(g, Options{Strategy: s})
			// The second pass hits the result memo on sharing engines.
			for range 2 {
				for _, q := range qs {
					checkFold(t, e, q)
				}
			}
		}
	}

	t.Run("ColdStream", func(t *testing.T) {
		g := differentialCases()[0].graph(t)
		for _, s := range []Strategy{RTCSharing, FullSharing, NoSharing} {
			e := New(g, Options{Strategy: s})
			rs, err := e.OpenStream(context.Background(), rpq.MustParse("l0.l1+.l2"), StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]pairs.Pair, 64)
			for done := false; !done; {
				if _, done, err = rs.Next(buf); err != nil {
					t.Fatal(err)
				}
			}
			rs.Close()
			if st := e.Stats(); st.PreJoin != 0 {
				t.Errorf("%s: a cold stream added %v of PreJoin", s, st.PreJoin)
			}
		}
	})

	t.Run("Waiter", testFoldWaiter)
}

// checkFold runs q once, timed, and checks the fold identities on the
// Stats it added.
func checkFold(t *testing.T, e *Engine, q rpq.Expr) {
	t.Helper()
	strategy := e.Options().Strategy
	_, _, warm := e.CachedResult(q) // a hit counts a query itself
	p, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	joins := false
	for _, c := range p.Clauses {
		joins = joins || c.Kind == plan.KindShared.String()
	}
	var wantMisses int
	if strategy == NoSharing {
		wantMisses = noSharingBuilds(t, e, q)
	}
	before, counters := e.Stats(), e.Cache().Counters()

	var st StageTimer
	if _, _, err := e.EvaluateRelTimedCtx(context.Background(), q, &st); err != nil {
		t.Fatalf("%s %s: %v", strategy, q, err)
	}
	after, countersAfter := e.Stats(), e.Cache().Counters()
	shared := after.SharedData - before.SharedData
	preJoin := after.PreJoin - before.PreJoin
	remainder := after.Remainder - before.Remainder
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s %s (memo hit %v): "+format+"\nstages %+v", append(append([]any{strategy, q, warm}, args...), st)...)
	}

	if preJoin != time.Duration(st.JoinNS) {
		fail("PreJoin rose %v, JoinNS %v", preJoin, time.Duration(st.JoinNS))
	}
	if shared > time.Duration(st.ClosureBuildNS) {
		fail("SharedData rose %v, more than ClosureBuildNS %v", shared, time.Duration(st.ClosureBuildNS))
	}
	if limit := time.Duration(st.PlanNS + st.SealNS + st.OtherNS); remainder > limit {
		fail("Remainder rose %v, more than Plan+Seal+Other %v", remainder, limit)
	}
	if n := after.Queries - before.Queries; n != 1 {
		fail("Queries rose %d, want 1", n)
	}
	if strategy == NoSharing {
		if hits != 0 || misses != wantMisses {
			fail("%d hits and %d misses, want 0 and the %d structures its plans build", hits, misses, wantMisses)
		}
	} else if int64(hits) != countersAfter.Hits-counters.Hits || int64(misses) != countersAfter.Misses-counters.Misses {
		fail("%d hits and %d misses, the cache counted %d and %d", hits, misses,
			countersAfter.Hits-counters.Hits, countersAfter.Misses-counters.Misses)
	}
	if st.QueueNS != 0 || st.CoalesceWaitNS != 0 || st.PageNS != 0 {
		fail("the engine wrote serving-layer stages")
	}

	if warm {
		if shared != 0 || preJoin != 0 || remainder != 0 || hits != 0 || misses != 0 {
			fail("a memo hit moved the split: SharedData %v, PreJoin %v, Remainder %v, %d hits, %d misses",
				shared, preJoin, remainder, hits, misses)
		}
		if st.PlanNS != 0 || st.ClosureBuildNS != 0 || st.SealNS != 0 || st.OtherNS <= 0 {
			fail("a memo hit is its boundary's time alone, in Other")
		}
		return
	}
	if remainder <= 0 || st.PlanNS <= 0 {
		fail("no planning charged: Remainder %v", remainder)
	}
	if (preJoin > 0) != joins {
		fail("PreJoin rose %v; the plan joins through a structure: %v", preJoin, joins)
	}
	if (shared > 0) != (misses > 0) {
		fail("SharedData rose %v with %d structures built", shared, misses)
	}
	if (st.ClosureBuildNS > 0) != (hits+misses > 0) {
		fail("ClosureBuildNS %v with %d structure lookups", time.Duration(st.ClosureBuildNS), hits+misses)
	}
}

// noSharingBuilds counts the closure structures a NoSharing evaluation
// of q builds: one per clause joined through a structure, plus those of
// its Pre and R, which NoSharing evaluates afresh.
func noSharingBuilds(t *testing.T, e *Engine, q rpq.Expr) int {
	t.Helper()
	clauses, err := rpq.ToDNF(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, cp := range e.version().planner().Plan(q, clauses).Clauses {
		if cp.Kind == plan.KindShared {
			n += 1 + noSharingBuilds(t, e, cp.Unit.Pre) + noSharingBuilds(t, e, cp.Unit.R)
		}
	}
	return n
}

// gateCtx parks the first checkpoint poll after the entry's own check
// until release closes; inside a cold structure build, that parks the
// build's singleflight.
type gateCtx struct {
	context.Context
	polls           atomic.Int32
	parked, release chan struct{}
}

func (g *gateCtx) Err() error {
	if g.polls.Add(1) == 2 {
		close(g.parked)
		<-g.release
	}
	return nil
}

// testFoldWaiter: two calls race one cold R on one engine. The builder
// is parked inside the build while the other call arrives, so the other
// waits on the singleflight. Stats count one build, the builder's; the
// waiter's wait is closure-build time in its own timer and nothing in
// SharedData.
func testFoldWaiter(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 2048, Edges: 16384, Labels: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const park = 20 * time.Millisecond
	e := New(g, Options{})
	gate := &gateCtx{Context: context.Background(), parked: make(chan struct{}), release: make(chan struct{})}
	var builder, waiter StageTimer
	errs := make(chan error, 2)
	go func() {
		_, _, err := e.EvaluateRelTimedCtx(gate, rpq.MustParse("l1.l0+"), &builder)
		errs <- err
	}()
	select {
	case <-gate.parked:
	case err := <-errs:
		t.Fatalf("the builder finished (%v) without polling its context", err)
	}
	go func() {
		_, _, err := e.EvaluateRelTimedCtx(context.Background(), rpq.MustParse("l2.l0+"), &waiter)
		errs <- err
	}()
	// Nothing signals that the waiter parked on the build; a waiter that
	// arrives later hits the finished structure and passes as well, so
	// the sleep only makes the wait the likely case.
	time.Sleep(park)
	close(gate.release)
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	st := e.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("%d misses and %d hits, want one build and one wait", st.CacheMisses, st.CacheHits)
	}
	if st.SharedData < park {
		t.Errorf("SharedData %v is shorter than the build was parked (%v): the gate parked outside the build", st.SharedData, park)
	}
	if st.SharedData > time.Duration(builder.ClosureBuildNS) {
		t.Errorf("SharedData %v is more than the builder's ClosureBuildNS %v: the waiter's %v was counted",
			st.SharedData, time.Duration(builder.ClosureBuildNS), time.Duration(waiter.ClosureBuildNS))
	}
	if waiter.ClosureBuildNS <= 0 {
		t.Errorf("the waiter charged no closure-build time: %+v", waiter)
	}
	if want := time.Duration(builder.JoinNS + waiter.JoinNS); st.PreJoin != want {
		t.Errorf("PreJoin %v, want the two calls' JoinNS, %v", st.PreJoin, want)
	}
}
