package core

import (
	"time"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// Cache-key namespaces. The SharedCache's structure region holds two
// kinds of values keyed by sub-query text; the prefixes keep them apart.
// '\x00' cannot appear in a canonical expression string. (Sealed
// sub-query relations live in the cache's separate relation region,
// keyed by the bare sub-query text.)
const (
	nsRTC  = "rtc\x00"  // *rtcValue: TC(Ḡ_R) + SCC tables
	nsFull = "full\x00" // *fullValue: the full closure R+_G
)

// rtcValue and fullValue pair a shared structure with its summary, so an
// engine that fetches a structure computed by another engine still
// reports it in SharedSummaries.
type rtcValue struct {
	structure *rtc.RTC
	summary   SharedSummary
}

type fullValue struct {
	closure *tc.Closure
	summary SharedSummary
}

// clauseActuals records what one clause execution really did, for the
// estimated-vs-actual comparison EXPLAIN ANALYZE reports. Pre is -1
// when the clause materialised no Pre relation.
type clauseActuals struct {
	Result  int
	Pre     int
	Elapsed time.Duration
}

// planObserver captures the chosen plan and per-clause actuals of one
// evaluation; evaluateSharing passes nil and skips all bookkeeping.
type planObserver struct {
	plan    *plan.QueryPlan
	actuals []clauseActuals
}

// evaluateSharing implements Algorithm 1 (RTCSharing) and its FullSharing
// counterpart, split into plan → execute: convert the query to DNF
// treating outermost Kleene closures as literals, plan each clause
// (Algorithm 1's split at the rightmost closure, or the automaton
// product for a closure-free clause), execute the clause plans, and
// union the results.
//
// The executor runs on sealed columnar relations; the public result is a
// mutable Set, materialised once at this boundary.
func (e *engineVersion) evaluateSharing(q rpq.Expr) (*pairs.Set, error) {
	rel, err := e.evaluateRelCached(q)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	set := rel.ToSet()
	e.addRemainder(time.Since(t0))
	return set, nil
}

// evaluateRelCached is the columnar top-level entry: on caching engines
// the whole query memoises through the relation region exactly like a
// sub-query — a query result depends only on the adjacency of the
// labels it mentions, so the epoch migration's label-disjointness rule
// applies to it verbatim, and a query untouched by an update batch is
// answered from the carried sealed relation with zero recomputation.
// NoSharing engines evaluate directly.
func (e *engineVersion) evaluateRelCached(q rpq.Expr) (*pairs.Relation, error) {
	if !e.shouldCache() {
		return e.evaluatePlanned(q, nil)
	}
	return e.subEvaluateRel(q)
}

// evaluatePlanned is the columnar plan-execute pipeline: clause results
// are sealed relations, a single-clause DNF (the common case) returns
// its relation as-is, and a multi-clause union merges through one pooled
// builder sealed once.
func (e *engineVersion) evaluatePlanned(q rpq.Expr, obs *planObserver) (*pairs.Relation, error) {
	start := time.Now()
	clauses, err := rpq.ToDNFLimit(q, e.maxClauses())
	if err != nil {
		e.addPlan(time.Since(start))
		return nil, err
	}
	// Planning time counts as Remainder: every strategy plans
	// identically, like the DNF conversion itself. (In the per-request
	// stage breakdown it is the Plan stage.)
	qp := e.planner().Plan(q, clauses)
	e.addPlan(time.Since(start))
	if obs != nil {
		obs.plan = qp
		obs.actuals = make([]clauseActuals, len(qp.Clauses))
	}

	var (
		result *pairs.Relation
		merge  *pairs.Builder
	)
	for i := range qp.Clauses {
		// Clause boundary: a cheap cancellation checkpoint between clause
		// executions (the joins and closure builds inside a clause carry
		// their own, finer-grained checkpoints).
		if err := e.checkpoint(1); err != nil {
			if merge != nil {
				e.releaseBuilder(merge)
			}
			return nil, err
		}
		t0 := time.Now()
		clauseG, act, err := e.execClause(&qp.Clauses[i])
		if err != nil {
			if merge != nil {
				e.releaseBuilder(merge)
			}
			return nil, err
		}
		if obs != nil {
			act.Result = clauseG.Len()
			act.Elapsed = time.Since(t0)
			obs.actuals[i] = act
		}
		t0 = time.Now()
		switch {
		case result == nil && merge == nil:
			// First clause: adopt its sealed relation. With a
			// single-clause DNF — the common case — no union happens at
			// all.
			result = clauseG
		case merge == nil:
			merge = e.acquireBuilder()
			merge.AddRelation(result)
			merge.AddRelation(clauseG)
			result = nil
		default:
			merge.AddRelation(clauseG)
		}
		e.addRemainder(time.Since(t0))
	}
	if merge != nil {
		t0 := time.Now()
		result = merge.Seal()
		e.releaseBuilder(merge)
		e.addSeal(time.Since(t0))
	}
	if result == nil {
		result = pairs.NewBuilder(e.g.NumVertices()).Seal()
	}
	return result, nil
}

// execClause executes one planned clause on the columnar layout. It is
// the executor half of the plan/execute split: all physical decisions
// were made by the planner, and this switch only dispatches them.
func (e *engineVersion) execClause(cp *plan.ClausePlan) (*pairs.Relation, clauseActuals, error) {
	act := clauseActuals{Pre: -1}

	if cp.Kind == plan.KindAutomaton {
		// Algorithm 1 line 6 (closure-free clause): one product
		// traversal, seeded with the first-step candidates when
		// admissible, emitting straight into a pooled builder sealed once.
		t0 := time.Now()
		ev, key := e.acquireEvaluator(cp.Clause)
		b := e.acquireBuilder()
		ev.AppendAllSeeded(b)
		e.addRemainder(time.Since(t0))
		t0 = time.Now()
		clauseG := b.Seal()
		e.releaseBuilder(b)
		e.releaseEvaluator(key, ev)
		e.addSeal(time.Since(t0))
		return clauseG, act, nil
	}

	// Algorithm 1 line 8: Pre evaluates recursively (it may contain
	// further Kleene closures left of the rightmost one).
	bu := cp.Unit
	preG, err := e.subEvaluateRel(bu.Pre)
	if err != nil {
		return nil, act, err
	}
	act.Pre = preG.Len()

	var clauseG *pairs.Relation
	switch e.opts.Strategy {
	case RTCSharing:
		r, err := e.getRTC(bu.R)
		if err != nil {
			return nil, act, err
		}
		if clauseG, err = e.EvalBatchUnit(preG, r, bu.Type, bu.Post); err != nil {
			return nil, act, err
		}
	case FullSharing, NoSharing:
		// NoSharing runs the identical per-query pipeline — evaluate R,
		// materialise the closure R+_G, join — but shouldCache() keeps it
		// from reusing anything across queries, which is exactly the
		// paper's baseline behaviour (at one query it costs the same as
		// FullSharing; Fig. 14).
		closure, err := e.getFullClosure(bu.R)
		if err != nil {
			return nil, act, err
		}
		if clauseG, err = e.EvalBatchUnitFull(preG, closure, bu.Type, bu.Post); err != nil {
			return nil, act, err
		}
	}
	return clauseG, act, nil
}

// subEvaluateRel evaluates a sub-query (Pre, Post or R) with the
// engine's own sharing strategy and seals the result, memoising the
// sealed relation in the SharedCache's relation region: repeated batch
// units over the same Pre/Post — and every engine sharing the cache,
// including the forks of EvaluateBatchParallel — reuse the same frozen
// columns with zero copying, under the same singleflight discipline as
// the closure structures. (The seed memoised map sets per engine because
// they were heavyweight; a sealed relation is two exactly-sized int32
// columns, cheap enough to keep process-wide, and Reset/ClearCaches
// still drops them.) Sealed relations are immutable by contract; every
// consumer only reads them. Sub-evaluation time counts as Remainder:
// both sharing methods perform it identically.
func (e *engineVersion) subEvaluateRel(q rpq.Expr) (*pairs.Relation, error) {
	if !e.shouldCache() {
		return e.evaluatePlanned(q, nil)
	}
	key := q.String()
	// The overflow memo holds relations the shared region's budget
	// declined; normally it is empty and this is one cheap miss.
	e.subMu.Lock()
	rel, ok := e.subRels[key]
	e.subMu.Unlock()
	if ok {
		return rel, nil
	}
	t0 := time.Now()
	// The compute closure runs under the cache's singleflight; a panic
	// inside it would leave co-waiters blocked forever, so it is recovered
	// into an error here — the cache then drops the entry and unblocks
	// every waiter with the error.
	val, computed, retained, err := e.cache.GetOrComputeRelation(e.epoch, key, func() (v any, err error) {
		defer recoverPanic(key, &err)
		return e.evaluatePlanned(q, nil)
	})
	if !computed {
		// A memo hit — or a singleflight wait on another goroutine's
		// in-flight evaluation. The wall time is real for this request's
		// breakdown, but Stats must not see it: the computing engine
		// already attributed the work (and on the computed branch this
		// engine's own inner calls did).
		e.stageOtherWait(time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	rel = val.(*pairs.Relation)
	if !retained {
		// Shared region full: keep the relation for this engine's
		// lifetime (the seed's per-engine discipline as the fallback),
		// so repeated batch units still reuse the columns.
		e.subMu.Lock()
		e.subRels[key] = rel
		e.subMu.Unlock()
	}
	return rel, nil
}

// shouldCache reports whether shared structures and sub-results may be
// reused across queries. NoSharing never caches — that is its defining
// property.
func (sh *engineShared) shouldCache() bool {
	return sh.opts.Strategy != NoSharing
}

// getRTC returns the shared RTC for R, computing it on first use
// (Algorithm 1 lines 9–11). Under singleflight, concurrent first uses of
// the same R compute it exactly once — the engine that ran the
// computation counts the miss, the ones that waited count hits.
func (e *engineVersion) getRTC(r rpq.Expr) (*rtc.RTC, error) {
	if !e.shouldCache() {
		v, err := e.computeRTC(r)
		if err != nil {
			return nil, err
		}
		e.countLookup(false, v.summary)
		return v.structure, nil
	}
	key := nsRTC + r.String()
	t0 := time.Now()
	val, computed, err := e.cache.GetOrCompute(e.epoch, key, func() (v any, err error) {
		defer recoverPanic(r.String(), &err)
		return e.computeRTC(r)
	})
	if !computed {
		// Cache hit or singleflight wait: this request's wall clock
		// passed at the closure boundary, so the stage breakdown charges
		// it to closure-build, while Stats stays with the engine that
		// computed the structure.
		e.stageClosureWait(time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	v := val.(*rtcValue)
	e.countLookup(!computed, v.summary)
	return v.structure, nil
}

// reduceR evaluates R and performs the edge-level reduction G → G_R.
// The sealed relation *is* G_R's forward adjacency — EdgeReduceRel
// aliases its frozen columns and only derives the reverse CSR. The
// reduction is performed identically by both sharing methods, so — like
// evaluating R_G itself — it counts as Remainder, not Shared_Data (paper
// Section V-A).
func (e *engineVersion) reduceR(r rpq.Expr) (*graph.DiGraph, error) {
	rg, err := e.subEvaluateRel(r)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	gr := rtc.EdgeReduceRel(e.g.NumVertices(), rg)
	e.addRemainder(time.Since(t0))
	return gr, nil
}

// computeRTC evaluates R and builds its reduced transitive closure.
// Evaluating R_G is Remainder; the reduction and TC(Ḡ_R) are Shared_Data.
func (e *engineVersion) computeRTC(r rpq.Expr) (*rtcValue, error) {
	gr, err := e.reduceR(r) // line 10: R_G via recursive sharing evaluation
	if err != nil {
		return nil, err
	}

	// Shared_Data for RTCSharing: the vertex-level reduction (Tarjan +
	// condensation) and TC(Ḡ_R). The paper attributes the reduction
	// overhead here too — it is what makes RTCSharing slightly slower
	// than FullSharing on the Yago2s shape. The closure build polls the
	// engine's cancellation checkpoint (if any): it is the dominant cost
	// of an RTC, so an abandoned query stops here, not after.
	t0 := time.Now()
	structure, err := rtc.ComputeCheck(gr, e.checkpointFn()) // line 11: Compute_RTC
	e.addShared(time.Since(t0))
	if err != nil {
		return nil, err
	}

	return &rtcValue{
		structure: structure,
		summary: SharedSummary{
			R:                   r.String(),
			SharedPairs:         structure.NumSharedPairs(),
			ReducedVertices:     structure.NumReducedVertices(),
			EdgeReducedVertices: gr.NumActive(),
			AvgSCCSize:          structure.Components().AverageSize(),
		},
	}, nil
}

// getFullClosure returns the shared full closure R+_G = TC(G_R) for
// FullSharing, computing it on first use with the same singleflight
// discipline as getRTC.
func (e *engineVersion) getFullClosure(r rpq.Expr) (*tc.Closure, error) {
	if !e.shouldCache() {
		v, err := e.computeFullClosure(r)
		if err != nil {
			return nil, err
		}
		e.countLookup(false, v.summary)
		return v.closure, nil
	}
	t0 := time.Now()
	val, computed, err := e.cache.GetOrCompute(e.epoch, nsFull+r.String(), func() (v any, err error) {
		defer recoverPanic(r.String(), &err)
		return e.computeFullClosure(r)
	})
	if !computed {
		e.stageClosureWait(time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	v := val.(*fullValue)
	e.countLookup(!computed, v.summary)
	return v.closure, nil
}

// computeFullClosure evaluates R and materialises the full closure of
// the edge-level reduced graph G_R.
func (e *engineVersion) computeFullClosure(r rpq.Expr) (*fullValue, error) {
	gr, err := e.reduceR(r)
	if err != nil {
		return nil, err
	}

	// Shared_Data for FullSharing: the closure of the *unreduced* G_R —
	// Table III's O(|V_R|·|E_R|) computation, checkpointed per source.
	t0 := time.Now()
	closure, err := tc.BFSCheck(gr, e.checkpointFn())
	e.addShared(time.Since(t0))
	if err != nil {
		return nil, err
	}

	return &fullValue{
		closure: closure,
		summary: SharedSummary{
			R:                   r.String(),
			SharedPairs:         closure.NumPairs(),
			ReducedVertices:     gr.NumActive(),
			EdgeReducedVertices: gr.NumActive(),
		},
	}, nil
}
