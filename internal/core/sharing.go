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

// sharedValue is one shared structure for R with its summary, so a call
// that hits a structure another call computed still records it in
// SharedSummaries. Exactly one of rtc (RTCSharing's reduced transitive
// closure) and closure (the baselines' full closure R+_G) is set.
type sharedValue struct {
	rtc     *rtc.RTC
	closure *tc.Closure
	summary SharedSummary
}

// clauseActuals records what one clause execution really did, for the
// estimated-vs-actual comparison EXPLAIN ANALYZE reports. Pre is -1
// when the clause materialised no Pre relation.
type clauseActuals struct {
	Result  int
	Pre     int
	Charged time.Duration
}

// planObserver captures the chosen plan and per-clause actuals of one
// evaluation for ExplainAnalyze; every other caller passes nil and skips
// all bookkeeping.
type planObserver struct {
	plan    *plan.QueryPlan
	actuals []clauseActuals
}

// evaluatePlanned implements Algorithm 1 (RTCSharing) and its
// FullSharing counterpart, split into plan → execute: convert the query
// to DNF treating outermost Kleene closures as literals, plan each clause
// (Algorithm 1's split at the rightmost closure, or the automaton
// product for a closure-free clause), execute the clause plans, and
// union the results. Each clause is sealed, so EXPLAIN ANALYZE reads its
// exact actuals; a single-clause DNF (the common case) returns its
// relation as-is, and a multi-clause one drains a union of the sealed
// clauses. Planning is Remainder, as every strategy plans identically;
// the clauses and the union run in other, which the stages below them
// pause.
func (c *evalCall) evaluatePlanned(q rpq.Expr, obs *planObserver) (*pairs.Relation, error) {
	prev := c.enter(bucketPlan)
	defer c.enter(prev)
	clauses, err := rpq.ToDNF(q)
	if err != nil {
		return nil, err
	}
	qp := c.planner().Plan(q, clauses)
	c.enter(bucketOther)
	if obs != nil {
		obs.plan = qp
		obs.actuals = make([]clauseActuals, len(qp.Clauses))
	}

	// Two clause results fit on the stack, so a single clause allocates
	// nothing here.
	var buf [2]*pairs.Relation
	rels, summed := buf[:0], 0
	for i := range qp.Clauses {
		// Clause boundary: a cheap cancellation checkpoint between clause
		// executions (the joins and closure builds inside a clause carry
		// their own, finer-grained checkpoints).
		if err := c.checkpoint(1); err != nil {
			return nil, err
		}
		var before time.Duration
		if obs != nil {
			before = c.charged()
		}
		clauseG, act, err := c.execClause(&qp.Clauses[i])
		if err != nil {
			return nil, err
		}
		if obs != nil {
			act.Result = clauseG.Len()
			act.Charged = c.charged() - before
			obs.actuals[i] = act
		}
		// A union's size is known only once it is drained, and at most
		// its clauses' summed pairs: a sum past the bound is refused
		// before anything is drained.
		if summed += clauseG.Len(); summed > MaxResultPairs {
			return nil, checkResultLen(summed)
		}
		rels = append(rels, clauseG)
	}
	if len(rels) == 1 {
		return rels[0], nil
	}
	u := &union{c: c}
	for _, rel := range rels {
		u.parts = append(u.parts, &sealedRuns{c: c, rel: rel})
	}
	return c.drain(u)
}

// execClause executes one planned clause on the columnar layout. It is
// the executor half of the plan/execute split: all physical decisions
// were made by the planner. A single label is a base relation: the
// graph's CSR is its sealed form, so it is neither traversed nor sealed.
// Every other clause is its producer (openClause) sealed by sealClause.
// NoSharing opens the identical per-query pipeline — evaluate R,
// materialise the closure R+_G, join — but shouldCache() keeps it from
// reusing anything across queries, which is exactly the paper's baseline
// behaviour (at one query it costs the same as FullSharing; Fig. 14).
func (c *evalCall) execClause(cp *plan.ClausePlan) (*pairs.Relation, clauseActuals, error) {
	act := clauseActuals{Pre: -1}
	if l, ok := cp.Clause.(rpq.Label); ok {
		return c.labelRelation(l), act, nil
	}
	p, preG, err := c.openClause(cp, fullBatch)
	if err != nil {
		return nil, act, err
	}
	if preG != nil {
		act.Pre = preG.Len()
	}
	if cp.Kind != plan.KindAutomaton {
		prev := c.enter(bucketJoin)
		defer c.enter(prev)
	}
	rel, err := c.sealClause(p)
	return rel, act, err
}

// labelRelation is the relation of a single-label expression, l or ^l:
// the label's forward or reverse CSR in the graph, borrowed rather than
// copied, so it costs the relation region nothing. A label the graph
// does not have gives the empty relation. Callers reach it through
// execClause, below the relation region, so memoisation, singleflight
// and the epoch carry/drop treat it like any other sub-query result.
func (v *engineVersion) labelRelation(l rpq.Label) *pairs.Relation {
	n := v.g.NumVertices()
	if lid, ok := v.g.Dict().Lookup(l.Name); ok {
		if offsets, targets := v.g.LabelCSR(lid, l.Inverse); offsets != nil {
			return pairs.RelationFromBorrowedRuns(n, offsets, targets)
		}
	}
	return pairs.NewBuilder(n).Seal()
}

// subEvaluateRel evaluates a query or sub-query (Pre, Post, or
// FullSharing's R) with the engine's own sharing strategy and seals the
// result, memoising the sealed relation in the SharedCache's relation
// region. A whole query memoises exactly like a sub-query: its result
// depends only on the adjacency of the labels it mentions, so the epoch
// migration's label-disjointness rule applies to it verbatim, and a
// query untouched by an update batch is answered from the carried sealed
// relation with zero recomputation. Repeated batch units over the same
// Pre/Post, in this call or any other on the engine, reuse the same
// frozen columns with zero copying, under the same singleflight
// discipline as the closure structures. Sealed relations are immutable
// by contract; every consumer only reads them. NoSharing engines
// evaluate directly.
// Sub-evaluation time counts as Remainder: both sharing methods perform
// it identically. The boundary's own time — a hit, a singleflight wait
// on another goroutine's evaluation, the lookup and admission around
// this call's own — is the memo bucket, which Stats does not see: the
// call that evaluated accounts the work.
func (c *evalCall) subEvaluateRel(q rpq.Expr) (*pairs.Relation, error) {
	if !c.shouldCache() {
		return c.evaluatePlanned(q, nil)
	}
	prev := c.enter(bucketMemo)
	defer c.enter(prev)
	key := q.String()
	// The overflow memo holds relations the shared region's budget
	// declined during this call; normally it is nil and this is one
	// cheap miss.
	if rel, ok := c.overflow[key]; ok {
		return rel, nil
	}
	// The compute closure runs under the cache's singleflight; a panic
	// inside it would leave co-waiters blocked forever, so it is recovered
	// into an error here — the cache then drops the entry and unblocks
	// every waiter with the error.
	val, _, retained, err := c.cache.getOrCompute(&c.cache.relations, c.epoch, key, func() (v any, err error) {
		defer recoverPanic(q, &err)
		return c.evaluatePlanned(q, nil)
	})
	if err != nil {
		return nil, err
	}
	rel := val.(*pairs.Relation)
	if !retained {
		// Shared region full: keep the relation for the rest of this
		// call, so the call's other batch units still reuse the columns.
		if c.overflow == nil {
			c.overflow = make(map[string]*pairs.Relation)
		}
		c.overflow[key] = rel
	}
	return rel, nil
}

// shouldCache reports whether shared structures and sub-results may be
// reused across queries. NoSharing never caches — that is its defining
// property.
func (sh *engineShared) shouldCache() bool {
	return sh.opts.Strategy != NoSharing
}

// getShared returns R's shared structure, computing it on first use
// (Algorithm 1 lines 9–11): the RTC under RTCSharing, the full closure
// R+_G = TC(G_R) under the baselines. Under singleflight, concurrent
// first uses of the same R compute it exactly once — the engine that ran
// the computation counts the miss, the ones that waited count hits. The
// boundary's own time — a hit, a singleflight wait, the bookkeeping
// around this call's own computation — is the structure bucket: the
// request's closure-build stage, while Stats stays with the computation.
// NoSharing computes the full closure afresh every time.
func (c *evalCall) getShared(r rpq.Expr) (*sharedValue, error) {
	if !c.shouldCache() {
		v, err := c.computeFullClosure(r)
		if err != nil {
			return nil, err
		}
		c.countLookup(false, v)
		return v, nil
	}
	prev := c.enter(bucketStructure)
	defer c.enter(prev)
	val, computed, _, err := c.cache.getOrCompute(&c.cache.structures, c.epoch, r.String(), func() (v any, err error) {
		defer recoverPanic(r, &err)
		if c.opts.Strategy == RTCSharing {
			return c.computeRTC(r)
		}
		return c.computeFullClosure(r)
	})
	if err != nil {
		return nil, err
	}
	v := val.(*sharedValue)
	c.countLookup(!computed, v)
	return v, nil
}

// reduceR evaluates R and performs the edge-level reduction G → G_R for
// FullSharing and NoSharing. The sealed relation *is* G_R's forward
// adjacency — EdgeReduceRel aliases its frozen columns and only derives
// the reverse CSR. Like evaluating R_G itself, the reduction counts as
// Remainder, not Shared_Data (paper Section V-A).
func (c *evalCall) reduceR(r rpq.Expr) (*graph.DiGraph, error) {
	prev := c.enter(bucketOther)
	defer c.enter(prev)
	rg, err := c.subEvaluateRel(r)
	if err != nil {
		return nil, err
	}
	return rtc.EdgeReduceRel(c.g.NumVertices(), rg), nil
}

// computeRTC builds R's reduced transitive closure (Algorithm 1 lines
// 10–11) from R's product graph, so R_G is never evaluated or memoised:
// rtc.FromProduct reads the SCCs of G_R and the reachability between
// them off the product of G with R's automaton. All of it is
// Shared_Data, and it polls the engine's cancellation checkpoint (if
// any) while it walks the product. |TC(Ḡ_R)| is not built here;
// SharedSummaries computes it on demand.
func (c *evalCall) computeRTC(r rpq.Expr) (*sharedValue, error) {
	prev := c.enter(bucketBuild)
	defer c.enter(prev)
	structure, err := rtc.FromProduct(c.g, r, c.checkpointFn())
	if err != nil {
		return nil, err
	}
	return &sharedValue{
		rtc: structure,
		summary: SharedSummary{
			R:                   r.String(),
			ReducedVertices:     structure.NumReducedVertices(),
			EdgeReducedVertices: structure.NumActiveVertices(),
			AvgSCCSize:          structure.AverageSCCSize(),
		},
	}, nil
}

// computeFullClosure evaluates R and materialises the full closure of
// the edge-level reduced graph G_R.
func (c *evalCall) computeFullClosure(r rpq.Expr) (*sharedValue, error) {
	gr, err := c.reduceR(r)
	if err != nil {
		return nil, err
	}

	// Shared_Data for FullSharing: the closure of the *unreduced* G_R —
	// Table III's O(|V_R|·|E_R|) computation, checkpointed per level of
	// each 64-source batch.
	prev := c.enter(bucketBuild)
	closure, err := tc.BFSCheck(gr, c.checkpointFn())
	c.enter(prev)
	if err != nil {
		return nil, err
	}

	return &sharedValue{
		closure: closure,
		summary: SharedSummary{
			R:                   r.String(),
			SharedPairs:         closure.NumPairs(),
			ReducedVertices:     gr.NumActive(),
			EdgeReducedVertices: gr.NumActive(),
		},
	}, nil
}
