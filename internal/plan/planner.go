package plan

import (
	"math"
	"sync"

	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// Config parameterises a Planner.
type Config struct {
	// SharedCached, when non-nil, reports whether the shared closure
	// structure for a sub-query R is already cached — a sunk cost the
	// model then excludes. Nil means never cached.
	SharedCached func(r rpq.Expr) bool
}

// Planner plans DNF clauses for one graph. It is safe for concurrent
// use: its configuration and estimator are immutable after New (the
// SharedCached callback may consult mutable state of its own), and the
// only mutable state is the mutex-guarded decomposition memo.
type Planner struct {
	est *Estimator
	cfg Config

	// unitsMu guards units, the memo of clause decompositions.
	// rpq.Decompose is a pure function of the clause but rebuilds the
	// Pre/Post concatenations on every call; batch evaluation re-plans
	// the same clause shapes constantly, so the memo keeps steady-state
	// planning allocation-free. Memoised units are immutable by contract.
	unitsMu sync.Mutex
	units   map[string]rpq.BatchUnit
}

// New builds a planner over g's statistics.
func New(g *graph.Graph, cfg Config) *Planner {
	return &Planner{est: NewEstimator(g), cfg: cfg, units: make(map[string]rpq.BatchUnit)}
}

// decompose returns the memoised rightmost-closure split of clause.
func (p *Planner) decompose(clause rpq.Expr) rpq.BatchUnit {
	key := clause.String()
	p.unitsMu.Lock()
	unit, ok := p.units[key]
	p.unitsMu.Unlock()
	if ok {
		return unit
	}
	unit = rpq.Decompose(clause)
	p.unitsMu.Lock()
	p.units[key] = unit
	p.unitsMu.Unlock()
	return unit
}

// buildDiscount scales the cost of building a shared structure that is
// not yet cached. The engine exists for multiple-RPQ sets: a structure
// built for this clause is expected to be reused by the other queries
// sharing its R (the paper's sets share one R across ~4–10 queries), so
// the estimate charges the first query only part of the build.
const buildDiscount = 0.25

// joinTuple is the per-tuple cost of the batch-unit join pipeline, in
// the model's original unit: one hash-table tuple touch, which is also
// what a traversal step is charged. The executor walks sealed CSR runs
// sequentially and appends results into pooled builders, which the
// layout measurement recorded in DESIGN §6 put at roughly half that
// cost.
const joinTuple = 0.5

// Plan plans a query whose DNF clauses have already been computed (the
// engine owns the DNF bound, so the conversion stays there).
func (p *Planner) Plan(q rpq.Expr, clauses []rpq.Expr) *QueryPlan {
	qp := &QueryPlan{Query: q, Clauses: make([]ClausePlan, len(clauses))}
	for i, c := range clauses {
		qp.Clauses[i] = p.PlanClause(c)
	}
	return qp
}

// PlanClause plans one DNF clause: Algorithm 1's split at the rightmost
// outermost closure, or the automaton product when there is none.
func (p *Planner) PlanClause(clause rpq.Expr) ClausePlan {
	unit := p.decompose(clause)
	if unit.Type == rpq.ClosureNone {
		return p.automatonPlan(clause, unit)
	}
	return p.sharedPlan(clause, unit)
}

// automatonPlan costs evaluating the whole clause by product traversal.
func (p *Planner) automatonPlan(clause rpq.Expr, unit rpq.BatchUnit) ClausePlan {
	out := p.est.Expr(clause)
	return ClausePlan{
		Clause: clause,
		Kind:   KindAutomaton,
		Unit:   unit,
		Est: Estimates{
			Cost:     p.est.evalCost(clause),
			OutPairs: out.Pairs,
		},
	}
}

// sharedPlan costs one batch-unit split executed through the shared
// closure structure of R, driven forward from Pre (Algorithm 2). The
// model follows the executor's loops:
//
//	|Pre_G| + Srcs(Pre)·fanout(R+)    (ResEq9, deduped per v_i)
//	each ResEq9 tuple extended by Post's per-vertex fan-out, plus one
//	Post traversal (degree-weighted) per distinct end vertex
//
// Join tuples are charged at the joinTuple rate; traversal terms — the
// Pre relation, the memoised Post traversals, and (unless cached)
// building R's structure from its product graph, one step per product
// edge — at 1.
func (p *Planner) sharedPlan(clause rpq.Expr, unit rpq.BatchUnit) ClausePlan {
	pre := p.est.Expr(unit.Pre)
	post := p.est.Expr(unit.Post)
	tc := p.est.Expr(rpq.Plus{Sub: unit.R})

	cached := p.cfg.SharedCached != nil && p.cfg.SharedCached(unit.R)
	shared := 0.0
	if !cached {
		shared = p.est.productEdges(unit.R) * buildDiscount
	}

	fanout := tc.Pairs / math.Max(tc.Srcs, 1)
	mid := pre.Pairs + pre.Srcs*fanout
	postFan := post.Pairs / math.Max(post.Srcs, 1)
	// Post traversals run once per distinct v_k (memoised), each paying
	// the adjacency-scan factor like any traversal.
	distinctVk := math.Min(mid, p.est.NumVertices())
	cost := p.est.evalCost(unit.Pre) + shared + mid*(1+postFan)*joinTuple +
		distinctVk*postFan*p.est.scanFactor()
	vv := p.est.NumVertices() * p.est.NumVertices()
	return ClausePlan{
		Clause:       clause,
		Kind:         KindShared,
		Unit:         unit,
		SharedCached: cached,
		Est: Estimates{
			Cost:         cost,
			PrePairs:     pre.Pairs,
			ClosurePairs: tc.Pairs,
			PostPairs:    post.Pairs,
			OutPairs:     math.Min(mid*postFan, vv),
		},
	}
}
