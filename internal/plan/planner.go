package plan

import (
	"math"
	"sync"

	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// Config parameterises a Planner.
type Config struct {
	// Mode selects heuristic (paper pipeline) or cost-based planning.
	Mode Mode
	// SharedCached, when non-nil, reports whether the shared closure
	// structure for a sub-query R is already cached — a sunk cost the
	// model then excludes. Nil means never cached.
	SharedCached func(r rpq.Expr) bool
	// Calibration, when non-nil, supplies the measured-cardinality
	// correction factor applied to the chosen plan's absolute
	// estimates. Relative candidate comparison stays uncalibrated (a
	// uniform factor cannot change it), so calibration moves admission
	// thresholds and EXPLAIN numbers, never plan choice.
	Calibration *Calibration
}

// Planner plans DNF clauses for one graph. It is safe for concurrent
// use: its configuration and estimator are immutable after New (the
// SharedCached callback may consult mutable state of its own), and the
// only mutable state is the mutex-guarded decomposition memo.
type Planner struct {
	est *Estimator
	cfg Config

	// unitsMu guards units, the memo of clause decompositions.
	// DecomposeAll is a pure function of the clause but rebuilds the
	// Pre/Post concatenations on every call; batch evaluation re-plans
	// the same clause shapes constantly, so the memo keeps steady-state
	// planning allocation-free. Memoised slices are immutable by
	// contract.
	unitsMu sync.Mutex
	units   map[string][]rpq.BatchUnit
}

// New builds a planner over g's statistics.
func New(g *graph.Graph, cfg Config) *Planner {
	return &Planner{est: NewEstimator(g), cfg: cfg, units: make(map[string][]rpq.BatchUnit)}
}

// decomposeAll returns the memoised clause decomposition.
func (p *Planner) decomposeAll(clause rpq.Expr) []rpq.BatchUnit {
	key := clause.String()
	p.unitsMu.Lock()
	units, ok := p.units[key]
	p.unitsMu.Unlock()
	if ok {
		return units
	}
	units = rpq.DecomposeAll(clause)
	p.unitsMu.Lock()
	p.units[key] = units
	p.unitsMu.Unlock()
	return units
}

// Estimator exposes the planner's cardinality estimator.
func (p *Planner) Estimator() *Estimator { return p.est }

// Mode returns the planning mode.
func (p *Planner) Mode() Mode { return p.cfg.Mode }

// deviationMargin is how decisively an alternative must beat the
// heuristic default (rightmost anchor, forward) before the cost-based
// planner deviates from it. The estimates are coarse; demanding a 40%
// predicted win keeps the cost-based mode from trading the paper's
// well-understood pipeline for marginal, possibly imaginary, gains —
// which is also what keeps it within noise of the heuristic on
// workloads with no exploitable asymmetry.
const deviationMargin = 0.6

// buildDiscount scales the cost of building a shared structure that is
// not yet cached. The engine exists for multiple-RPQ sets: a structure
// built for this clause is expected to be reused by the other queries
// sharing its R (the paper's sets share one R across ~4–10 queries), so
// charging the full build cost to the first query would push the
// planner toward bypasses that starve the cache and forfeit the
// amortisation for the whole set.
const buildDiscount = 0.25

// deviationFloor, in units of |V| join-tuple costs, is the minimum
// predicted cost of the heuristic default before alternative *shared*
// plans (backward direction, non-rightmost anchors) are considered.
// Below it the clause's whole execution is within a couple hundred
// tuple touches per vertex: the constant factors those alternatives add
// — materialising the other side relation, building the transposed
// closure — dominate there, and the forward pipeline's single pass wins
// regardless of what the asymptotic estimates say. The automaton bypass
// is exempt: it removes work (no structure, no side relations) rather
// than adding any, so it may compete at any scale. The floor is
// expressed in tuple units and scaled by joinTuple.
const deviationFloor = 200

// joinTuple is the per-tuple cost of the batch-unit join pipeline, in
// the model's original unit: one hash-table tuple touch, which is also
// what a traversal step is charged. The executor walks sealed CSR runs
// sequentially and appends results into pooled builders, which the
// layout measurement recorded in DESIGN §6 put at roughly half that
// cost. Only the ratio to the traversal terms matters to plan choice:
// cheaper join tuples shift the bypass/shared break-even toward shared
// plans.
const joinTuple = 0.5

// Plan plans a query whose DNF clauses have already been computed (the
// engine owns the DNF bound, so the conversion stays there).
func (p *Planner) Plan(q rpq.Expr, clauses []rpq.Expr) *QueryPlan {
	qp := &QueryPlan{Query: q, Mode: p.cfg.Mode, Clauses: make([]ClausePlan, len(clauses))}
	for i, c := range clauses {
		qp.Clauses[i] = p.PlanClause(c)
	}
	return qp
}

// PlanClause plans one DNF clause.
func (p *Planner) PlanClause(clause rpq.Expr) ClausePlan {
	units := p.decomposeAll(clause)
	if units[0].Type == rpq.ClosureNone {
		// Closure-free: the automaton product is the only operator.
		cp := p.automatonPlan(clause, units[0])
		cp.Candidates = 1
		return p.calibrate(cp)
	}
	rightmost := units[len(units)-1]
	def := p.sharedPlan(clause, rightmost, Forward)
	if p.cfg.Mode == Heuristic {
		def.Candidates = 1
		return p.calibrate(def)
	}
	// Cost-based: every anchor in both directions, plus the automaton
	// bypass. The heuristic default only loses to a candidate that beats
	// it by the deviation margin.
	candidates := []ClausePlan{p.automatonPlan(clause, rightmost)}
	if def.Est.Cost >= deviationFloor*joinTuple*p.est.v {
		for _, u := range units {
			if u.Anchor != rightmost.Anchor {
				candidates = append(candidates, p.sharedPlan(clause, u, Forward))
			}
			candidates = append(candidates, p.sharedPlan(clause, u, Backward))
		}
	}
	best := def
	for _, cand := range candidates {
		if cand.Est.Cost < deviationMargin*def.Est.Cost && cand.Est.Cost < best.Est.Cost {
			best = cand
		}
	}
	best.Candidates = len(candidates) + 1
	return p.calibrate(best)
}

// PlanClauseAsk plans one DNF clause for an existence (ASK) probe: the
// same physical choices as PlanClause, except that in cost-based mode a
// shared plan's join direction is re-decided for the probe. An ASK
// stops at the first result tuple, so output cardinality — the term
// that dominates the full-evaluation estimates — is irrelevant; what
// matters is the cost of materialising the driving side relations and
// the size of the side actually scanned. The forward probe drives from
// Pre (Post is explored by traversal); the backward probe must also
// materialise Post, but then scans the usually far smaller Post side
// first — the cheaper direction exactly when Post is selective. The
// deviation floor deliberately does not apply: unlike a full backward
// join, a backward probe adds no output-side work to amortise.
func (p *Planner) PlanClauseAsk(clause rpq.Expr) ClausePlan {
	cp := p.PlanClause(clause)
	if cp.Kind != KindShared || p.cfg.Mode != CostBased {
		return cp
	}
	pre := p.est.Expr(cp.Unit.Pre)
	post := p.est.Expr(cp.Unit.Post)
	fwd := p.est.evalCost(cp.Unit.Pre) + pre.Pairs*joinTuple
	bwd := p.est.evalCost(cp.Unit.Pre) + p.est.evalCost(cp.Unit.Post) + post.Pairs*joinTuple
	if bwd < fwd {
		cp.Direction = Backward
	} else {
		cp.Direction = Forward
	}
	return cp
}

// calibrate applies the measured-cardinality correction factor to the
// chosen plan's absolute estimates. Applied once, after candidate
// selection: the factor is uniform, so applying it during comparison
// would change nothing, and keeping selection uncalibrated keeps the
// deviation-floor constants meaning what they meant when tuned.
func (p *Planner) calibrate(cp ClausePlan) ClausePlan {
	f := p.cfg.Calibration.Factor()
	if f != 1 {
		cp.Est.Cost *= f
		cp.Est.OutPairs *= f
	}
	return cp
}

// automatonPlan costs evaluating the whole clause by product traversal.
func (p *Planner) automatonPlan(clause rpq.Expr, unit rpq.BatchUnit) ClausePlan {
	out := p.est.Expr(clause)
	return ClausePlan{
		Clause:    clause,
		Kind:      KindAutomaton,
		Direction: Forward,
		Unit:      unit,
		Est: Estimates{
			Cost:     p.est.evalCost(clause),
			OutPairs: out.Pairs,
		},
	}
}

// sharedPlan costs one batch-unit split executed through the shared
// closure structure of R, in the given direction. The model follows the
// executor's actual loops:
//
//	forward:  |Pre_G| + Srcs(Pre)·fanout(R+)    (ResEq9, deduped per v_i)
//	          each ResEq9 tuple extended by Post's per-vertex fan-out,
//	          plus one Post traversal (degree-weighted) per distinct end
//	          vertex — joinPost memoises ReachFrom per v_k
//	backward: |Post_G| + Dsts(Post)·fanin(R+)   (mirror, deduped per v_l)
//	          each tuple extended by Pre's per-vertex fan-in
//
// Join tuples are charged at the joinTuple rate; traversal terms — the
// side relations it must materialise, the memoised Post traversals, and
// (unless cached) evaluating R and closing its reduced graph — at 1.
func (p *Planner) sharedPlan(clause rpq.Expr, unit rpq.BatchUnit, dir Direction) ClausePlan {
	pre := p.est.Expr(unit.Pre)
	post := p.est.Expr(unit.Post)
	tc := p.est.Expr(rpq.Plus{Sub: unit.R})

	cached := p.cfg.SharedCached != nil && p.cfg.SharedCached(unit.R)
	shared := 0.0
	if !cached {
		r := p.est.Expr(unit.R)
		shared = (p.est.evalCost(unit.R) + r.Pairs + tc.Pairs) * buildDiscount
	}

	var cost, out float64
	switch dir {
	case Forward:
		fanout := tc.Pairs / math.Max(tc.Srcs, 1)
		mid := pre.Pairs + pre.Srcs*fanout
		postFan := post.Pairs / math.Max(post.Srcs, 1)
		// Post traversals run once per distinct v_k (memoised), each
		// paying the adjacency-scan factor like any traversal.
		distinctVk := math.Min(mid, p.est.NumVertices())
		cost = p.est.evalCost(unit.Pre) + shared + mid*(1+postFan)*joinTuple +
			distinctVk*postFan*p.est.scanFactor()
		out = mid * postFan
	case Backward:
		fanin := tc.Pairs / math.Max(tc.Dsts, 1)
		mid := post.Pairs + post.Dsts*fanin
		preFan := pre.Pairs / math.Max(pre.Dsts, 1)
		cost = p.est.evalCost(unit.Pre) + p.est.evalCost(unit.Post) + shared + mid*(1+preFan)*joinTuple
		out = mid * preFan
	}
	vv := p.est.NumVertices() * p.est.NumVertices()
	return ClausePlan{
		Clause:       clause,
		Kind:         KindShared,
		Direction:    dir,
		Unit:         unit,
		SharedCached: cached,
		Est: Estimates{
			Cost:         cost,
			PrePairs:     pre.Pairs,
			ClosurePairs: tc.Pairs,
			PostPairs:    post.Pairs,
			OutPairs:     math.Min(out, vv),
		},
	}
}
