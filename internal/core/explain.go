package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
)

// Plan describes how the engine would evaluate a query: the DNF clauses,
// the planner's physical execution per clause (the rightmost-closure
// batch unit joined through a shared structure, or the automaton
// product) with estimated cardinalities, and which closure structures
// are already cached.
// Explain builds a Plan without executing anything; ExplainAnalyze also
// runs the query and fills in the actual cardinalities.
type Plan struct {
	// Query is the canonical text of the query.
	Query string
	// Strategy that would execute the plan.
	Strategy Strategy
	// Clauses are the DNF batch units in evaluation order.
	Clauses []PlanClause

	// Analyzed is set by ExplainAnalyze; the Actual* fields below and in
	// each clause are meaningful only then.
	Analyzed bool
	// ActualResultPairs is the executed query's result size.
	ActualResultPairs int
	// ActualTime is the executed query's time, planning to union: the
	// total its call's stage record charged, the record the engine's
	// Stats and stage timers fold.
	ActualTime time.Duration
}

// PlanClause is one DNF clause of a plan.
type PlanClause struct {
	// Clause is the canonical clause text.
	Clause string
	// Pre, R, Post are the chosen batch-unit decomposition; Type is "+",
	// "*" or "NULL".
	Pre, R, Type, Post string
	// Kind is the physical operator: "shared" (batch-unit join through a
	// closure structure) or "automaton" (direct product traversal).
	Kind string
	// Anchor is the index of the chosen closure among the clause's
	// outermost closures, left to right; -1 when the clause has none.
	Anchor int
	// SharedCached reports whether the closure structure for R is
	// already in the engine's cache (an RTC for RTCSharing, a full
	// closure for FullSharing; always false for NoSharing).
	SharedCached bool
	// PreHasKleene marks clauses whose Pre needs recursive evaluation.
	PreHasKleene bool

	// EstCost is the planner's unit-less cost prediction; EstPrePairs,
	// EstClosurePairs, EstPostPairs and EstOutPairs are its cardinality
	// predictions for |Pre_G|, |R+|, |Post_G| and the clause result.
	EstCost                                            float64
	EstPrePairs, EstClosurePairs, EstPostPairs, EstOut float64

	// ActualPrePairs is the materialised Pre relation's size (-1 when the
	// clause materialised none); ActualPairs is the clause's result size;
	// ActualTime its execution time, what the call's stage record charged
	// across the clause. Set by ExplainAnalyze only.
	ActualPrePairs, ActualPairs int
	ActualTime                  time.Duration
}

// Explain plans a query without executing it: building a Plan evaluates
// nothing and mutates no caches. It plans against the engine's current
// graph version.
func (e *Engine) Explain(q rpq.Expr) (*Plan, error) {
	v := e.version()
	clauses, err := rpq.ToDNF(q)
	if err != nil {
		return nil, err
	}
	return v.describePlan(v.planner().Plan(q, clauses)), nil
}

// ExplainAnalyze plans and executes a query, returning the plan with
// both estimated and actual cardinalities. Unlike Explain it is a real
// evaluation: it counts as a query, populates caches, and costs what the
// query costs.
func (e *Engine) ExplainAnalyze(q rpq.Expr) (*Plan, error) {
	return e.call(nil, nil).explainAnalyze(q)
}

// ExplainAnalyzeCtx is ExplainAnalyze with cooperative cancellation: the
// call carries ctx (which may be nil) and aborts at the next checkpoint
// once ctx is done, and a panic during it is recovered into a
// *QueryPanicError. It is the serving layer's /explain?analyze=1 entry
// point, guarded like EvaluateRelTimedCtx.
func (e *Engine) ExplainAnalyzeCtx(ctx context.Context, q rpq.Expr) (p *Plan, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	defer recoverPanic(q, &err)
	return e.call(ctx, nil).explainAnalyze(q)
}

// explainAnalyze is ExplainAnalyze on this call.
func (c *evalCall) explainAnalyze(q rpq.Expr) (*Plan, error) {
	defer c.fold()
	c.begin(q)
	var obs planObserver
	rel, err := c.evaluatePlanned(q, &obs)
	if err != nil {
		return nil, err
	}
	p := c.describePlan(obs.plan)
	p.Analyzed = true
	p.ActualResultPairs = rel.Len()
	p.ActualTime = c.charged()
	for i := range p.Clauses {
		act := obs.actuals[i]
		p.Clauses[i].ActualPrePairs = act.Pre
		p.Clauses[i].ActualPairs = act.Result
		p.Clauses[i].ActualTime = act.Charged
	}
	return p, nil
}

// describePlan renders a logical QueryPlan into the public Plan form.
func (v *engineVersion) describePlan(qp *plan.QueryPlan) *Plan {
	p := &Plan{Query: qp.Query.String(), Strategy: v.opts.Strategy}
	for _, cp := range qp.Clauses {
		bu := cp.Unit
		pc := PlanClause{
			Clause:          cp.Clause.String(),
			Pre:             bu.Pre.String(),
			R:               bu.R.String(),
			Type:            bu.Type.String(),
			Post:            bu.Post.String(),
			Kind:            cp.Kind.String(),
			Anchor:          bu.Anchor,
			EstCost:         cp.Est.Cost,
			EstPrePairs:     cp.Est.PrePairs,
			EstClosurePairs: cp.Est.ClosurePairs,
			EstPostPairs:    cp.Est.PostPairs,
			EstOut:          cp.Est.OutPairs,
			ActualPrePairs:  -1,
		}
		if bu.Type != rpq.ClosureNone {
			pc.PreHasKleene = rpq.HasKleene(bu.Pre)
			// The cached flag is the state the planner saw at plan time
			// (for an analyzed plan, before execution populated the
			// cache). The planner's probe already excludes NoSharing
			// engines, which never reuse structures.
			pc.SharedCached = cp.SharedCached
		}
		p.Clauses = append(p.Clauses, pc)
	}
	return p
}

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %s (strategy %s, %d clause(s))\n",
		p.Query, p.Strategy, len(p.Clauses))
	for i, c := range p.Clauses {
		fmt.Fprintf(&sb, "  clause %d: %s\n", i+1, c.Clause)
		if c.Type == rpq.ClosureNone.String() {
			fmt.Fprintf(&sb, "    no Kleene closure: automaton-product evaluation (est cost %.0f, est pairs %.0f)\n",
				c.EstCost, c.EstOut)
			p.writeActuals(&sb, c)
			continue
		}
		fmt.Fprintf(&sb, "    Pre=%s  R=%s  Type=%s  Post=%s  (anchor %d)\n",
			c.Pre, c.R, c.Type, c.Post, c.Anchor)
		fmt.Fprintf(&sb, "    exec: %s  est cost %.0f  est |Pre|=%.0f |R+|=%.0f |Post|=%.0f out=%.0f\n",
			c.Kind, c.EstCost, c.EstPrePairs, c.EstClosurePairs, c.EstPostPairs, c.EstOut)
		if c.PreHasKleene {
			fmt.Fprintf(&sb, "    Pre contains Kleene closures: recursive evaluation\n")
		}
		if c.Kind == plan.KindShared.String() {
			if c.SharedCached {
				fmt.Fprintf(&sb, "    shared structure for R: cached (reused)\n")
			} else {
				fmt.Fprintf(&sb, "    shared structure for R: will be computed\n")
			}
		}
		p.writeActuals(&sb, c)
	}
	if p.Analyzed {
		fmt.Fprintf(&sb, "  actual: %d result pairs in %v\n", p.ActualResultPairs, p.ActualTime)
	}
	return sb.String()
}

func (p *Plan) writeActuals(sb *strings.Builder, c PlanClause) {
	if !p.Analyzed {
		return
	}
	fmt.Fprintf(sb, "    actual: %d pairs in %v", c.ActualPairs, c.ActualTime)
	if c.ActualPrePairs >= 0 {
		fmt.Fprintf(sb, "  |Pre_G|=%d", c.ActualPrePairs)
	}
	sb.WriteByte('\n')
}
