// Package plan is the engine's logical query planner: it fixes, per DNF
// clause, the physical operator the executor runs and records the
// cardinality estimates EXPLAIN compares with the actual sizes.
//
// The plan is Algorithm 1's: a clause with an outermost Kleene closure
// splits at its rightmost one into a batch unit Pre·R{+,*}·Post, which
// joins forward from Pre through the shared closure structure of R
// (Algorithm 2); a closure-free clause evaluates by automaton-product
// traversal. Estimates come from the per-label statistics internal/graph
// computes at Build time.
package plan

import (
	"fmt"

	"rtcshare/internal/rpq"
)

// NodeKind is the physical operator a clause executes as.
type NodeKind int

const (
	// KindAutomaton evaluates the whole clause by automaton-product
	// traversal — the operator for closure-free clauses.
	KindAutomaton NodeKind = iota
	// KindShared evaluates the clause as a batch unit joining through a
	// shared closure structure.
	KindShared
)

func (k NodeKind) String() string {
	switch k {
	case KindAutomaton:
		return "automaton"
	case KindShared:
		return "shared"
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// Estimates are the planner's cardinality and cost predictions for one
// clause plan, kept so EXPLAIN can show estimated-vs-actual.
type Estimates struct {
	// Cost is the model's unit-less work estimate for the clause.
	Cost float64
	// PrePairs, ClosurePairs, PostPairs estimate |Pre_G|, |R+_G| (over
	// the reduced graph's vertex space) and |Post_G| for shared-structure
	// plans; zero for automaton plans.
	PrePairs, ClosurePairs, PostPairs float64
	// OutPairs estimates the clause's result size.
	OutPairs float64
}

// ClausePlan is the planned physical execution of one DNF clause.
type ClausePlan struct {
	// Clause is the DNF clause this plan executes.
	Clause rpq.Expr
	// Kind selects the physical operator.
	Kind NodeKind
	// Unit is the batch-unit split executed by KindShared; for
	// KindAutomaton on a closure-free clause it is the ClosureNone unit.
	Unit rpq.BatchUnit
	// SharedCached records whether the closure structure for Unit.R was
	// already cached when the plan was made (KindShared only), captured
	// here so EXPLAIN ANALYZE reports the state the planner saw, not the
	// state after execution populated the cache.
	SharedCached bool
	// Est are the planner's predictions for the clause.
	Est Estimates
}

// QueryPlan is the planned execution of a whole query: one ClausePlan
// per DNF clause, evaluated in order and unioned.
type QueryPlan struct {
	Query   rpq.Expr
	Clauses []ClausePlan
}
