package core

import (
	"time"
)

// StageTimer is the per-request latency breakdown of one query
// evaluation: a flat struct of nanosecond counters, one per pipeline
// stage, cheap enough to thread through the hot path without
// allocating. The serving layer attributes the queue stage; the engine
// attributes plan, closure-build, join, seal and the traversal/union
// remainder (Other); the HTTP handler attributes paging. The stages
// partition the work, so their sum tracks the wall time of the request
// end to end.
//
// A StageTimer is not safe for concurrent writers. The engine
// guarantees single-writer use by attaching a timer only to the call it
// times, which one goroutine drives; see EvaluateRelTimedCtx.
type StageTimer struct {
	// QueueNS is time spent waiting for an evaluation slot.
	QueueNS int64 `json:"queue_ns"`
	// CoalesceWaitNS is always 0: the server no longer holds requests
	// in a coalescing window. The field stays so the /query response
	// keeps its shape.
	CoalesceWaitNS int64 `json:"coalesce_wait_ns"`
	// PlanNS covers DNF conversion and clause planning.
	PlanNS int64 `json:"plan_ns"`
	// ClosureBuildNS covers computing the shared closure structure — for
	// RTCSharing the RTC built from R's product graph (its SCCs,
	// condensation and reach table), for FullSharing TC(G_R) — or waiting
	// for another goroutine's in-flight computation of it.
	ClosureBuildNS int64 `json:"closure_build_ns"`
	// JoinNS is the Pre ⋈ closure join (Algorithm 2).
	JoinNS int64 `json:"join_ns"`
	// SealNS is relation sealing: counting-sort into frozen CSR columns.
	SealNS int64 `json:"seal_ns"`
	// PageNS is result paging in the HTTP handler.
	PageNS int64 `json:"page_ns"`
	// OtherNS is everything else the engine does: automaton traversals,
	// sub-query evaluation boundaries, FullSharing's edge-level
	// reduction, unions.
	OtherNS int64 `json:"other_ns"`
}

// Sum returns the total attributed time across all stages.
func (t *StageTimer) Sum() time.Duration {
	return time.Duration(t.QueueNS + t.CoalesceWaitNS + t.PlanNS +
		t.ClosureBuildNS + t.JoinNS + t.SealNS + t.PageNS + t.OtherNS)
}

// Add folds other into t stage by stage.
func (t *StageTimer) Add(other *StageTimer) {
	t.QueueNS += other.QueueNS
	t.CoalesceWaitNS += other.CoalesceWaitNS
	t.PlanNS += other.PlanNS
	t.ClosureBuildNS += other.ClosureBuildNS
	t.JoinNS += other.JoinNS
	t.SealNS += other.SealNS
	t.PageNS += other.PageNS
	t.OtherNS += other.OtherNS
}
