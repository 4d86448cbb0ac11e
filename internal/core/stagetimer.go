package core

import (
	"time"
)

// StageTimer is the per-request latency breakdown of one query
// evaluation: a flat struct of nanosecond counters, one per pipeline
// stage. The serving layer attributes the queue stage and the HTTP
// handler paging; the engine's stages are a fold of the call's stage
// record (stageRecord), added once when the call returns. The stages
// partition the work, so their sum tracks the wall time of the request
// end to end.
//
// A StageTimer is not safe for concurrent writers. The engine writes
// only the timer of the call it times, once, from the goroutine that
// drives the call; see EvaluateRelTimedCtx.
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
	// condensation and reach table), for FullSharing TC(G_R) — and the
	// structure cache boundary around it: a hit, a wait for another
	// goroutine's in-flight computation, the bookkeeping of a miss.
	ClosureBuildNS int64 `json:"closure_build_ns"`
	// JoinNS is the Pre ⋈ closure join (Algorithm 2).
	JoinNS int64 `json:"join_ns"`
	// SealNS is relation sealing: counting-sort into frozen CSR columns.
	SealNS int64 `json:"seal_ns"`
	// PageNS is result paging in the HTTP handler.
	PageNS int64 `json:"page_ns"`
	// OtherNS is everything else the engine does: automaton traversals,
	// the sub-query memo boundaries, FullSharing's edge-level reduction,
	// unions.
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

// bucket is where a call's time is charged while it runs. Time in
// bucketNone is charged nowhere, so work no stage claims stays visible
// as a gap between a call's stages and its wall time.
type bucket uint8

const (
	bucketNone      bucket = iota
	bucketPlan             // DNF conversion and clause planning
	bucketBuild            // computing a shared closure structure
	bucketStructure        // the structure cache boundary: hit, wait, bookkeeping
	bucketJoin             // the Pre ⋈ closure join
	bucketSeal             // copying results into sealed columns
	bucketOther            // traversals, unions, FullSharing's reduction
	bucketMemo             // the sub-query memo boundary: hit, wait, admission
	numBuckets
)

// stageRecord is the one clock of a call, held by value in the call so
// timing allocates nothing: nanoseconds per bucket, the current bucket
// and when it became current.
type stageRecord struct {
	ns    [numBuckets]int64 // ns[bucketNone] is never read
	cur   bucket
	since time.Time
}

// enter charges the time since the call's last switch to the current
// bucket, makes b current and returns the bucket it replaced, which
// c.enter(prev) restores. A stage nested in another — a build inside a
// cache boundary, a Post traversal inside a join, a seal inside a drain
// — pauses its parent this way, so no parent subtracts its children.
func (c *evalCall) enter(b bucket) bucket {
	now := time.Now()
	r := &c.rec
	r.ns[r.cur] += int64(now.Sub(r.since))
	prev := r.cur
	r.cur, r.since = b, now
	return prev
}

// charged returns the time the call has charged to its buckets so far,
// the current one brought up to now.
func (c *evalCall) charged() time.Duration {
	c.enter(c.rec.cur)
	var sum int64
	for _, ns := range c.rec.ns[bucketNone+1:] {
		sum += ns
	}
	return time.Duration(sum)
}

// fold adds the call's record, under one lock, to the engine's Stats in
// the paper's split and to the call's StageTimer, if it has one. The
// boundary buckets reach the StageTimer only: the call that computed
// what a boundary served accounts the work. The record then starts
// over, so a call serving several queries folds each once. Every entry
// defers it, so errors, cancellations and panics fold too.
func (c *evalCall) fold() {
	ns := &c.rec.ns
	c.mu.Lock()
	c.stats.SharedData += time.Duration(ns[bucketBuild])
	c.stats.PreJoin += time.Duration(ns[bucketJoin])
	c.stats.Remainder += time.Duration(ns[bucketPlan] + ns[bucketSeal] + ns[bucketOther])
	c.mu.Unlock()
	if st := c.stages; st != nil {
		st.PlanNS += ns[bucketPlan]
		st.ClosureBuildNS += ns[bucketBuild] + ns[bucketStructure]
		st.JoinNS += ns[bucketJoin]
		st.SealNS += ns[bucketSeal]
		st.OtherNS += ns[bucketOther] + ns[bucketMemo]
	}
	*ns = [numBuckets]int64{}
}
