package core

import (
	"time"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// This file implements the batch-unit join of Algorithm 2 — one per
// clause kind — as a per-source producer, and the sealed driver of each.
// A producer ORs source v_i's destinations into a pairs.RunAccumulator;
// the OR is the dedupe and draining the accumulator is the sort. Each
// clause kind has exactly one:
//
//   - RTCSharing: the row kernel of rowkernel.go (kernelJoin), which
//     pushes Post through the condensation;
//   - FullSharing and NoSharing: the pair-level join over the full
//     closure (fullJoin), whose set semantics — which unions happen
//     where, and therefore which redundant/useless operations it performs
//     — exactly follow Section IV-B;
//   - a closure-free clause: one product traversal per source
//     (automatonJoin).
//
// Every consumer drives these producers. The sealed path drains every
// source's run into exact-size CSR columns (the row kernel's own
// two-pass seal, or drain for the other two), ResultStream pulls one
// source at a time, and ASK is a stream stopped at its first pair.

// producer is one clause's per-source join. produce ORs source vi's
// destinations into acc and returns the rows it touched (the stream's
// StreamStats.Rows); release returns its pooled state.
type producer interface {
	produce(vi graph.VID, acc *pairs.RunAccumulator) (rows int64, err error)
	release()
}

// stampSet is a constant-time set over a dense ID space, cleared in O(1)
// by bumping the generation.
type stampSet struct {
	marks []uint32
	gen   uint32
}

// ensure grows the mark space to cover n IDs.
func (s *stampSet) ensure(n int) {
	if len(s.marks) < n {
		s.marks = make([]uint32, n)
		s.gen = 0
	}
}

func (s *stampSet) reset() {
	s.gen++
	if s.gen == 0 {
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.gen = 1
	}
}

// add inserts id and reports whether it was new.
func (s *stampSet) add(id int32) bool {
	if s.marks[id] == s.gen {
		return false
	}
	s.marks[id] = s.gen
	return true
}

// labelPost is a single-label Post as both joins read it: the label's
// CSR in the graph, which its evaluator hands out, so Post(v) is row v
// of the graph's columns rather than a traversal. A Post that is not one
// label leaves ok false; a label the graph lacks has nil columns.
type labelPost struct {
	ok      bool
	offsets []int32
	targets []graph.VID
}

func labelPostOf(ev *eval.Evaluator) labelPost {
	offsets, targets, ok := ev.LabelCSR()
	return labelPost{ok: ok, offsets: offsets, targets: targets}
}

// ends returns Post(v), aliasing the graph's storage.
func (p labelPost) ends(v graph.VID) []graph.VID {
	if p.offsets == nil {
		return nil
	}
	return p.targets[p.offsets[v]:p.offsets[v+1]]
}

// resolveUnit resolves a batch unit's inputs through the shared caches:
// Pre_G (Algorithm 1 line 8, recursive), and R's RTC under RTCSharing or
// its full closure under Full/NoSharing.
func (c *evalCall) resolveUnit(bu rpq.BatchUnit) (preG *pairs.Relation, structure *rtc.RTC, closure *tc.Closure, err error) {
	if preG, err = c.subEvaluateRel(bu.Pre); err != nil {
		return nil, nil, nil, err
	}
	if c.opts.Strategy == RTCSharing {
		structure, err = c.getRTC(bu.R)
	} else {
		closure, err = c.getFullClosure(bu.R)
	}
	return preG, structure, closure, err
}

// openClause resolves one planned clause's inputs and returns its
// producer, which the caller must release.
func (c *evalCall) openClause(cp *plan.ClausePlan) (producer, error) {
	if cp.Kind == plan.KindAutomaton {
		return c.openAutomaton(cp.Clause), nil
	}
	bu := cp.Unit
	preG, structure, closure, err := c.resolveUnit(bu)
	if err != nil {
		return nil, err
	}
	if structure != nil {
		return kernelJoin{c.acquireKernel(structure, bu.Type, bu.Post), preG}, nil
	}
	return c.acquireFull(preG, closure, bu.Type, bu.Post), nil
}

// evalBatchUnit implements Algorithm 2 (EvalBatchUnit) for RTCSharing:
// the join pipeline of equations (6)–(10) over the RTC, with Post pushed
// through the condensation — each source's result row is the union of
// per-component rows over its Pre-ends (rowkernel.go, which maps the
// useless-1/2 and redundant-1/2 eliminations onto those rows).
//
// Pre_G arrives as a sealed relation: the per-start runs the kernel
// wants are its frozen columns, walked in ascending start order with no
// bucketing pass. The result is emitted straight into exact-size sealed
// columns. The traversals of a Post that is not one label are Remainder
// time; everything else — the row DFS, the ORs, a label Post's CSR
// reads, the emission — is PreJoin. Engine.EvalBatchUnit exposes it so
// benchmarks can measure the join in isolation; query evaluation
// reaches it through Engine.EvaluateRel. Nothing is cached across
// calls.
func (c *evalCall) evalBatchUnit(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	start := time.Now()
	k := c.acquireKernel(structure, typ, post)
	rel, err := k.seal(preG)
	postNS := k.postNS
	c.releaseKernel(k)
	c.addRemainder(postNS)
	c.addPreJoin(time.Since(start) - postNS)
	return rel, err
}

// evalBatchUnitFull is FullSharing's batch-unit evaluation: the same
// logical join Pre_G ⋈ R+_G ⋈ Post_G, driven by fullJoin at vertex-pair
// level over the full closure. The traversals of a Post that is not one
// label are Remainder time, building the columns is the seal stage, and
// the rest, a label Post's CSR reads included, is PreJoin.
func (c *evalCall) evalBatchUnitFull(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	start := time.Now()
	j := c.acquireFull(preG, closure, typ, post)
	rel, sealNS, err := c.drain(j)
	postNS := j.postNS
	j.release()
	c.addRemainder(postNS)
	c.addPreJoin(time.Since(start) - postNS - sealNS)
	return rel, err
}

// drainScratch is the pooled state of drain: the run accumulator and the
// destination column the runs are appended to before the exact copy.
type drainScratch struct {
	acc  *pairs.RunAccumulator
	dsts []graph.VID
}

// drain is the sealed driver of the pair-level and automaton producers:
// it runs p once per source, ascending, appends each run to pooled
// scratch, and copies the scratch once into an exact-size column. (The
// row kernel sizes its runs in a first pass instead — a stored row is a
// lookup, and its second pass re-gathers only the runs that are not one
// stored row — but these producers cannot afford a second traversal.) The
// copy is the seal stage; drain attributes it and returns its duration
// so the caller can attribute the rest.
func (c *evalCall) drain(p producer) (*pairs.Relation, time.Duration, error) {
	sc := c.drainPool.Get().(*drainScratch)
	n := c.g.NumVertices()
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		if _, err := p.produce(graph.VID(v), sc.acc); err != nil {
			sc.acc.Reset()
			sc.dsts = sc.dsts[:0]
			c.drainPool.Put(sc)
			return nil, 0, err
		}
		if !sc.acc.Empty() {
			sc.dsts = sc.acc.DrainAppend(sc.dsts)
		}
		offsets[v+1] = int32(len(sc.dsts))
	}
	t0 := time.Now()
	col := make([]graph.VID, len(sc.dsts))
	copy(col, sc.dsts)
	sealNS := time.Since(t0)
	sc.dsts = sc.dsts[:0]
	c.drainPool.Put(sc)
	c.addSeal(sealNS)
	return pairs.RelationFromSortedRuns(n, offsets, col), sealNS, nil
}

// kernelJoin is the RTCSharing producer: the row kernel's gather and
// orRun over source v_i's Pre-ends.
type kernelJoin struct {
	k    *rowKernel
	preG *pairs.Relation
}

func (j kernelJoin) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	vjs := j.preG.DstsOf(vi)
	if len(vjs) == 0 {
		return 0, nil
	}
	k := j.k
	if err := k.c.checkpoint(len(vjs)); err != nil {
		return 0, err
	}
	work0 := k.work
	_, err := k.gather(vjs)
	if err == nil {
		err = k.orRun(acc)
	}
	return int64(len(vjs)) + k.work - work0, err
}

func (j kernelJoin) release() { j.k.c.releaseKernel(j.k) }

// fullJoin is the pair-level producer of FullSharing and NoSharing. For
// every Pre_G tuple (v_i, v_j) the entire reachable set From(v_j) is
// walked and inserted with a duplicate check — the redundant-1 and
// redundant-2 operations of Definitions 3 and 4 that Algorithm 2
// eliminates are all performed here — giving v_i's frontier, its tuples
// of equation (9); the run is then the union of the frontier's Post ends
// (equation (10)). A label Post's ends are each frontier vertex's row of
// the graph's CSR; any other EvalRestrictedRPQ(Post, v_k) is a traversal
// memoised per join in one flat buffer addressed by spans, the same Post
// work the row kernel does. One join owns a fullJoin
// exclusively from acquireFull to release; c, its call, is set on
// acquire and cleared on release, so the pool never keeps a finished
// call's context or timer reachable.
type fullJoin struct {
	c       *evalCall
	preG    *pairs.Relation
	closure *tc.Closure
	star    bool
	postEv  *eval.Evaluator // nil when Post is ε
	evKey   string
	label   labelPost // set when Post is one label

	seen     stampSet    // the current source's frontier
	mids     []graph.VID // the frontier, in first-reached order
	endsBuf  []graph.VID
	endSpans []endSpan // by vertex; valid where memo marks it
	memo     stampSet  // the vertices whose Post ends this join holds

	// Post traversals, Remainder in the timing split: 0 under an ε or
	// label Post, whose ends are join work.
	postNS time.Duration
}

// endSpan addresses one memoised Post traversal inside endsBuf.
type endSpan struct{ start, end int32 }

// acquireFull checks a pair-level producer out of the version's pool,
// set up for one join.
func (c *evalCall) acquireFull(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, post rpq.Expr) *fullJoin {
	j := c.fullPool.Get().(*fullJoin)
	j.c, j.preG, j.closure, j.star = c, preG, closure, typ == rpq.ClosureStar
	n := c.g.NumVertices()
	j.seen.ensure(n)
	if _, eps := post.(rpq.Epsilon); !eps {
		t0 := time.Now()
		j.postEv, j.evKey = c.acquireEvaluator(post)
		if j.label = labelPostOf(j.postEv); j.label.ok {
			return j
		}
		j.memo.ensure(n)
		j.memo.reset()
		if len(j.endSpans) < n {
			j.endSpans = make([]endSpan, n)
		}
		j.postNS += time.Since(t0)
	}
	return j
}

func (j *fullJoin) release() {
	c := j.c
	if j.postEv != nil {
		c.releaseEvaluator(j.evKey, j.postEv)
	}
	j.mids, j.endsBuf = j.mids[:0], j.endsBuf[:0]
	j.c, j.preG, j.closure, j.postEv, j.evKey, j.label, j.postNS = nil, nil, nil, nil, "", labelPost{}, 0
	c.fullPool.Put(j)
}

func (j *fullJoin) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	vjs := j.preG.DstsOf(vi)
	if len(vjs) == 0 {
		return 0, nil
	}
	c := j.c
	if err := c.checkpoint(len(vjs)); err != nil {
		return 0, err
	}
	rows := int64(len(vjs))
	j.seen.reset()
	j.mids = j.mids[:0]
	if j.star {
		for _, vj := range vjs {
			if j.seen.add(vj) {
				j.mids = append(j.mids, vj)
			}
		}
	}
	for _, vj := range vjs {
		from := j.closure.From(vj)
		if err := c.checkpoint(len(from)); err != nil {
			return rows, err
		}
		rows += int64(len(from))
		for _, vk := range from {
			if j.seen.add(vk) {
				j.mids = append(j.mids, vk)
			}
		}
	}
	if j.postEv == nil {
		acc.AddAll(j.mids)
		return rows, nil
	}
	for _, vk := range j.mids {
		var ends []graph.VID
		if j.label.ok {
			ends = j.label.ends(vk)
		} else {
			if j.memo.add(vk) {
				t0 := time.Now()
				start := int32(len(j.endsBuf))
				j.endsBuf = j.postEv.AppendReachFrom(vk, j.endsBuf)
				j.endSpans[vk] = endSpan{start, int32(len(j.endsBuf))}
				j.postNS += time.Since(t0)
			}
			span := j.endSpans[vk]
			ends = j.endsBuf[span.start:span.end]
		}
		if err := c.checkpoint(len(ends) + 1); err != nil {
			return rows, err
		}
		rows += int64(len(ends))
		acc.AddAll(ends)
	}
	return rows, nil
}

// automatonJoin is the producer of a closure-free clause (Algorithm 1
// line 6): one product traversal per source, from the FIRST-set
// candidate starts only when the clause admits the restriction
// (eval.CandidateStarts). Its cancellation checkpoint is weighted by the
// ends each traversal adds.
type automatonJoin struct {
	c        *evalCall
	ev       *eval.Evaluator
	evKey    string
	seedable []bool // nil when every vertex is a candidate start
	ends     []graph.VID
}

// openAutomaton returns the producer of closure-free clause q.
func (c *evalCall) openAutomaton(q rpq.Expr) *automatonJoin {
	a := &automatonJoin{c: c}
	a.ev, a.evKey = c.acquireEvaluator(q)
	if starts, ok := eval.CandidateStarts(c.g, q); ok {
		a.seedable = make([]bool, c.g.NumVertices())
		for _, vi := range starts {
			a.seedable[vi] = true
		}
	}
	return a
}

func (a *automatonJoin) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	if a.seedable != nil && !a.seedable[vi] {
		return 0, nil
	}
	a.ends = a.ev.AppendReachFrom(vi, a.ends[:0])
	acc.AddAll(a.ends)
	return int64(len(a.ends)), a.c.checkpoint(len(a.ends) + 1)
}

func (a *automatonJoin) release() { a.c.releaseEvaluator(a.evKey, a.ev) }

// acquireBuilder checks a relation builder over the engine's vertex
// space out of the pool; the multi-clause union merges through one.
// Builders return to the pool empty (Seal resets them), keeping their
// scratch columns warm.
func (v *engineVersion) acquireBuilder() *pairs.Builder {
	return v.builderPool.Get().(*pairs.Builder)
}

func (v *engineVersion) releaseBuilder(b *pairs.Builder) {
	b.Reset()
	v.builderPool.Put(b)
}
