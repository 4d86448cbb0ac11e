package core

import (
	"time"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// This file implements the batch-unit joins over the columnar layout:
// Algorithm 2 for RTCSharing — forward through the row kernel of
// rowkernel.go, backward below — and the pair-level counterpart for
// FullSharing. In the pair-level and backward joins the relations
// ResEq7, ResEq8 and ResEq10 of the paper are sets realised with
// generation-stamped arrays, grouped by the start vertex v_i, so that a
// membership test is one array read. The set *semantics* (which unions
// happen where, and therefore which redundant/useless operations each
// method performs) exactly follows Section IV-B; only the data plane
// differs from the paper's pseudocode:
//
//   - Side relations arrive as sealed pairs.Relation values, already
//     grouped by start vertex (and, through the lazy transpose, by end
//     vertex), so no per-call re-bucketing happens.
//   - The stamp sets and the ResEq9 tuple buffer come from a per-engine
//     pool (joinScratch), and results are emitted through pooled
//     relation builders, so a warm engine's joins run allocation-free up
//     to the sealed output columns.

// stampSet is a constant-time set over a dense ID space, cleared in O(1)
// by bumping the generation.
type stampSet struct {
	marks []uint32
	gen   uint32
}

func newStampSet(n int) *stampSet { return &stampSet{marks: make([]uint32, n)} }

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

// joinScratch is the pooled working state of one batch-unit join: two
// stamp sets sized to the vertex space (which bounds the SCC space), the
// ResEq9 tuple buffer, and the per-unit memo of Post traversals (end
// vertices packed into one flat buffer, addressed by spans, so repeated
// traversal results cost no allocation). One join owns a scratch
// exclusively from acquire to release.
type joinScratch struct {
	seenA, seenB stampSet
	resEq9       []pairs.Pair
	endsBuf      []graph.VID
	endSpans     map[graph.VID]endSpan
}

// endSpan addresses one memoised ReachFrom result inside endsBuf.
type endSpan struct{ start, end int32 }

// acquireScratch checks a join scratch out of the engine pool, sized for
// the engine's vertex space.
func (e *engineVersion) acquireScratch() *joinScratch {
	sc := e.scratchPool.Get().(*joinScratch)
	n := e.g.NumVertices()
	sc.seenA.ensure(n)
	sc.seenB.ensure(n)
	return sc
}

func (e *engineVersion) releaseScratch(sc *joinScratch) {
	sc.resEq9 = sc.resEq9[:0]
	e.scratchPool.Put(sc)
}

// acquireBuilder checks a relation builder over the engine's vertex
// space out of the pool. Builders return to the pool empty (Seal resets
// them), keeping their scratch columns warm.
func (e *engineVersion) acquireBuilder() *pairs.Builder {
	return e.builderPool.Get().(*pairs.Builder)
}

func (e *engineVersion) releaseBuilder(b *pairs.Builder) {
	b.Reset()
	e.builderPool.Put(b)
}

// EvalBatchUnit implements Algorithm 2 (EvalBatchUnit) for RTCSharing:
// the join pipeline of equations (6)–(10) over the RTC, with Post pushed
// through the condensation — each source's result row is the union of
// per-component rows over its Pre-ends (rowkernel.go, which maps the
// useless-1/2 and redundant-1/2 eliminations onto those rows).
//
// Pre_G arrives as a sealed relation: the per-start runs the kernel
// wants are its frozen columns, walked in ascending start order with no
// bucketing pass. The result is emitted straight into exact-size sealed
// columns. The Post traversals are Remainder time; everything else —
// the row DFS, the ORs, the emission — is PreJoin. It is exported so
// benchmarks can measure the join in isolation; query evaluation
// reaches it through Engine.Evaluate. Nothing is cached across calls.
func (e *engineVersion) EvalBatchUnit(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	start := time.Now()
	k := e.acquireKernel(structure, typ, post)
	rel, err := k.seal(preG)
	postNS := k.postNS
	e.releaseKernel(k)
	e.addRemainder(postNS)
	e.addPreJoin(time.Since(start) - postNS)
	return rel, err
}

// EvalBatchUnitFull is FullSharing's batch-unit evaluation: the same
// logical join Pre_G ⋈ R+_G ⋈ Post_G, but enumerated at vertex-pair
// level over the full closure. For every Pre_G tuple (v_i, v_j) the
// entire reachable set From(v_j) is walked and inserted with a duplicate
// check — the redundant-1 and redundant-2 operations of Definitions 3
// and 4 that Algorithm 2 eliminates are all performed here.
func (e *engineVersion) EvalBatchUnitFull(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	joinStart := time.Now()

	sc := e.acquireScratch()
	seenV := &sc.seenA

	var cancelErr error
	resEq9 := sc.resEq9[:0]
	preG.EachSrc(func(vi graph.VID, vjs []graph.VID) bool {
		if cancelErr = e.checkpoint(len(vjs)); cancelErr != nil {
			return false
		}
		seenV.reset()
		if typ == rpq.ClosureStar {
			for _, vj := range vjs {
				if seenV.add(vj) {
					resEq9 = append(resEq9, pairs.Pair{Src: vi, Dst: vj})
				}
			}
		}
		for _, vj := range vjs {
			// Pair-level enumeration: vertices of From(v_j) repeat across
			// the v_j of one v_i whenever their ends share SCCs — each
			// repetition costs a duplicate check here (redundant-1/-2).
			from := closure.From(vj)
			if cancelErr = e.checkpoint(len(from)); cancelErr != nil {
				return false
			}
			for _, vk := range from {
				if seenV.add(vk) {
					resEq9 = append(resEq9, pairs.Pair{Src: vi, Dst: vk})
				}
			}
		}
		return true
	})
	sc.resEq9 = resEq9
	e.addPreJoin(time.Since(joinStart))
	if cancelErr != nil {
		e.releaseScratch(sc)
		return nil, cancelErr
	}

	return e.joinPost(sc, post)
}

// EvalBatchUnitBackward is Algorithm 2 driven from the other side,
// chosen by the cost-based planner when Post_G is far more selective
// than Pre_G: the join is driven from Post's start vertices through the
// *transposed* RTC, and Pre_G — already materialised — is joined in last
// from the destination side. The elimination structure is Algorithm 2's
// member-expansion form under transposition: SCC collapses play the
// redundant-1/2 roles per distinct result end vertex v_l, and member
// expansion needs no duplicate check.
// Both relations arrive sealed, so the end-vertex runs this direction
// wants are Post_G's transposed columns — built once per relation, then
// reused by every batch unit that probes the same Post.
func (e *engineVersion) EvalBatchUnitBackward(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, postG *pairs.Relation) (*pairs.Relation, error) {
	joinStart := time.Now()

	sc := e.acquireScratch()
	seen7 := &sc.seenA // transposed ResEq7, per v_l
	seen8 := &sc.seenB // transposed ResEq8, per v_l

	// resEq9 holds (v_l, v_j): the R{+,*} ⋈ Post_G tuples transposed,
	// grouped by the result end vertex v_l.
	var cancelErr error
	resEq9 := sc.resEq9[:0]
	postG.EachDst(func(vl graph.VID, vks []graph.VID) bool {
		if cancelErr = e.checkpoint(len(vks)); cancelErr != nil {
			return false
		}
		seen7.reset()
		seen8.reset()
		if typ == rpq.ClosureStar {
			// Pre·R*·Post ⊇ Pre·Post: the zero-iteration paths join Pre
			// directly to Post's start vertices (v_j = v_k).
			for _, vk := range vks {
				resEq9 = append(resEq9, pairs.Pair{Src: vl, Dst: vk})
			}
		}
		for _, vk := range vks {
			sk := structure.CompOf(vk)
			if sk < 0 {
				continue // v_k ∉ V_R ends no R+ path
			}
			if !seen7.add(sk) {
				continue
			}
			for _, sj := range structure.ReachableInto(sk) {
				if !seen8.add(int32(sj)) {
					continue
				}
				members := structure.Members(int32(sj))
				if cancelErr = e.checkpoint(len(members)); cancelErr != nil {
					return false
				}
				for _, vj := range members {
					resEq9 = append(resEq9, pairs.Pair{Src: vl, Dst: vj})
				}
			}
		}
		return true
	})
	sc.resEq9 = resEq9
	e.addPreJoin(time.Since(joinStart))
	if cancelErr != nil {
		e.releaseScratch(sc)
		return nil, cancelErr
	}

	return e.joinPreBackward(sc, preG)
}

// EvalBatchUnitFullBackward is the backward join over the full closure:
// pair-level enumeration through the transposed closure with duplicate
// checks everywhere, exactly as EvalBatchUnitFull is the pair-level
// forward join.
func (e *engineVersion) EvalBatchUnitFullBackward(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, postG *pairs.Relation) (*pairs.Relation, error) {
	joinStart := time.Now()

	sc := e.acquireScratch()
	seenV := &sc.seenA

	var cancelErr error
	resEq9 := sc.resEq9[:0]
	postG.EachDst(func(vl graph.VID, vks []graph.VID) bool {
		if cancelErr = e.checkpoint(len(vks)); cancelErr != nil {
			return false
		}
		seenV.reset()
		if typ == rpq.ClosureStar {
			for _, vk := range vks {
				if seenV.add(vk) {
					resEq9 = append(resEq9, pairs.Pair{Src: vl, Dst: vk})
				}
			}
		}
		for _, vk := range vks {
			into := closure.Into(vk)
			if cancelErr = e.checkpoint(len(into)); cancelErr != nil {
				return false
			}
			for _, vj := range into {
				if seenV.add(vj) {
					resEq9 = append(resEq9, pairs.Pair{Src: vl, Dst: vj})
				}
			}
		}
		return true
	})
	sc.resEq9 = resEq9
	e.addPreJoin(time.Since(joinStart))
	if cancelErr != nil {
		e.releaseScratch(sc)
		return nil, cancelErr
	}

	return e.joinPreBackward(sc, preG)
}

// joinPreBackward finishes a backward batch unit: sc.resEq9 holds (v_l,
// v_j) tuples grouped by v_l, and every Pre_G tuple (v_i, v_j) extends
// one to a result (v_i, v_l). Like joinPost this is Remainder time
// (the strategies share it identically); the duplicate
// check on v_i per v_l mirrors joinPost's on v_l per v_i. Pre_G is
// walked end-vertex-first through its transposed columns — one lazy
// build per relation, in place of the seed's per-call re-bucketing.
// The scratch is released on return.
func (e *engineVersion) joinPreBackward(sc *joinScratch, preG *pairs.Relation) (*pairs.Relation, error) {
	t0 := time.Now()
	defer func() { e.addRemainder(time.Since(t0)) }()
	defer e.releaseScratch(sc)

	out := e.acquireBuilder()
	seenVi := &sc.seenA
	resEq9 := sc.resEq9
	for i := 0; i < len(resEq9); {
		vl := resEq9[i].Src
		seenVi.reset()
		for ; i < len(resEq9) && resEq9[i].Src == vl; i++ {
			vj := resEq9[i].Dst
			srcs := preG.SrcsOf(vj)
			if err := e.checkpoint(len(srcs) + 1); err != nil {
				e.releaseBuilder(out)
				return nil, err
			}
			for _, vi := range srcs {
				if seenVi.add(vi) {
					out.Add(vi, vl)
				}
			}
		}
	}
	resEq10 := out.Seal()
	e.releaseBuilder(out)
	return resEq10, nil
}

// joinPost implements equations (9)→(10) — Algorithm 2 lines 13–16 — at
// vertex-pair level, for the FullSharing and NoSharing baselines: for
// every (v_i, v_k) of the Pre·R{+,*} result, extend by the paths
// satisfying Post from v_k (EvalRestrictedRPQ), unioning into ResEq10.
// It is Remainder time. sc.resEq9 must be grouped by Src, which
// EvalBatchUnitFull guarantees; the per-v_i duplicate stamps mean every
// emitted pair is unique, so the result goes straight into a pooled
// builder and is sealed once. The scratch is released on return.
func (e *engineVersion) joinPost(sc *joinScratch, post rpq.Expr) (*pairs.Relation, error) {
	t0 := time.Now()
	defer func() { e.addRemainder(time.Since(t0)) }()
	defer e.releaseScratch(sc)

	out := e.acquireBuilder()
	_, postIsEps := post.(rpq.Epsilon)
	var (
		evalPost *eval.Evaluator
		// EvalRestrictedRPQ(Post, v_k) memoised per distinct v_k within
		// the batch unit: end vertices append into the pooled flat
		// buffer, the memo keeps spans.
		ends   map[graph.VID]endSpan
		seenVl = &sc.seenB
	)
	sc.endsBuf = sc.endsBuf[:0]
	if !postIsEps {
		var evalKey string
		evalPost, evalKey = e.acquireEvaluator(post)
		defer e.releaseEvaluator(evalKey, evalPost)
		if sc.endSpans == nil {
			sc.endSpans = make(map[graph.VID]endSpan)
		} else {
			clear(sc.endSpans)
		}
		ends = sc.endSpans
	}

	resEq9 := sc.resEq9
	for i := 0; i < len(resEq9); {
		vi := resEq9[i].Src
		seenVl.reset()
		for ; i < len(resEq9) && resEq9[i].Src == vi; i++ {
			if err := e.checkpoint(1); err != nil {
				e.releaseBuilder(out)
				return nil, err
			}
			vk := resEq9[i].Dst
			if postIsEps {
				// Post = ε: ResEq10 is ResEq9 de-duplicated. Duplicates
				// only arise from the R* seeding.
				if seenVl.add(vk) {
					out.Add(vi, vk)
				}
				continue
			}
			span, ok := ends[vk]
			if !ok {
				span.start = int32(len(sc.endsBuf))
				sc.endsBuf = evalPost.AppendReachFrom(vk, sc.endsBuf)
				span.end = int32(len(sc.endsBuf))
				ends[vk] = span
			}
			for _, vl := range sc.endsBuf[span.start:span.end] {
				// Lines 15–16: duplicate check for (10).
				if seenVl.add(vl) {
					out.Add(vi, vl)
				}
			}
		}
	}
	resEq10 := out.Seal()
	e.releaseBuilder(out)
	return resEq10, nil
}
