package core

import (
	"context"
	"errors"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// This file is the enumeration-grade delivery layer: a pull-based result
// stream that yields (src, dst) pairs in exactly the order a sealed
// relation would hold them — per-source ascending, each source's
// destination run sorted and duplicate-free — without ever sealing the
// full top-level relation. The batch-unit join still runs through the
// shared structures (sub-relations, RTCs and closures resolve through
// the same caches as sealed evaluation, at stream-open time), but the
// top-level ResEq10 union is re-driven one source vertex at a time, so
// the peak working set is one source's run plus the pooled join scratch
// instead of the whole answer.
//
// Determinism is the load-bearing property: a stream, a sealed
// evaluation and a cursor-resumed page over the same graph epoch must
// agree pair-for-pair, prefix included. The per-source re-drive gives
// that for free — Builder.Seal sorts by (src, dst) and dedups, and the
// stream emits the same set grouped by ascending source, each source's
// destinations ORed into one reusable vertex bitset (the dedup) and
// popped in ascending bit order (the sort) — which the differential
// streaming suite enforces across strategies.

// ErrStreamClosed is returned by Next after Close.
var ErrStreamClosed = errors.New("core: result stream closed")

// StreamOptions configure OpenStream.
type StreamOptions struct {
	// Limit, when positive, stops the stream after that many pairs —
	// exactly the first Limit pairs of the sealed (src, dst) order, so a
	// LIMIT k response is a prefix of the full answer.
	Limit int
}

// StreamStats is the instrumentation counter set of one stream or ASK
// probe: how much work the short-circuit modes actually did. Rows
// counts join/traversal tuples touched; Sources counts source vertices
// whose runs were produced; Pairs counts pairs handed to the caller.
type StreamStats struct {
	Sources int64
	Rows    int64
	Pairs   int64
}

// ResultStream enumerates one query's result in deterministic sealed
// order. It is pinned to the graph epoch current at OpenStream: the
// engine version it forked is immutable, so concurrent ApplyUpdates
// never perturb an open stream. Not safe for concurrent use; the
// goroutine that opened it must drive Next and Close.
type ResultStream struct {
	owner  *Engine
	worker *Engine
	v      *engineVersion
	epoch  uint64
	query  rpq.Expr

	limit int

	// sealed, when non-nil, backs the stream with an already-sealed
	// relation (the memo-warm fast path) instead of the per-source
	// re-drive.
	sealed    *pairs.Relation
	sealedPos int

	clauses []*clauseStream

	// acc holds the undelivered rest of source curSrc's run: the union
	// of every clause's destinations for it.
	acc     *pairs.RunAccumulator
	nextSrc int
	curSrc  graph.VID

	stats  StreamStats
	done   bool
	closed bool
	err    error
}

// clauseStream is the per-clause producer: the resolved inputs of one
// planned clause, re-driven one source vertex at a time. The Pre-driven
// join yields exactly the ascending source order a stream must emit.
type clauseStream struct {
	cp plan.ClausePlan

	// KindAutomaton: the product-traversal evaluator plus the candidate
	// start filter (nil seedable means every vertex is a candidate).
	ev       *eval.Evaluator
	evKey    string
	seedable []bool

	// KindShared: Pre_G, plus the row kernel under RTCSharing or the full
	// closure and its Post evaluator under Full/NoSharing.
	preG      *pairs.Relation
	kernel    *rowKernel
	closure   *tc.Closure
	postIsEps bool
	postEv    *eval.Evaluator
	postKey   string

	sc   *joinScratch // seenB = per-source frontier stamps; the Post memo
	mids []graph.VID  // per-source Pre⋈R{+,*} frontier
}

// OpenStream opens a pull-based stream over the result of q, pinned to
// the engine's current graph epoch. All shared inputs — sub-relations,
// closure structures, compiled evaluators — are resolved before
// OpenStream returns (through the same caches sealed evaluation uses),
// so Next touches only immutable version-local state: a caller may
// drop any lock that guarded the open before draining the stream.
//
// A memo-warm query streams from its cached sealed relation; everything
// else streams live: the batch-unit join is re-driven one source vertex
// at a time, with a cancellation checkpoint per source run.
func (e *Engine) OpenStream(ctx context.Context, q rpq.Expr, opts StreamOptions) (rs *ResultStream, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	if rel, epoch, ok := e.CachedResult(q); ok {
		return &ResultStream{sealed: rel, epoch: epoch, query: q, limit: opts.Limit}, nil
	}

	worker := e.Fork()
	worker.setCancel(ctx)
	// handoff marks the worker's ownership as settled — transferred to
	// the stream, or already absorbed — so the panic-recovery defer never
	// folds its stats back twice.
	handoff := false
	defer func() {
		r := recover()
		if !handoff && (r != nil || err != nil) {
			worker.setCancel(nil)
			e.absorb(worker)
		}
		asPanicError(q.String(), r, &err)
	}()

	v := worker.version()
	s := &ResultStream{
		owner:  e,
		worker: worker,
		v:      v,
		epoch:  v.epoch,
		query:  q,
		limit:  opts.Limit,
	}
	if oerr := s.open(q); oerr != nil {
		s.release()
		handoff = true
		return nil, oerr
	}
	handoff = true
	return s, nil
}

// open plans q and resolves every clause's inputs eagerly.
func (s *ResultStream) open(q rpq.Expr) error {
	v := s.v
	clauses, err := rpq.ToDNFLimit(q, v.maxClauses())
	if err != nil {
		return err
	}
	qp := v.planner().Plan(q, clauses)
	s.acc = pairs.NewRunAccumulator(v.g.NumVertices())
	for i := range qp.Clauses {
		cs, err := s.openClause(&qp.Clauses[i])
		if err != nil {
			return err
		}
		s.clauses = append(s.clauses, cs)
	}
	return nil
}

// openClause resolves one planned clause's inputs.
func (s *ResultStream) openClause(cp *plan.ClausePlan) (*clauseStream, error) {
	v := s.v
	cs := &clauseStream{cp: *cp}
	if cp.Kind == plan.KindAutomaton {
		cs.ev, cs.evKey = v.acquireEvaluator(cp.Clause)
		if seeds, ok := eval.CandidateStarts(v.g, cp.Clause); ok {
			seedable := make([]bool, v.g.NumVertices())
			for _, vid := range seeds {
				seedable[vid] = true
			}
			cs.seedable = seedable
		}
		return cs, nil
	}

	bu := cp.Unit
	preG, err := v.subEvaluateRel(bu.Pre)
	if err != nil {
		return cs, err
	}
	cs.preG = preG
	if v.opts.Strategy == RTCSharing {
		structure, err := v.getRTC(bu.R)
		if err != nil {
			return cs, err
		}
		cs.kernel = v.acquireKernel(structure, bu.Type, bu.Post)
		return cs, nil
	}
	// FullSharing, NoSharing
	closure, err := v.getFullClosure(bu.R)
	if err != nil {
		return cs, err
	}
	cs.closure = closure
	_, cs.postIsEps = bu.Post.(rpq.Epsilon)
	if !cs.postIsEps {
		cs.postEv, cs.postKey = v.acquireEvaluator(bu.Post)
	}
	cs.sc = v.acquireScratch()
	if cs.sc.endSpans == nil {
		cs.sc.endSpans = make(map[graph.VID]endSpan)
	} else {
		clear(cs.sc.endSpans)
	}
	cs.sc.endsBuf = cs.sc.endsBuf[:0]
	return cs, nil
}

// Epoch returns the graph epoch the stream is pinned to.
func (s *ResultStream) Epoch() uint64 { return s.epoch }

// Stats returns the stream's work counters so far.
func (s *ResultStream) Stats() StreamStats { return s.stats }

// Next fills buf with the next pairs of the sealed (src, dst) order and
// reports how many were written plus whether the stream is exhausted.
// It may return n > 0 together with done. After an error (cancellation,
// or a recovered evaluation panic) the stream is dead: the same error
// returns on every subsequent call.
func (s *ResultStream) Next(buf []pairs.Pair) (n int, done bool, err error) {
	if s.closed {
		return 0, true, ErrStreamClosed
	}
	if s.err != nil {
		return 0, true, s.err
	}
	if s.done {
		return 0, true, nil
	}
	defer func() {
		if r := recover(); r != nil {
			asPanicError(s.query.String(), r, &s.err)
			n, done, err = 0, true, s.err
		}
	}()

	if s.sealed != nil {
		return s.nextSealed(buf)
	}

	if s.limit > 0 {
		if left := int64(s.limit) - s.stats.Pairs; left < int64(len(buf)) {
			buf = buf[:left]
		}
	}
	for n < len(buf) {
		if s.acc.Empty() {
			if err := s.fillRun(); err != nil {
				s.err = err
				return n, true, err
			}
			if s.done {
				return n, true, nil
			}
		}
		k := s.acc.Drain(s.curSrc, buf[n:])
		n += k
		s.stats.Pairs += int64(k)
	}
	s.done = (s.limit > 0 && s.stats.Pairs >= int64(s.limit)) ||
		(s.acc.Empty() && s.nextSrc >= s.v.g.NumVertices())
	return n, s.done, nil
}

// nextSealed pages through the backing sealed relation.
func (s *ResultStream) nextSealed(buf []pairs.Pair) (int, bool, error) {
	remaining := s.sealed.Len() - s.sealedPos
	if s.limit > 0 {
		if left := s.limit - int(s.stats.Pairs); left < remaining {
			remaining = left
		}
	}
	if remaining <= 0 {
		s.done = true
		return 0, true, nil
	}
	want := len(buf)
	if want > remaining {
		want = remaining
	}
	n := s.sealed.PageInto(s.sealedPos, buf[:want])
	s.sealedPos += n
	s.stats.Pairs += int64(n)
	s.done = s.sealedPos >= s.sealed.Len() ||
		(s.limit > 0 && s.stats.Pairs >= int64(s.limit))
	return n, s.done, nil
}

// fillRun advances to the next source vertex with a non-empty merged
// run and leaves that run in s.acc — one sealed CSR run, built without
// sealing. Sets s.done when sources are exhausted.
func (s *ResultStream) fillRun() error {
	numV := s.v.g.NumVertices()
	for s.nextSrc < numV {
		vi := graph.VID(s.nextSrc)
		s.nextSrc++
		if err := s.worker.checkpoint(1); err != nil {
			return err
		}
		for _, cs := range s.clauses {
			if err := cs.addDsts(s, vi, s.acc); err != nil {
				return err
			}
		}
		if !s.acc.Empty() {
			s.curSrc = vi
			s.stats.Sources++
			return nil
		}
	}
	s.done = true
	return nil
}

// addDsts ORs source vi's destinations under this clause into out; the
// accumulator is the dedup, within the clause and across clauses. It is
// the per-source slice of exactly the work EvalBatchUnit's row kernel,
// EvalBatchUnitFull + joinPost, or AppendAllSeeded (for automaton plans)
// perform for vi. Under RTCSharing a row is built on the first source
// that needs it and reused by every later one, so a source's cost
// follows its distinct rows, not the closure behind them; Rows counts
// the kernel's words ORed and Post ends traversed.
func (cs *clauseStream) addDsts(s *ResultStream, vi graph.VID, out *pairs.RunAccumulator) error {
	if cs.cp.Kind == plan.KindAutomaton {
		if cs.seedable != nil && !cs.seedable[vi] {
			return nil
		}
		cs.mids = cs.ev.AppendReachFrom(vi, cs.mids[:0])
		s.stats.Rows += int64(len(cs.mids))
		out.AddAll(cs.mids)
		return nil
	}

	vjs := cs.preG.DstsOf(vi)
	if len(vjs) == 0 {
		return nil
	}
	if err := s.worker.checkpoint(len(vjs)); err != nil {
		return err
	}
	s.stats.Rows += int64(len(vjs))

	if k := cs.kernel; k != nil {
		work0 := k.work
		if _, err := k.gather(vjs); err != nil {
			return err
		}
		err := k.orRun(out)
		s.stats.Rows += k.work - work0
		return err
	}

	// Pre ⋈ R{+,*}: the per-vi frontier, exactly EvalBatchUnitFull's
	// resEq9 group for vi. Full-closure enumeration dedups the frontier
	// itself (the redundant-1/-2 checks); seen plays EvalBatchUnitFull's
	// seenV. The Star seeds may duplicate frontier members, but the
	// accumulator dedups the emitted run regardless.
	cs.mids = cs.mids[:0]
	seen := &cs.sc.seenB
	seen.reset()
	if cs.cp.Unit.Type == rpq.ClosureStar {
		cs.mids = append(cs.mids, vjs...)
	}
	for _, vj := range vjs {
		from := cs.closure.From(vj)
		if err := s.worker.checkpoint(len(from)); err != nil {
			return err
		}
		s.stats.Rows += int64(len(from))
		for _, vk := range from {
			if seen.add(vk) {
				cs.mids = append(cs.mids, vk)
			}
		}
	}

	// Post extension: joinPost's per-vi slice, with the same per-clause
	// ReachFrom memo (spans into the pooled flat buffer).
	if cs.postIsEps {
		out.AddAll(cs.mids)
		return nil
	}
	for _, vk := range cs.mids {
		if err := s.worker.checkpoint(1); err != nil {
			return err
		}
		span, ok := cs.sc.endSpans[vk]
		if !ok {
			span.start = int32(len(cs.sc.endsBuf))
			cs.sc.endsBuf = cs.postEv.AppendReachFrom(vk, cs.sc.endsBuf)
			span.end = int32(len(cs.sc.endsBuf))
			cs.sc.endSpans[vk] = span
		}
		ends := cs.sc.endsBuf[span.start:span.end]
		s.stats.Rows += int64(len(ends))
		out.AddAll(ends)
	}
	return nil
}

// Close releases the stream's pooled resources and folds the worker's
// timing split back into the owning engine. Idempotent; Next after
// Close returns ErrStreamClosed.
func (s *ResultStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.release()
}

func (s *ResultStream) release() {
	for _, cs := range s.clauses {
		if cs.ev != nil {
			s.v.releaseEvaluator(cs.evKey, cs.ev)
		}
		if cs.postEv != nil {
			s.v.releaseEvaluator(cs.postKey, cs.postEv)
		}
		if cs.sc != nil {
			s.v.releaseScratch(cs.sc)
		}
		if cs.kernel != nil {
			s.v.releaseKernel(cs.kernel)
		}
	}
	s.clauses = nil
	if s.worker != nil {
		s.worker.setCancel(nil)
		s.owner.absorb(s.worker)
		s.worker = nil
	}
}

// Ask reports whether the result of q is non-empty, stopping the moment
// the first pair is found. See AskCounted for the instrumented form.
func (e *Engine) Ask(ctx context.Context, q rpq.Expr) (bool, uint64, error) {
	found, epoch, _, err := e.AskCounted(ctx, q)
	return found, epoch, err
}

// AskCounted is Ask plus the rows-scanned counter the short-circuit
// tests assert on: the probe stops within one source expansion of the
// first hit, so rows stays far below the full evaluation's row count on
// any non-trivial answer.
func (e *Engine) AskCounted(ctx context.Context, q rpq.Expr) (found bool, epoch uint64, rows int64, err error) {
	if rel, ep, ok := e.CachedResult(q); ok {
		return rel.Len() > 0, ep, 0, nil
	}
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return false, e.Epoch(), 0, cerr
		}
	}
	worker := e.Fork()
	worker.setCancel(ctx)
	defer func() {
		r := recover()
		e.absorb(worker)
		asPanicError(q.String(), r, &err)
	}()

	v := worker.version()
	epoch = v.epoch
	found, rows, err = v.askPlanned(q)
	return found, epoch, rows, err
}

// askPlanned checks result existence clause by clause, stopping at the
// first clause that yields a pair.
func (v *engineVersion) askPlanned(q rpq.Expr) (bool, int64, error) {
	clauses, err := rpq.ToDNFLimit(q, v.maxClauses())
	if err != nil {
		return false, 0, err
	}
	var rows int64
	for _, clause := range clauses {
		cp := v.planner().PlanClause(clause)
		found, err := v.askClause(&cp, &rows)
		if err != nil {
			return false, rows, err
		}
		if found {
			return true, rows, nil
		}
	}
	return false, rows, nil
}

// askClause probes one planned clause for existence.
func (v *engineVersion) askClause(cp *plan.ClausePlan, rows *int64) (bool, error) {
	if cp.Kind == plan.KindAutomaton {
		ev, key := v.acquireEvaluator(cp.Clause)
		defer v.releaseEvaluator(key, ev)
		starts, ok := eval.CandidateStarts(v.g, cp.Clause)
		if !ok {
			starts = nil
		}
		probe := func(vi graph.VID) bool {
			*rows++
			return ev.AnyFrom(vi)
		}
		if starts != nil {
			for _, vi := range starts {
				if err := v.checkpoint(1); err != nil {
					return false, err
				}
				if probe(vi) {
					return true, nil
				}
			}
			return false, nil
		}
		for vi := 0; vi < v.g.NumVertices(); vi++ {
			if err := v.checkpoint(1); err != nil {
				return false, err
			}
			if probe(graph.VID(vi)) {
				return true, nil
			}
		}
		return false, nil
	}

	bu := cp.Unit
	preG, err := v.subEvaluateRel(bu.Pre)
	if err != nil {
		return false, err
	}
	var (
		structure *rtc.RTC
		closure   *tc.Closure
	)
	switch v.opts.Strategy {
	case RTCSharing:
		if structure, err = v.getRTC(bu.R); err != nil {
			return false, err
		}
	default:
		if closure, err = v.getFullClosure(bu.R); err != nil {
			return false, err
		}
	}
	return v.askForward(cp, preG, structure, closure, rows)
}

// askForward drives the existence probe from Pre's side, stopping at
// the first (vi, vl): the forward stream's fillRun, truncated.
func (v *engineVersion) askForward(cp *plan.ClausePlan, preG *pairs.Relation, structure *rtc.RTC, closure *tc.Closure, rows *int64) (found bool, err error) {
	var postEv *eval.Evaluator
	_, postIsEps := cp.Unit.Post.(rpq.Epsilon)
	if !postIsEps {
		var key string
		postEv, key = v.acquireEvaluator(cp.Unit.Post)
		defer v.releaseEvaluator(key, postEv)
	}
	sc := v.acquireScratch()
	defer v.releaseScratch(sc)
	seen7, seen8 := &sc.seenA, &sc.seenB

	// hasPost reports whether vk extends to any result end vertex.
	hasPost := func(vk graph.VID) bool {
		if postIsEps {
			return true
		}
		*rows++
		return postEv.AnyFrom(vk)
	}

	preG.EachSrc(func(vi graph.VID, vjs []graph.VID) bool {
		if err = v.checkpoint(len(vjs)); err != nil {
			return false
		}
		*rows += int64(len(vjs))
		seen7.reset()
		seen8.reset()
		if cp.Unit.Type == rpq.ClosureStar {
			for _, vj := range vjs {
				if hasPost(vj) {
					found = true
					return false
				}
			}
		}
		for _, vj := range vjs {
			if structure != nil {
				sj := structure.CompOf(vj)
				if sj < 0 || !seen7.add(sj) {
					continue
				}
				for _, sk := range structure.ReachableFrom(sj) {
					if !seen8.add(int32(sk)) {
						continue
					}
					for _, vk := range structure.Members(int32(sk)) {
						*rows++
						if hasPost(vk) {
							found = true
							return false
						}
					}
					if err = v.checkpoint(1); err != nil {
						return false
					}
				}
			} else {
				from := closure.From(vj)
				if err = v.checkpoint(len(from)); err != nil {
					return false
				}
				for _, vk := range from {
					*rows++
					if !seen8.add(vk) {
						continue
					}
					if hasPost(vk) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found, err
}
