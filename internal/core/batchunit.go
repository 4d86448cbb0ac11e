package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/tc"
)

// This file implements the batch-unit join of Algorithm 2 — one per
// clause kind — as a per-source producer, and their one sealed driver.
// A producer ORs source v_i's destinations into a pairs.RunAccumulator;
// the OR is the dedupe and draining the accumulator is the sort. Each
// clause kind has exactly one:
//
//   - RTCSharing: the row kernel of rowkernel.go, which pushes Post
//     through the condensation;
//   - FullSharing and NoSharing: the pair-level join over the full
//     closure (fullJoin), whose set semantics — which unions happen
//     where, and therefore which redundant/useless operations it performs
//     — exactly follow Section IV-B; it joins 64 sources at a time, one
//     per bit of a mask word, and hands their runs out one by one;
//   - a closure-free clause: the product search of tc's kernel from 64
//     candidate starts at once, handed out one source at a time like
//     fullJoin's batches (automatonJoin).
//
// Every consumer drives these producers. The sealed path drains each
// clause's producer into exact-size CSR columns (sealClause). A DNF of
// several clauses is one union producer over its parts: the sealed
// clauses, which drain ORs once, or the clauses' producers, which
// ResultStream pulls one source at a time. ASK is a stream stopped at
// its first pair.

// producer is one clause's per-source join. produce ORs source vi's
// destinations into acc and returns the rows it touched (the stream's
// StreamStats.Rows); release returns its pooled state. name, which
// drain calls first, names vi's run: runs named alike (≥ 0) are equal,
// so drain produces one once. −1 names no run.
type producer interface {
	name(vi graph.VID) (int32, error)
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

// acquirePost checks a join's Post evaluator out. Compiling a Post that
// is traversed is other, like its traversals; a label's evaluator only
// hands out the graph's CSR, which the join reads as join work.
func (c *evalCall) acquirePost(post rpq.Expr) (*eval.Evaluator, string, labelPost) {
	if _, ok := post.(rpq.Label); ok {
		ev, key := c.acquireEvaluator(post)
		return ev, key, labelPostOf(ev)
	}
	prev := c.enter(bucketOther)
	ev, key := c.acquireEvaluator(post)
	c.enter(prev)
	return ev, key, labelPost{}
}

// openClause resolves one planned clause's inputs through the shared
// caches and returns its producer, which the caller must release, with
// the clause's Pre_G (nil for a closure-free clause): Pre_G (Algorithm 1
// line 8, recursive), and R's RTC under RTCSharing or its full closure
// under Full/NoSharing. width caps the sources a pair-level producer
// joins per batch: fullBatch, or 1 for a caller that may stop after any
// source.
func (c *evalCall) openClause(cp *plan.ClausePlan, width int) (producer, *pairs.Relation, error) {
	if cp.Kind == plan.KindAutomaton {
		a := c.openAutomaton(cp.Clause)
		a.width = width
		return a, nil, nil
	}
	bu := cp.Unit
	preG, err := c.subEvaluateRel(bu.Pre)
	if err != nil {
		return nil, nil, err
	}
	shared, err := c.getShared(bu.R)
	if err != nil {
		return nil, nil, err
	}
	if shared.rtc != nil {
		return c.acquireKernel(preG, shared.rtc, bu.Type, bu.Post), preG, nil
	}
	j := c.acquireFull(preG, shared.closure, bu.Type, bu.Post)
	j.width = width
	return j, preG, nil
}

// sealClause drains a clause's producer into its sealed relation and
// releases it, in the caller's bucket: join for a join, which execClause
// enters, or the caller's own for an automaton clause.
func (c *evalCall) sealClause(p producer) (*pairs.Relation, error) {
	rel, err := c.drain(p)
	p.release()
	return rel, err
}

// MaxResultPairs is the most pairs a sealed relation holds: its offsets
// are int32, so one more pair would wrap every count and position read
// from them.
const MaxResultPairs = math.MaxInt32

// ErrResultTooLarge is returned, wrapped with the count that passed
// MaxResultPairs, by an evaluation whose sealed result would hold more
// pairs than its offsets can count. It is refused before the columns
// are written; a stream, which needs no offsets, delivers such a result.
var ErrResultTooLarge = errors.New("core: result too large to seal")

// checkResultLen refuses a sealed result of pairs pairs past
// MaxResultPairs.
func checkResultLen(pairs int) error {
	if pairs > MaxResultPairs {
		return fmt.Errorf("%w: %d pairs, at most %d", ErrResultTooLarge, pairs, MaxResultPairs)
	}
	return nil
}

// drainScratch is the pooled state of drain: the run accumulator, and
// the runs stored so far as words, in column order, indexed by hash and
// by the producer's run names.
type drainScratch struct {
	acc    *pairs.RunAccumulator
	stored pairs.WordRuns   // the stored runs, in column order
	runs   []runPlace       // by stored run: where it lies in the column
	index  map[uint64]int32 // a run hash → the first stored run with it
	named  []int32          // by run name + 1: 1 + its stored run, or 0
}

// runPlace is where one stored run lies in drain's column: its size
// destinations start at column position at.
type runPlace struct{ at, size int32 }

// drain is the sealed driver of every producer: it runs p once per
// source, ascending, and keeps each run in word form
// (RunAccumulator.DrainWords). A run equal, word for word, to one stored
// before is not stored again: the source's handle names the earlier
// copy. A repeated name finds it by a lookup, with no run produced; any
// other run by a hash of its words, and one whose hash an unequal run
// holds is stored unshared. The handles are written straight from the
// runs table, into the one column that becomes the offsets of the plain
// form when that form is the smaller (pairs.PlainColumnBytes against
// pairs.SharedColumnBytes): a result with no repeat is always plain.
// The column is written once at the end, exactly sized, in the seal
// bucket, by expanding the stored runs once each for the row-shared form
// (pairs.RelationFromSharedRuns) and once per source for the plain one.
// Every source is a checkpoint weighted by its run's size, shared or
// not, and so is every run expanded. A result past MaxResultPairs stops
// the drain at the source that passes it.
func (c *evalCall) drain(p producer) (*pairs.Relation, error) {
	sc := c.drainPool.Get().(*drainScratch)
	defer func() {
		sc.reset()
		c.drainPool.Put(sc)
	}()
	n := c.g.NumVertices()
	// cols[v] is source v's handle: 1 + its stored run, 0 for none.
	cols := make([]int32, n+1)
	total, stored := 0, 0 // destinations the relation holds, and the stored runs
	for v := 0; v < n; v++ {
		name, err := p.name(graph.VID(v))
		if err != nil {
			return nil, err
		}
		slot := sc.slot(name)
		r := *slot - 1
		if r < 0 {
			if _, err := p.produce(graph.VID(v), sc.acc); err != nil {
				return nil, err
			}
			if !sc.acc.Empty() {
				var repeat bool
				if r, repeat = sc.store(int32(stored)); !repeat {
					stored += int(sc.runs[r].size)
				}
				*slot = r + 1
			}
		}
		size := int32(0)
		if r >= 0 {
			cols[v], size = r+1, sc.runs[r].size
		}
		total += int(size)
		if err := checkResultLen(total); err != nil {
			return nil, err
		}
		if err := c.checkpoint(int(size)); err != nil {
			return nil, err
		}
	}
	prev := c.enter(bucketSeal)
	defer c.enter(prev)
	if pairs.SharedColumnBytes(n, len(sc.runs), stored) < pairs.PlainColumnBytes(n, total) {
		col := make([]graph.VID, 0, stored)
		runOffsets := make([]int32, len(sc.runs)+2)
		for r, s := range sc.runs {
			col = sc.stored.AppendRun(col, r)
			runOffsets[r+2] = s.at + s.size
			if err := c.checkpoint(int(s.size)); err != nil {
				return nil, err
			}
		}
		return pairs.RelationFromSharedRuns(n, cols[:n], runOffsets, col), nil
	}
	// The plain form: each source's run in turn, and its handle replaced
	// in place by the offset past it.
	col := make([]graph.VID, 0, total)
	h := cols[0]
	cols[0] = 0
	for v := 1; v <= n; v++ {
		if h > 0 {
			col = sc.stored.AppendRun(col, int(h-1))
			if err := c.checkpoint(int(sc.runs[h-1].size)); err != nil {
				return nil, err
			}
		}
		h, cols[v] = cols[v], int32(len(col))
	}
	return pairs.RelationFromSortedRuns(n, cols, col), nil
}

// store drains the accumulator's run and returns the stored run that
// holds it and whether that run was stored before: one that equals it,
// or a new run placed at column position at.
func (sc *drainScratch) store(at int32) (int32, bool) {
	r := sc.stored.Drain(sc.acc)
	idx, words := sc.stored.Run(r)
	h := runHash(idx, words)
	if first, ok := sc.index[h]; !ok {
		sc.index[h] = int32(r)
	} else if fidx, fwords := sc.stored.Run(int(first)); slices.Equal(words, fwords) && slices.Equal(idx, fidx) {
		sc.stored.Truncate(r)
		return first, true
	}
	sc.runs = append(sc.runs, runPlace{at, int32(sc.stored.Count(r))})
	return int32(r), false
}

// slot returns where drain keeps 1 + the stored run named name, 0 until
// there is one. The slot of −1, no name, is emptied on every call.
func (sc *drainScratch) slot(name int32) *int32 {
	i := int(name) + 1
	if i >= len(sc.named) {
		// Grown in place: the pooled capacity past len is all-zero.
		sc.named = slices.Grow(sc.named, i+1-len(sc.named))[:i+1]
	}
	sc.named[0] = 0
	return &sc.named[i]
}

func (sc *drainScratch) reset() {
	sc.acc.Reset()
	sc.stored.Reset()
	sc.runs = sc.runs[:0]
	clear(sc.index)
	clear(sc.named)
	sc.named = sc.named[:0]
}

// runHash hashes a run in word form.
func runHash(idx []int32, words []uint64) uint64 {
	h := uint64(len(idx))
	for i, wi := range idx {
		h = bits.RotateLeft64((h^words[i])*0x9e3779b97f4a7c15, 29) ^ uint64(uint32(wi))
	}
	return h
}

// union is the producer of a multi-clause DNF: it ORs every part's run
// for a source into the one accumulator, whose OR dedupes across clauses
// as it does within one. A stream's parts are its clauses' producers;
// the sealed path's are its clauses' sealed relations (sealedRuns),
// drained once. Each source is one cancellation checkpoint, and every
// part polls for its own work.
type union struct {
	c     *evalCall
	parts []producer
}

func (u *union) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	if err := u.c.checkpoint(1); err != nil {
		return 0, err
	}
	var rows int64
	for _, p := range u.parts {
		r, err := p.produce(vi, acc)
		rows += r
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

func (*union) name(graph.VID) (int32, error) { return -1, nil }

func (u *union) release() {
	for _, p := range u.parts {
		p.release()
	}
	*u = union{}
}

// sealedRuns is a sealed clause result as a union part: its run for v is
// row v of the relation, ORed as words at a checkpoint weighted by its
// length. A run that is the previous non-empty source's stored copy —
// as in a row-shared relation, where consecutive sources mostly share
// one — is ORed as the words it was converted to then.
type sealedRuns struct {
	c     *evalCall
	rel   *pairs.Relation
	last  []graph.VID // the previous non-empty run
	idx   []int32     // and its words
	words []uint64
}

func (s *sealedRuns) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	dsts := s.rel.DstsOf(vi)
	if len(dsts) == 0 {
		return 0, s.c.checkpoint(0)
	}
	if len(dsts) != len(s.last) || &dsts[0] != &s.last[0] {
		s.last, s.idx, s.words = dsts, s.idx[:0], s.words[:0]
		for _, d := range dsts {
			if wi := int32(d >> 6); len(s.idx) == 0 || s.idx[len(s.idx)-1] != wi {
				s.idx, s.words = append(s.idx, wi), append(s.words, 0)
			}
			s.words[len(s.words)-1] |= 1 << (d & 63)
		}
	}
	acc.OrWords(s.idx, s.words)
	return int64(len(dsts)), s.c.checkpoint(len(dsts))
}

func (*sealedRuns) name(graph.VID) (int32, error) { return -1, nil }

func (*sealedRuns) release() {}

// name resolves source v_i's run over its Pre-ends (gather) and names
// it by the stored row it is exactly, or −1 for a run of several parts
// or none. The produce(v_i) that follows ORs the resolved run without
// gathering again.
func (k *rowKernel) name(vi graph.VID) (int32, error) {
	vjs := k.preG.DstsOf(vi)
	if err := k.c.checkpoint(len(vjs)); err != nil {
		return -1, err
	}
	k.resolved = int64(vi) + 1
	return k.gather(vjs)
}

// produce is the RTCSharing producer: the row kernel's gather, unless
// name has just run it, and orRun over source v_i's Pre-ends.
func (k *rowKernel) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	vjs := k.preG.DstsOf(vi)
	if len(vjs) == 0 {
		return 0, nil
	}
	work0 := k.work
	var err error
	if k.resolved != int64(vi)+1 {
		_, err = k.name(vi)
	}
	if err == nil {
		err = k.orRun(acc)
	}
	k.resolved = 0
	return int64(len(vjs)) + k.work - work0, err
}

func (k *rowKernel) release() { k.c.releaseKernel(k) }

// fullBatch is the number of sources one batch of the pair-level join
// joins: one per bit of a mask word.
const fullBatch = 64

// fullJoin is the pair-level producer of FullSharing and NoSharing. It
// joins up to fullBatch consecutive sources with a non-empty Pre_G at
// once (Then et al.'s multi-source idea, as tc's closure kernel uses
// it). The frontier is source-major: bit c of front[b·64+i] says source
// i's frontier holds vertex 64·b+c. For every Pre_G tuple (v_i, v_j) the
// entire reachable set From(v_j) is ORed into source i's bitset, one
// word of the closure row at a time — the redundant-1 and redundant-2
// operations of Definitions 3 and 4 that Algorithm 2 eliminates are all
// performed here, once per tuple, and each tuple is still charged
// |From(v_j)| rows — giving every source's tuples of equation (9) at
// once. Under an ε Post the frontier is the output, and each source's
// run is its bitset's non-zero words. Otherwise each touched 64-vertex
// block of the frontier is transposed (pairs.Transpose64) into vertex
// masks, bit i standing for source i; each frontier vertex's Post ends
// are then read once per batch, not once per source, and ORed under its
// mask into per-destination masks (equation (10)), whose touched blocks
// are transposed back into source words. A label Post's ends are the
// vertex's row of the graph's CSR; any other EvalRestrictedRPQ(Post,
// v_k) is a traversal memoised per join in one flat buffer addressed by
// spans, the same Post work the row kernel does. Block summaries
// (pairs.MarkBlock) list the blocks a batch touched, so the runs come
// out ascending without a sort and a batch costs what it reaches, never
// |V|.
//
// produce(v_i) joins v_i's batch on first use and ORs v_i's run into the
// caller's accumulator; the rows it reports are v_i's own — its Pre_G ⋈
// R+ tuples plus its frontier's Post ends — so they sum to what a
// per-source join touches. A stream with a Limit joins batches one
// source wide (width 1), so it stops inside one source's expansion. One
// join owns a fullJoin exclusively from acquireFull to release; c, its
// call, is set on acquire and cleared on release, so the pool never
// keeps a finished call's context or timer reachable.
type fullJoin struct {
	c       *evalCall
	preG    *pairs.Relation
	closure *tc.Closure
	star    bool
	width   int             // sources per batch, at most fullBatch
	postEv  *eval.Evaluator // nil when Post is ε
	evKey   string
	label   labelPost // set when Post is one label

	// The batch's masks over whole 64-vertex blocks, and their block
	// summaries, all zero between batches: front, source-major, holds
	// every source's frontier; endMask, vertex-major and used only
	// under a non-ε Post, holds at endMask[v] the sources whose run
	// holds v.
	front, frontBlocks []uint64
	endMask, endBlocks []uint64

	// The current batch: its sources, ascending, and per source the rows
	// it touched and its run, run i source i's; blocks lists the blocks
	// emit hands to the runs.
	srcs   []graph.VID
	rows   [fullBatch]int64
	runs   pairs.WordRuns
	blocks []int32

	endsBuf  []graph.VID
	endSpans []endSpan // by vertex; valid where memo marks it
	memo     stampSet  // the vertices whose Post ends this join holds
}

// endSpan addresses one memoised Post traversal inside endsBuf.
type endSpan struct{ start, end int32 }

// acquireFull checks a pair-level producer out of the version's pool,
// set up for one join of fullBatch sources per batch.
func (c *evalCall) acquireFull(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, post rpq.Expr) *fullJoin {
	j := c.fullPool.Get().(*fullJoin)
	j.c, j.preG, j.closure, j.star, j.width = c, preG, closure, typ == rpq.ClosureStar, fullBatch
	n := c.g.NumVertices()
	nb := (n + 63) / 64
	j.front = zeroed(j.front, nb*64)
	j.frontBlocks = zeroed(j.frontBlocks, (nb+63)/64)
	if _, eps := post.(rpq.Epsilon); !eps {
		j.endMask = zeroed(j.endMask, nb*64)
		j.endBlocks = zeroed(j.endBlocks, (nb+63)/64)
		if j.postEv, j.evKey, j.label = c.acquirePost(post); j.label.ok {
			return j
		}
		j.memo.ensure(n)
		j.memo.reset()
		if len(j.endSpans) < n {
			j.endSpans = make([]endSpan, n)
		}
	}
	return j
}

func (j *fullJoin) release() {
	c := j.c
	if j.postEv != nil {
		c.releaseEvaluator(j.evKey, j.postEv)
	}
	j.srcs, j.endsBuf = j.srcs[:0], j.endsBuf[:0]
	j.c, j.preG, j.closure, j.postEv, j.evKey, j.label = nil, nil, nil, nil, "", labelPost{}
	c.fullPool.Put(j)
}

func (*fullJoin) name(graph.VID) (int32, error) { return -1, nil }

func (j *fullJoin) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	if len(j.preG.DstsOf(vi)) == 0 {
		return 0, nil
	}
	i, ok := slices.BinarySearch(j.srcs, vi)
	if !ok {
		if err := j.join(vi); err != nil {
			j.abort()
			return 0, err
		}
		i = 0
	}
	acc.OrWords(j.runs.Run(i))
	return j.rows[i], nil
}

// join joins the batch that starts at source v0: the next width sources
// from v0 on whose Pre_G is not empty.
func (j *fullJoin) join(v0 graph.VID) error {
	c := j.c
	j.srcs = j.srcs[:0]
	for v, n := v0, graph.VID(j.preG.NumVertices()); v < n && len(j.srcs) < j.width; v++ {
		if len(j.preG.DstsOf(v)) > 0 {
			j.srcs = append(j.srcs, v)
		}
	}
	front, blocks := j.front, j.frontBlocks
	for i, vi := range j.srcs {
		vjs := j.preG.DstsOf(vi)
		if err := c.checkpoint(len(vjs)); err != nil {
			return err
		}
		rows := int64(len(vjs))
		if j.star {
			for _, vj := range vjs {
				front[int(vj>>6)<<6|i] |= 1 << (vj & 63)
				pairs.MarkBlock(blocks, vj)
			}
		}
		for _, vj := range vjs {
			idx, words := j.closure.Row(vj)
			from := 0
			for k, wi := range idx {
				f := &front[int(wi)<<6|i]
				if *f == 0 {
					pairs.MarkBlock(blocks, graph.VID(wi)<<6)
				}
				*f |= words[k]
				from += bits.OnesCount64(words[k])
			}
			rows += int64(from)
			if err := c.checkpoint(from); err != nil {
				return err
			}
		}
		j.rows[i] = rows
	}
	j.runs.Reset()
	if j.postEv == nil {
		j.emit(j.front, j.frontBlocks, false)
		return nil
	}
	if err := j.probePost(); err != nil {
		return err
	}
	j.emit(j.endMask, j.endBlocks, true)
	return nil
}

// probePost reads the frontier one touched block at a time, transposed
// in place into 64 vertex masks, and resets it: it ORs each frontier
// vertex's Post ends, once per batch, into the end masks under the
// vertex's mask, and charges every source whose frontier holds the
// vertex one row per end. The charge is bit-sliced: plane k marks the
// block's vertices whose end count has bit k set, so source i is
// charged Σ_k popcount(its frontier word ∧ plane k)·2^k, one popcount
// per plane rather than one add per frontier bit. A block it stops
// inside stays in the summary for abort.
func (j *fullJoin) probePost() error {
	c := j.c
	for k, sum := range j.frontBlocks {
		for ; sum != 0; sum &= sum - 1 {
			b := k<<6 | bits.TrailingZeros64(sum)
			blk := (*[64]uint64)(j.front[b<<6:])
			bySource := *blk
			pairs.Transpose64(blk)
			var planes [32]uint64
			top := 0
			for col, m := range blk {
				if m == 0 {
					continue
				}
				blk[col] = 0
				ends := j.postEnds(graph.VID(b<<6 | col))
				if err := c.checkpoint(len(ends) + 1); err != nil {
					j.frontBlocks[k] = sum
					return err
				}
				for l := len(ends); l != 0; l &= l - 1 {
					planes[bits.TrailingZeros(uint(l))] |= 1 << col
				}
				top = max(top, bits.Len(uint(len(ends))))
				for _, e := range ends {
					if j.endMask[e] == 0 {
						pairs.MarkBlock(j.endBlocks, e)
					}
					j.endMask[e] |= m
				}
			}
			for i, f := range bySource[:len(j.srcs)] {
				rows := 0
				for p, plane := range planes[:top] {
					rows += bits.OnesCount64(f&plane) << p
				}
				j.rows[i] += int64(rows)
			}
		}
		j.frontBlocks[k] = 0
	}
	return nil
}

// postEnds returns Post(v): the label's CSR row, or the memoised
// traversal, run on first use.
func (j *fullJoin) postEnds(v graph.VID) []graph.VID {
	if j.label.ok {
		return j.label.ends(v)
	}
	if j.memo.add(v) {
		prev := j.c.enter(bucketOther)
		start := int32(len(j.endsBuf))
		j.endsBuf = j.postEv.AppendReachFrom(v, j.endsBuf)
		j.endSpans[v] = endSpan{start, int32(len(j.endsBuf))}
		j.c.enter(prev)
	}
	span := j.endSpans[v]
	return j.endsBuf[span.start:span.end]
}

// emit turns masks into every source's run, ascending, and resets them
// and their summary: the blocks the summary marks, in block order, give
// source i word i of each (pairs.WordRuns.AppendBlocks). Source-major
// masks (the frontier) are read as they lie; vertex-major ones (the end
// masks) are transposed first.
func (j *fullJoin) emit(masks, summary []uint64, vertexMajor bool) {
	j.blocks = j.blocks[:0]
	pairs.DrainBlocks(summary, func(b int) {
		if vertexMajor {
			pairs.Transpose64((*[64]uint64)(masks[b<<6:]))
		}
		j.blocks = append(j.blocks, int32(b))
	})
	j.runs.AppendBlocks(masks, j.blocks, len(j.srcs))
	for _, b := range j.blocks {
		clear(masks[b<<6 : b<<6+64])
	}
}

// abort clears what a batch stopped by an error left in the masks, and
// forgets the batch.
func (j *fullJoin) abort() {
	pairs.DrainBlocks(j.frontBlocks, func(b int) { clear(j.front[b<<6 : b<<6+64]) })
	pairs.DrainBlocks(j.endBlocks, func(b int) { clear(j.endMask[b<<6 : b<<6+64]) })
	j.srcs = j.srcs[:0]
}

// automatonJoin is the producer of a closure-free clause (Algorithm 1
// line 6): its evaluator's product search (eval.Reach) run from width
// consecutive candidate starts at once — the FIRST-set candidates
// (Evaluator.Starts), every vertex when the clause is nullable — each
// source's ends handed out as its run, as fullJoin hands out a batch.
// The search polls the checkpoint after each level. At width 1 a source
// is traversed on its own (eval.AppendReachFrom), a checkpoint weighted
// by its ends.
type automatonJoin struct {
	c     *evalCall
	ev    *eval.Evaluator
	evKey string
	width int
	srcs  []graph.VID    // the current batch, a window of ev.Starts
	runs  pairs.WordRuns // its runs, run i source i's
	ends  []graph.VID    // one source's traversal, at width 1
}

// openAutomaton returns the producer of closure-free clause q, joining
// fullBatch sources per batch.
func (c *evalCall) openAutomaton(q rpq.Expr) *automatonJoin {
	a := &automatonJoin{c: c, width: fullBatch}
	a.ev, a.evKey = c.acquireEvaluator(q)
	return a
}

func (*automatonJoin) name(graph.VID) (int32, error) { return -1, nil }

func (a *automatonJoin) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	i, ok := slices.BinarySearch(a.srcs, vi)
	if !ok {
		k, ok := slices.BinarySearch(a.ev.Starts(), vi)
		if !ok {
			return 0, nil
		}
		if a.width == 1 {
			a.ends = a.ev.AppendReachFrom(vi, a.ends[:0])
			acc.AddAll(a.ends)
			return int64(len(a.ends)), a.c.checkpoint(len(a.ends) + 1)
		}
		if err := a.join(k); err != nil {
			return 0, err
		}
		i = 0
	}
	acc.OrWords(a.runs.Run(i))
	return int64(a.runs.Count(i)), nil
}

// join searches the batch of the width candidate starts from the k-th
// on. A search the checkpoint stops leaves no batch.
func (a *automatonJoin) join(k int) error {
	starts := a.ev.Starts()
	a.srcs = starts[k:min(k+a.width, len(starts))]
	a.runs.Reset()
	err := a.ev.Reach(a.srcs, a.c.checkpoint, &a.runs)
	if err != nil {
		a.srcs = nil
	}
	return err
}

func (a *automatonJoin) release() { a.c.releaseEvaluator(a.evKey, a.ev) }
