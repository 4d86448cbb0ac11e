package core

import (
	"fmt"
	"slices"
	"time"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
)

// This file is the forward RTCSharing join, Pre_G ⋈ R̄+ ⋈ Post, pushed
// through the condensation. By Theorem 1 the members of one SCC are
// interchangeable as R+ targets, so the destinations a source receives
// depend only on which components its Pre-ends fall in. Over the edges
// of Ḡ_R — where a self-loop marks a cyclic SCC, and a singleton without
// one does not reach itself —
//
//	PostEnds(s) = ⋃_{v∈s} Post(v)          (the members when Post = ε)
//	Row(s)      = ⋃_{t∈succ(s)} PostEnds(t) ∪ (t ≠ s ? Row(t) : ∅)
//
// and source v_i's run is ⋃ Row(CompOf(v_j)) over its Pre-ends v_j, plus
// Post(v_j) itself under R*. Algorithm 2's eliminations map onto rows:
//
//   - useless-1: rows are filled by a DFS from the demanded components
//     (those holding a Pre-end) only, never by a sweep over all SIDs;
//   - redundant-1: Pre-ends sharing an SCC share one row, taken once per
//     source;
//   - redundant-2: a component reached from several others has its row
//     computed once, then ORed word-parallel into each predecessor's row
//     and each source's run;
//   - useless-2: members are never expanded; the OR is the dedupe.
//
// Rows are sets over the |V| destinations kept as their non-zero 64-bit
// words, so their memory follows their content; a row equal to the row
// of a cyclic successor (the common case upstream of a giant SCC) is
// that row, stored once. The sealed driver counts every source's run,
// allocates exact-size CSR columns and drains each run into them in
// ascending bit order; ResultStream ORs the same runs into its own
// accumulator one source at a time.

// rowBudgetWords caps the words one join stores in component rows — 12
// bytes each, the word and its index, so at most 12 MiB per join however
// many components it reaches. A component whose row would not fit is
// answered from TC(Ḡ_R) instead (orReachable): the same destinations,
// recomputed at each use.
const rowBudgetWords = 1 << 20

// A component is light when it reaches at most lightReach components
// whose PostEnds together cost at most lightCost words (members, for an
// ε Post). Its row is cheaper to recompute from TC(Ḡ_R) at each use than
// to memoise, and the DFS does not descend below it — on chain-like
// graphs, where a row serves one predecessor, memoising every component
// would cost more than the join it saves.
const (
	lightReach = 8
	lightCost  = 64
)

// Row handles index rowKernel.rows; handle 0 is the empty row. A
// component's state is a row handle, rowFallback when its row did not
// fit the budget, rowLight when it is answered from the closure by
// choice, or rowPending while it is on the DFS stack.
const (
	rowEmpty    int32 = 0
	rowFallback int32 = -1
	rowPending  int32 = -2
	rowLight    int32 = -3
	// compBase offsets a state into rowKernel.comps so that 0 there
	// means "not visited".
	compBase = 4
)

// rowSpan is one stored row: its words run from idx[lo], words[lo] to
// the start of the next row (the store is appended row by row).
type rowSpan struct {
	lo    int32
	count int32 // destinations
}

// rowFrame is one DFS stack entry: a component and its next successor.
type rowFrame struct{ s, pos int32 }

// rowKernel is the pooled state of one forward join: the component memo,
// the word store behind the rows, and the scratch of one source's run.
// One join owns a kernel exclusively from acquireKernel to releaseKernel.
type rowKernel struct {
	v      *engineVersion
	rtc    *rtc.RTC
	cond   *graph.DiGraph
	star   bool
	postEv *eval.Evaluator // nil when Post is ε
	evKey  string

	// comps holds, per SID, 0 until visited and then state + compBase,
	// negated when the component is cyclic. ends holds, per SID, the
	// handle + 1 of PostEnds for a non-ε Post, 0 until first used; vpost
	// the same per vertex for Post(v) of R* Pre-ends that are not
	// singleton components, allocated on first use.
	comps []int32
	ends  []int32
	vpost []int32
	stack []rowFrame

	rows   []rowSpan
	idx    []int32
	words  []uint64
	budget int // row words still storable

	n     int                   // the vertex space the accumulators cover
	build *pairs.RunAccumulator // rows and PostEnds under construction
	run   *pairs.RunAccumulator // the sealed driver's multi-row runs
	reach []graph.VID           // one Post traversal's output

	// The current source's run: the rows it takes, the components it
	// answers through the closure, and R* seeds under an ε Post.
	runRows  []int32
	runComps []int32
	runBits  []graph.VID

	postNS time.Duration // Post traversals: Remainder in the timing split
	work   int64         // words ORed plus Post ends and members added
}

// acquireKernel checks a row kernel out of the version's pool, set up
// for one join over structure.
func (e *engineVersion) acquireKernel(structure *rtc.RTC, typ rpq.ClosureType, post rpq.Expr) *rowKernel {
	k := e.kernelPool.Get().(*rowKernel)
	n := e.g.NumVertices()
	k.v, k.rtc, k.cond, k.star = e, structure, structure.Condensation(), typ == rpq.ClosureStar
	k.comps = zeroed(k.comps, structure.NumReducedVertices())
	if k.build == nil || k.n != n {
		k.n = n
		k.build, k.run = pairs.NewRunAccumulator(n), pairs.NewRunAccumulator(n)
		k.vpost = nil
	}
	k.rows = append(k.rows[:0], rowSpan{})
	k.budget = rowBudgetWords
	if _, eps := post.(rpq.Epsilon); !eps {
		t0 := time.Now()
		k.postEv, k.evKey = e.acquireEvaluator(post)
		k.ends = zeroed(k.ends, len(k.comps))
		k.postNS += time.Since(t0)
	}
	return k
}

// zeroed returns s resized to n; the pooled slices are kept all-zero
// between joins, so only growth allocates.
func zeroed(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// releaseKernel clears what the join touched and returns the kernel to
// the pool.
func (e *engineVersion) releaseKernel(k *rowKernel) {
	clear(k.comps)
	clear(k.ends)
	clear(k.vpost)
	if k.postEv != nil {
		e.releaseEvaluator(k.evKey, k.postEv)
	}
	k.build.Reset()
	k.run.Reset()
	k.ends, k.stack = k.ends[:0], k.stack[:0]
	k.rows, k.idx, k.words = k.rows[:0], k.idx[:0], k.words[:0]
	k.runRows, k.runComps, k.runBits, k.reach = k.runRows[:0], k.runComps[:0], k.runBits[:0], k.reach[:0]
	k.v, k.rtc, k.cond, k.postEv, k.evKey = nil, nil, nil, nil, ""
	k.postNS, k.work = 0, 0
	e.kernelPool.Put(k)
}

// state returns visited component s's row handle (or rowFallback,
// rowLight, rowPending) and whether it is cyclic.
func (k *rowKernel) state(s int32) (row int32, cyclic bool) {
	c := k.comps[s]
	if c < 0 {
		return -c - compBase, true
	}
	return c - compBase, false
}

func (k *rowKernel) setState(s, row int32, cyclic bool) {
	if cyclic {
		k.comps[s] = -(row + compBase)
	} else {
		k.comps[s] = row + compBase
	}
}

// span returns the store range of row h.
func (k *rowKernel) span(h int32) (lo, hi int32) {
	lo, hi = k.rows[h].lo, int32(len(k.idx))
	if int(h)+1 < len(k.rows) {
		hi = k.rows[h+1].lo
	}
	return lo, hi
}

// ensure fills Row(c) and the rows of everything c reaches, by an
// iterative DFS over Ḡ_R finishing components in post-order, so a row
// is built only after the rows of its successors. It relies on Ḡ_R being
// acyclic apart from self-loops, not on SID order: an RTC assembled
// through rtc.FromParts need not be numbered topologically.
func (k *rowKernel) ensure(c int32) error {
	if k.comps[c] != 0 || k.light(c) {
		return nil
	}
	k.push(c)
	for len(k.stack) > 0 {
		f := &k.stack[len(k.stack)-1]
		succ := k.cond.Successors(f.s)
		if int(f.pos) < len(succ) {
			t := succ[f.pos]
			f.pos++
			if k.comps[t] == 0 {
				if !k.light(t) {
					k.push(t)
				}
			} else if row, _ := k.state(t); row == rowPending && t != f.s {
				return fmt.Errorf("core: RTC condensation has a cycle through components %d and %d", f.s, t)
			}
			continue
		}
		s := f.s
		k.stack = k.stack[:len(k.stack)-1]
		if err := k.finish(s); err != nil {
			return err
		}
	}
	return nil
}

func (k *rowKernel) push(s int32) {
	k.setState(s, rowPending, false)
	k.stack = append(k.stack, rowFrame{s: s})
}

// light settles unvisited component t without a DFS when its row is
// cheap to recompute from the closure — empty when t reaches nothing —
// and reports whether it did. For a non-ε Post it builds the PostEnds
// it weighs, which the row needs in any case.
func (k *rowKernel) light(t int32) bool {
	from := k.rtc.ReachableFrom(t)
	if len(from) > lightReach {
		return false
	}
	cost := 0
	for _, u := range from {
		if k.postEv == nil {
			cost += len(k.rtc.Members(u))
		} else {
			lo, hi := k.span(k.endsOf(u))
			cost += int(hi - lo)
		}
		if cost > lightCost {
			return false
		}
	}
	if len(from) == 0 {
		k.setState(t, rowEmpty, false)
	} else {
		k.setState(t, rowLight, k.cond.HasEdge(t, t))
	}
	return true
}

// finish builds Row(s) once every successor's row exists. It stores the
// row unless it equals the row of a cyclic successor (that row is
// reused), a successor was answered through the closure for want of
// budget, or the budget is spent — in the last two cases s is answered
// through the closure too.
func (k *rowKernel) finish(s int32) error {
	work0 := k.work
	succ := k.cond.Successors(s)
	// PostEnds are built in the same accumulator as the row, so every
	// one this row needs is built first.
	if k.postEv != nil {
		for _, t := range succ {
			if _, cyclic := k.state(t); t == s || !cyclic {
				k.endsOf(t)
			}
		}
	}
	cyclic, fallback, alias := false, false, rowEmpty
	for _, t := range succ {
		if t == s {
			cyclic = true
			k.orEnds(k.build, s)
			continue
		}
		row, tCyclic := k.state(t)
		if row == rowFallback {
			fallback = true
			break
		}
		if row == rowLight {
			if err := k.orReachable(k.build, t); err != nil {
				return err
			}
		} else {
			k.orRow(k.build, row)
			if tCyclic && k.rows[row].count > k.rows[alias].count {
				alias = row
			}
		}
		if !tCyclic {
			k.orEnds(k.build, t)
		}
	}

	row := rowFallback
	switch {
	case fallback:
		k.build.Reset()
	case alias != rowEmpty && k.build.Count() == int(k.rows[alias].count):
		k.build.Reset()
		row = alias
	default:
		row = k.storeBuild()
		if lo, hi := k.span(row); int(hi-lo) <= k.budget {
			k.budget -= int(hi - lo)
		} else {
			k.idx, k.words, k.rows = k.idx[:lo], k.words[:lo], k.rows[:row]
			row = rowFallback
		}
	}
	k.setState(s, row, cyclic)
	return k.v.checkpoint(int(k.work-work0) + 1)
}

// storeBuild moves the build accumulator's contents into the word store
// and returns the new row's handle (rowEmpty for an empty set).
func (k *rowKernel) storeBuild() int32 {
	count := k.build.Count()
	if count == 0 {
		return rowEmpty
	}
	// A row has at most count words.
	k.rows = reserve(k.rows, 1)
	k.idx, k.words = reserve(k.idx, count), reserve(k.words, count)
	k.rows = append(k.rows, rowSpan{lo: int32(len(k.idx)), count: int32(count)})
	k.idx, k.words = k.build.DrainWords(k.idx, k.words)
	return int32(len(k.rows) - 1)
}

// reserve makes room for n more elements, at least doubling the
// capacity when it grows: the store is appended to row by row, and
// append's 1.25x growth of large slices would allocate about five times
// its final size.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// endsOf returns the handle of PostEnds(s) for a non-ε Post, running
// the Post traversals from s's members on first use.
func (k *rowKernel) endsOf(s int32) int32 {
	if h := k.ends[s]; h != 0 {
		return h - 1
	}
	t0 := time.Now()
	for _, v := range k.rtc.Members(s) {
		k.traversePost(v)
	}
	h := k.storeBuild()
	k.postNS += time.Since(t0)
	k.ends[s] = h + 1
	return h
}

// vertexPost returns the handle of Post(v), memoised per vertex.
func (k *rowKernel) vertexPost(v graph.VID) int32 {
	if k.vpost == nil {
		k.vpost = make([]int32, k.n)
	}
	if h := k.vpost[v]; h != 0 {
		return h - 1
	}
	t0 := time.Now()
	k.traversePost(v)
	h := k.storeBuild()
	k.postNS += time.Since(t0)
	k.vpost[v] = h + 1
	return h
}

// traversePost adds Post(v) to the build accumulator.
func (k *rowKernel) traversePost(v graph.VID) {
	k.reach = k.postEv.AppendReachFrom(v, k.reach[:0])
	k.work += int64(len(k.reach))
	k.build.AddAll(k.reach)
}

// orRow ORs stored row h into acc.
func (k *rowKernel) orRow(acc *pairs.RunAccumulator, h int32) {
	lo, hi := k.span(h)
	acc.OrWords(k.idx[lo:hi], k.words[lo:hi])
	k.work += int64(hi - lo)
}

// orEnds ORs PostEnds(s) into acc; for a non-ε Post, endsOf(s) must
// already have run.
func (k *rowKernel) orEnds(acc *pairs.RunAccumulator, s int32) {
	if k.postEv == nil {
		members := k.rtc.Members(s)
		acc.AddAll(members)
		k.work += int64(len(members))
		return
	}
	k.orRow(acc, k.ends[s]-1)
}

// orReachable answers a light component, or one whose row did not fit
// the budget, straight from TC(Ḡ_R):
// Row(c) = ⋃_{u ∈ ReachableFrom(c)} PostEnds(u). acc must not be the
// build accumulator unless every PostEnds it needs exists, as it does
// for a light component.
func (k *rowKernel) orReachable(acc *pairs.RunAccumulator, c int32) error {
	for _, u := range k.rtc.ReachableFrom(c) {
		work0 := k.work
		if k.postEv != nil {
			k.endsOf(u)
		}
		k.orEnds(acc, u)
		if err := k.v.checkpoint(int(k.work-work0) + 1); err != nil {
			return err
		}
	}
	return nil
}

// gather resolves one source's run from its Pre-ends vjs, ensuring every
// row it needs. When the run is exactly one stored row it returns that
// row's handle; otherwise it returns -1 and orRun assembles the run.
func (k *rowKernel) gather(vjs []graph.VID) (int32, error) {
	k.runRows, k.runComps, k.runBits = k.runRows[:0], k.runComps[:0], k.runBits[:0]
	for _, vj := range vjs {
		c := k.rtc.CompOf(vj)
		cyclic := false
		if c >= 0 {
			if err := k.ensure(c); err != nil {
				return 0, err
			}
			var row int32
			row, cyclic = k.state(c)
			if row >= rowEmpty {
				k.takeRow(row)
			} else if !slices.Contains(k.runComps, c) { // light or fallback
				k.runComps = append(k.runComps, c)
			}
		}
		// R* adds Post(v_j). A cyclic component's row already holds it:
		// Post(v_j) ⊆ PostEnds(c) ⊆ Row(c).
		if !k.star || cyclic {
			continue
		}
		switch {
		case k.postEv == nil:
			k.runBits = append(k.runBits, vj)
		case c >= 0 && len(k.rtc.Members(c)) == 1:
			k.takeRow(k.endsOf(c)) // PostEnds({v_j}) = Post(v_j)
		default:
			k.takeRow(k.vertexPost(vj))
		}
	}
	if len(k.runRows) > 1 {
		slices.Sort(k.runRows)
		k.runRows = slices.Compact(k.runRows)
	}
	if len(k.runRows) == 1 && len(k.runComps) == 0 && len(k.runBits) == 0 {
		return k.runRows[0], nil
	}
	return -1, nil
}

// takeRow adds row h to the current run unless it is empty or the row
// just taken; gather sorts out the remaining repeats.
func (k *rowKernel) takeRow(h int32) {
	if h != rowEmpty && (len(k.runRows) == 0 || k.runRows[len(k.runRows)-1] != h) {
		k.runRows = append(k.runRows, h)
	}
}

// orRun ORs the run gather resolved into acc.
func (k *rowKernel) orRun(acc *pairs.RunAccumulator) error {
	for _, h := range k.runRows {
		k.orRow(acc, h)
	}
	for _, c := range k.runComps {
		if err := k.orReachable(acc, c); err != nil {
			return err
		}
	}
	acc.AddAll(k.runBits)
	k.work += int64(len(k.runBits))
	return nil
}

// seal is the sealed driver: one pass sizes every source's run (and, on
// the way, fills the rows it needs), the second drains the runs into
// exact-size CSR columns, ascending by source and within each run.
func (k *rowKernel) seal(preG *pairs.Relation) (*pairs.Relation, error) {
	n := preG.NumVertices()
	offsets := make([]int32, n+1)
	var err error
	preG.EachSrc(func(vi graph.VID, vjs []graph.VID) bool {
		if err = k.v.checkpoint(len(vjs)); err != nil {
			return false
		}
		var h int32
		if h, err = k.gather(vjs); err != nil {
			return false
		}
		if h >= 0 {
			offsets[vi+1] = k.rows[h].count
			return true
		}
		if err = k.orRun(k.run); err != nil {
			return false
		}
		offsets[vi+1] = int32(k.run.Count())
		k.run.Reset()
		return true
	})
	if err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}

	dsts := make([]graph.VID, 0, offsets[n])
	preG.EachSrc(func(vi graph.VID, vjs []graph.VID) bool {
		size := int(offsets[vi+1] - offsets[vi])
		if size == 0 {
			return true
		}
		if err = k.v.checkpoint(size); err != nil {
			return false
		}
		// Every row exists after the first pass: this gather only looks
		// them up.
		var h int32
		if h, err = k.gather(vjs); err != nil {
			return false
		}
		if h >= 0 {
			lo, hi := k.span(h)
			for i := lo; i < hi; i++ {
				dsts = pairs.AppendWordBits(dsts, k.idx[i], k.words[i])
			}
			return true
		}
		if err = k.orRun(k.run); err != nil {
			return false
		}
		dsts = k.run.DrainAppend(dsts)
		return true
	})
	if err != nil {
		return nil, err
	}
	return pairs.RelationFromSortedRuns(n, offsets, dsts), nil
}
