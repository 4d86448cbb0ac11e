package core

import (
	"fmt"
	"slices"

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
// of the RTC's condensation — where a self-loop marks a cyclic SCC, a
// singleton without one does not reach itself, and an intermediate
// component of R's product graph has no members —
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
// A label Post is the graph's CSR (labelPost): Post(v) is row v, read
// where it is needed rather than traversed, so a singleton's PostEnds is
// its member's row, ORed in place like the members under ε.
//
// Rows are sets over the |V| destinations kept as their non-zero 64-bit
// words, so their memory follows their content; a row equal to the row
// of a successor (the common case upstream of a giant SCC) is that row,
// stored once. The sealed driver is drain, as for every producer: the
// kernel names a run that is one stored row by the row's handle, so a
// row that is the whole run of several sources is ORed and written once
// for all of them, and drain stores a run of several parts once per
// distinct content. ResultStream ORs the same runs into its own
// accumulator one source at a time.

// rowBudgetWords caps the words one join stores in component rows — 12
// bytes each, the word and its index, so at most 12 MiB per join however
// many components it reaches. A component whose row would not fit is
// answered by a DFS below it instead (orFallback): the same
// destinations, recomputed at each use.
const rowBudgetWords = 1 << 20

// A component is light when the RTC's reach table lists the at most
// rtc.LightReach member-bearing components it reaches, and their
// PostEnds together hold at most lightCost ends (members, for an ε
// Post). Its row is cheaper to recompute from the table at each use
// than to memoise, and the DFS does not descend below it — on
// chain-like graphs, where a row serves one predecessor, memoising every
// component would cost more than the join it saves.
const lightCost = 64

// Row handles are runs of rowKernel.rows; handle 0 is the empty row. A
// component's state is a row handle, rowFallback when its row did not
// fit the budget, rowLight when it is answered from the reach table by
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

// rowFrame is one DFS stack entry: a component and its next successor.
type rowFrame struct{ s, pos int32 }

// rowKernel is the pooled state of one forward join: the component memo,
// the word store behind the rows, and the scratch of one source's run.
// One join owns a kernel exclusively from acquireKernel to releaseKernel;
// c, its call, is set on acquire and cleared on release, so the pool
// never keeps a finished call's context or timer reachable.
type rowKernel struct {
	c      *evalCall
	preG   *pairs.Relation
	rtc    *rtc.RTC
	star   bool
	postEv *eval.Evaluator // nil when Post is ε
	evKey  string
	label  labelPost // set when Post is one label

	// comps holds, per SID, 0 until visited and then state + compBase,
	// negated when the component is cyclic. ends holds, per SID, the
	// handle + 1 of a stored PostEnds, 0 until first used; vpost the same
	// per vertex for Post(v) of R* Pre-ends that are not singleton
	// components, allocated on first use.
	comps []int32
	ends  []int32
	vpost []int32
	stack []rowFrame

	rows   pairs.WordRuns
	counts []int32 // by row handle: its destinations
	budget int     // row words still storable

	n     int                   // the vertex space build covers
	build *pairs.RunAccumulator // rows and PostEnds under construction
	reach []graph.VID           // one Post traversal's output

	// The current source's run: the rows it takes, the light and
	// fallback components it answers without a row, and R* seeds under
	// an ε Post; resolved is 1 + the source name gathered them for.
	runRows  []int32
	runComps []int32
	runBits  []graph.VID
	resolved int64

	// The fallback DFS's scratch, allocated by the first fallback.
	fbSeen  stampSet
	fbStack []int32

	work int64 // words ORed plus Post ends and members added
}

// acquireKernel checks a row kernel out of the version's pool, set up
// for one join of preG over structure.
func (c *evalCall) acquireKernel(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, post rpq.Expr) *rowKernel {
	k := c.kernelPool.Get().(*rowKernel)
	n := c.g.NumVertices()
	k.c, k.preG, k.rtc, k.star = c, preG, structure, typ == rpq.ClosureStar
	k.comps = zeroed(k.comps, structure.NumComponents())
	if k.build == nil || k.n != n {
		k.n = n
		k.build = pairs.NewRunAccumulator(n)
		k.vpost = nil
	}
	k.rows.AppendBlocks(nil, nil, 1)
	k.counts = append(k.counts, 0)
	k.budget = rowBudgetWords
	if _, eps := post.(rpq.Epsilon); !eps {
		k.postEv, k.evKey, k.label = c.acquirePost(post)
		k.ends = zeroed(k.ends, len(k.comps))
	}
	return k
}

// zeroed returns s resized to n; the pooled slices are kept all-zero
// between joins, so only growth allocates.
func zeroed[T int32 | uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// releaseKernel clears what the join touched and returns the kernel to
// the pool.
func (c *evalCall) releaseKernel(k *rowKernel) {
	clear(k.comps)
	clear(k.ends)
	clear(k.vpost)
	if k.postEv != nil {
		c.releaseEvaluator(k.evKey, k.postEv)
	}
	k.build.Reset()
	k.ends, k.stack = k.ends[:0], k.stack[:0]
	k.rows.Reset()
	k.counts = k.counts[:0]
	k.runRows, k.runComps, k.runBits, k.reach = k.runRows[:0], k.runComps[:0], k.runBits[:0], k.reach[:0]
	k.fbStack = k.fbStack[:0]
	k.c, k.preG, k.rtc, k.postEv, k.evKey, k.label = nil, nil, nil, nil, "", labelPost{}
	k.work, k.resolved = 0, 0
	c.kernelPool.Put(k)
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

// ensure fills Row(c) and the rows of everything c reaches, by an
// iterative DFS over Ḡ_R finishing components in post-order, so a row
// is built only after the rows of its successors. Its invariant is that
// Ḡ_R is acyclic apart from self-loops, as every condensation is; a
// cycle between distinct components fails the join with an error.
func (k *rowKernel) ensure(c int32) error {
	if k.comps[c] != 0 || k.light(c) {
		return nil
	}
	k.push(c)
	for len(k.stack) > 0 {
		f := &k.stack[len(k.stack)-1]
		succ := k.rtc.Successors(f.s)
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
// cheap to recompute from the reach table — empty when t reaches no
// member — and reports whether it did. It builds every stored PostEnds
// it weighs, which the row needs in any case.
func (k *rowKernel) light(t int32) bool {
	from, ok := k.rtc.BoundedReach(t)
	if !ok {
		return false
	}
	cost := 0
	for _, u := range from {
		if cost += k.endsCost(u); cost > lightCost {
			return false
		}
	}
	if len(from) == 0 {
		k.setState(t, rowEmpty, false)
	} else {
		k.setState(t, rowLight, k.rtc.HasEdge(t, t))
	}
	return true
}

// finish builds Row(s) once every successor's row exists. It stores the
// row unless it equals a successor's row (that row is reused), a
// successor fell back for want of budget, or the budget is spent — in
// the last two cases s falls back too. Row(s) contains every
// successor's row, so it equals the largest one exactly when it has as
// many destinations.
func (k *rowKernel) finish(s int32) error {
	work0 := k.work
	succ := k.rtc.Successors(s)
	// PostEnds are built in the same accumulator as the row, so every
	// stored one this row needs is built first.
	for _, t := range succ {
		if _, cyclic := k.state(t); (t == s || !cyclic) && !k.inPlace(t) {
			k.endsOf(t)
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
			if err := k.orLight(k.build, t); err != nil {
				return err
			}
		} else {
			k.orRow(k.build, row)
			if k.counts[row] > k.counts[alias] {
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
	case alias != rowEmpty && k.build.Count() == int(k.counts[alias]):
		k.build.Reset()
		row = alias
	default:
		row = k.storeBuild()
		if _, words := k.rows.Run(int(row)); len(words) <= k.budget {
			k.budget -= len(words)
		} else {
			k.rows.Truncate(int(row))
			k.counts = k.counts[:row]
			row = rowFallback
		}
	}
	k.setState(s, row, cyclic)
	return k.c.checkpoint(int(k.work-work0) + 1)
}

// storeBuild moves the build accumulator's contents into the word store
// and returns the new row's handle (rowEmpty for an empty set).
func (k *rowKernel) storeBuild() int32 {
	count := k.build.Count()
	if count == 0 {
		return rowEmpty
	}
	k.counts = append(k.counts, int32(count))
	return int32(k.rows.Drain(k.build))
}

// inPlace reports whether PostEnds(s) is read where it is needed rather
// than stored: s's members under an ε Post, and under a label Post the
// CSR row of s's one member, if it has one.
func (k *rowKernel) inPlace(s int32) bool {
	return k.postEv == nil || k.label.ok && len(k.rtc.Members(s)) <= 1
}

// endsCost is what PostEnds(u) adds to a light component's cost: how
// many ends it has. It builds a stored PostEnds on first use.
func (k *rowKernel) endsCost(u int32) int {
	switch {
	case k.postEv == nil:
		return len(k.rtc.Members(u))
	case k.inPlace(u):
		cost := 0
		for _, v := range k.rtc.Members(u) {
			cost += len(k.label.ends(v))
		}
		return cost
	}
	return int(k.counts[k.endsOf(u)])
}

// endsOf returns the handle of PostEnds(s) stored for a non-ε Post,
// building it on first use. The kernel reads a label's PostEnds of a
// singleton in place instead, and stores it only as the whole of
// Post(v_j) under R*.
func (k *rowKernel) endsOf(s int32) int32 {
	if h := k.ends[s]; h != 0 {
		return h - 1
	}
	h := k.storePost(k.rtc.Members(s))
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
	vs := [1]graph.VID{v}
	h := k.storePost(vs[:])
	k.vpost[v] = h + 1
	return h
}

// storePost stores ⋃ Post(v) over vs as a row and returns its handle: a
// label's CSR rows, join work, or the Post traversals, charged to other.
func (k *rowKernel) storePost(vs []graph.VID) int32 {
	if k.label.ok {
		for _, v := range vs {
			ends := k.label.ends(v)
			k.work += int64(len(ends))
			k.build.AddAll(ends)
		}
		return k.storeBuild()
	}
	prev := k.c.enter(bucketOther)
	for _, v := range vs {
		k.reach = k.postEv.AppendReachFrom(v, k.reach[:0])
		k.work += int64(len(k.reach))
		k.build.AddAll(k.reach)
	}
	h := k.storeBuild()
	k.c.enter(prev)
	return h
}

// orRow ORs stored row h into acc.
func (k *rowKernel) orRow(acc *pairs.RunAccumulator, h int32) {
	idx, words := k.rows.Run(int(h))
	acc.OrWords(idx, words)
	k.work += int64(len(idx))
}

// orEnds ORs PostEnds(s) into acc; unless it is read in place,
// endsOf(s) must already have run.
func (k *rowKernel) orEnds(acc *pairs.RunAccumulator, s int32) {
	switch {
	case k.postEv == nil:
		members := k.rtc.Members(s)
		acc.AddAll(members)
		k.work += int64(len(members))
	case k.inPlace(s):
		for _, v := range k.rtc.Members(s) {
			ends := k.label.ends(v)
			acc.AddAll(ends)
			k.work += int64(len(ends))
		}
	default:
		k.orRow(acc, k.ends[s]-1)
	}
}

// orLight answers a light component from the reach table:
// Row(c) = ⋃ PostEnds(u) over the member-bearing components u it
// reaches. light built every PostEnds it needs, so acc may be the build
// accumulator.
func (k *rowKernel) orLight(acc *pairs.RunAccumulator, c int32) error {
	from, _ := k.rtc.BoundedReach(c)
	for _, u := range from {
		work0 := k.work
		k.orEnds(acc, u)
		if err := k.c.checkpoint(int(k.work-work0) + 1); err != nil {
			return err
		}
	}
	return nil
}

// orFallback answers a component whose row did not fit the budget by a
// DFS below it, at each use. Every component below a fallback one has
// been settled: a stored row is ORed whole and ends its branch, a light
// component is answered from the reach table, and only fallback
// components are descended into. acc must not be the build accumulator:
// PostEnds are built in it on first use.
func (k *rowKernel) orFallback(acc *pairs.RunAccumulator, c int32) error {
	k.fbSeen.ensure(len(k.comps))
	k.fbSeen.reset()
	k.fbSeen.add(c)
	k.fbStack = append(k.fbStack[:0], c)
	for len(k.fbStack) > 0 {
		s := k.fbStack[len(k.fbStack)-1]
		k.fbStack = k.fbStack[:len(k.fbStack)-1]
		for _, t := range k.rtc.Successors(s) {
			if t != s && !k.fbSeen.add(t) {
				continue
			}
			work0 := k.work
			if !k.inPlace(t) {
				k.endsOf(t)
			}
			k.orEnds(acc, t)
			if t != s {
				switch row, _ := k.state(t); row {
				case rowLight:
					if err := k.orLight(acc, t); err != nil {
						return err
					}
				case rowFallback:
					k.fbStack = append(k.fbStack, t)
				default:
					k.orRow(acc, row)
				}
			}
			if err := k.c.checkpoint(int(k.work-work0) + 1); err != nil {
				return err
			}
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
		var err error
		if row, _ := k.state(c); row == rowLight {
			err = k.orLight(acc, c)
		} else {
			err = k.orFallback(acc, c)
		}
		if err != nil {
			return err
		}
	}
	acc.AddAll(k.runBits)
	k.work += int64(len(k.runBits))
	return nil
}
