// Package tc computes transitive closures of unlabeled digraphs by
// breadth-first search, O(|V|·|E|) — the closure computation the paper
// assigns to both methods in Table III (FullSharing runs it on G_R,
// RTCSharing on the much smaller Ḡ_R) — with the one search kernel the
// project has. The kernel (Search) walks a product of a graph with an
// automaton (NewProduct), of which a digraph is the one-state case;
// package eval runs RPQs through it. It is word-parallel: it runs the
// searches of 64 sources at once, one per bit of a uint64 mask per
// copy. A row is stored as its non-zero 64-bit words, word index plus
// word, one run of a pairs.WordRuns per vertex; a batch's rows come out
// of its masks by one 64×64 bit transpose per touched 64-vertex block
// (pairs.Transpose64), ascending without a sort. It is also
// direction-optimizing: a level whose frontier's out-edges exceed
// 1/alpha of the product's edges runs bottom-up, each unfinished copy
// pulling through its reverse arcs until the batch covers it, which
// reads fewer than 2·alpha times the frontier's edges; other levels run
// top-down. It is still one search per source, with no condensation and
// no row shared between vertices, so TC(G_R) costs what Table III's
// FullSharing column says: every reachable pair is found and stored once
// per source. The closure follows the paper's semantics: (u, w) ∈ TC iff
// a path of length ≥ 1 leads from u to w, so (u, u) requires a cycle
// through u.
package tc

import (
	"math/bits"
	"slices"
	"sync"

	"rtcshare/internal/automata"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
)

// Closure is the transitive closure of a digraph: for each vertex, the
// set of vertices reachable by a path of length ≥ 1, held as a row of
// non-zero 64-bit words.
type Closure struct {
	numVertices int
	rows        pairs.WordRuns // run u is row u, empty for a vertex with no row
	numPairs    int

	// invOnce/inv hold the lazily computed transposed closure, built on
	// the first Inverted call. Closures are shared immutably across
	// goroutines, so the transpose is guarded by a Once.
	invOnce sync.Once
	inv     *Closure
}

// NumVertices returns the size of the underlying VID space.
func (c *Closure) NumVertices() int { return c.numVertices }

// NumPairs returns the number of (u, w) pairs in the closure — the
// paper's "shared data size" metric for FullSharing (Fig. 12).
func (c *Closure) NumPairs() int { return c.numPairs }

// Row returns the vertices reachable from u as words: words[k] holds
// vertices 64·idx[k] … 64·idx[k]+63, idx strictly ascending, no word
// zero. The caller must not modify the returned slices.
func (c *Closure) Row(u graph.VID) (idx []int32, words []uint64) {
	return c.rows.Run(int(u))
}

// From returns the vertices reachable from u, sorted ascending, in a
// new slice: the row expanded, for tests and oracles.
func (c *Closure) From(u graph.VID) []graph.VID { return c.rows.AppendRun(nil, int(u)) }

// Inverted returns the transposed closure: (u, w) ∈ c iff (w, u) ∈
// Inverted. It is computed once, concurrently-safely, and shared by all
// callers. The transpose of the transpose is the original closure. The
// benchmark replay pins this method (tc.invert_ns).
func (c *Closure) Inverted() *Closure {
	c.invOnce.Do(func() {
		inv := &Closure{numVertices: c.numVertices, rows: c.rows.Transpose(c.numVertices), numPairs: c.numPairs, inv: c}
		inv.invOnce.Do(func() {}) // inv's own inverse is c; never recompute
		c.inv = inv
	})
	return c.inv
}

// Reachable reports whether a path of length ≥ 1 leads from u to w.
func (c *Closure) Reachable(u, w graph.VID) bool {
	idx, words := c.Row(u)
	k, ok := slices.BinarySearch(idx, int32(w>>6))
	return ok && words[k]>>(w&63)&1 != 0
}

// Each calls fn for every closure pair in (src, dst) order, stopping
// early if fn returns false.
func (c *Closure) Each(fn func(u, w graph.VID) bool) {
	var row []graph.VID
	for u := range graph.VID(c.numVertices) {
		row = c.rows.AppendRun(row[:0], int(u))
		for _, w := range row {
			if !fn(u, w) {
				return
			}
		}
	}
}

// ToPairs materialises the closure as a pair set.
func (c *Closure) ToPairs() *pairs.Set {
	out := pairs.NewSetCap(c.numPairs)
	c.Each(func(u, w graph.VID) bool {
		out.Add(u, w)
		return true
	})
	return out
}

// Equal reports whether two closures contain the same pairs. A row has
// one form, ascending non-zero words, so equal closures hold equal
// stores.
func (c *Closure) Equal(other *Closure) bool {
	return c.numVertices == other.numVertices && c.rows.Equal(&other.rows)
}

// BFS computes the closure by a breadth-first search from every active
// vertex, the O(|V|·|E|) computation the paper quotes in Table III. The
// searches run 64 at a time, one per bit of a word (see bfs), but each
// source still has its own search and its own row.
func BFS(d *graph.DiGraph) *Closure {
	c, _ := bfs(d, nil, nil)
	return c
}

// BFSAmong is BFS restricted to the vertices keep marks: a row for each
// kept vertex, holding the kept vertices it reaches by a path of length
// ≥ 1 through any vertices of d. The reduced closure of an RTC built
// from a product graph is this closure over its member-bearing
// components.
func BFSAmong(d *graph.DiGraph, keep []bool) *Closure {
	c, _ := bfs(d, keep, nil)
	return c
}

// batchBits is the number of sources one batch searches: one per bit of
// a mask word.
const batchBits = 64

// alpha is the direction switch of the search: a level runs bottom-up
// once the out-edges of its frontier exceed 1/alpha of the product's
// edges.
const alpha = 4

// bfs is BFS with an optional vertex filter (nil keeps every vertex)
// and an optional cancellation checkpoint, polled before each batch and
// by the search after each level: the sources with an out-edge go in
// batches of 64 through the search of d's one-state product, and each
// batch's rows, masked by keep, go to the closure's store
// (pairs.WordRuns.AppendBlocks) at their sources, the vertices between
// them given empty rows.
func bfs(d *graph.DiGraph, keep []bool, check Checkpoint) (*Closure, error) {
	n := d.NumVertices()
	c := &Closure{numVertices: n}
	cols := digraphColumns{d}
	arc := Arc{}
	arc.Fwd.Offsets, arc.Fwd.Targets = cols.LabelCSR(0, false)
	s := NewSearch(&Product{N: n, States: []State{{Accept: true, Arcs: []Arc{arc}}}, cols: cols})
	var keepWords []uint64
	if keep != nil {
		keepWords = make([]uint64, (n+63)/64)
		for v, k := range keep {
			if k {
				keepWords[v>>6] |= 1 << (v & 63)
			}
		}
	}

	var sources []graph.VID
	for _, u := range d.ActiveVertices() {
		if d.OutDegree(u) > 0 && (keep == nil || keep[u]) {
			sources = append(sources, u)
		}
	}

	for len(sources) > 0 {
		batch := sources[:min(batchBits, len(sources))]
		sources = sources[len(batch):]
		if err := checkRows(check, len(batch)); err != nil {
			return nil, err
		}
		if err := s.run(batch, check); err != nil {
			return nil, err
		}
		seen := s.ends()
		if keep != nil {
			for _, b := range s.touched {
				for i := range batch {
					seen[int(b)<<6|i] &= keepWords[b]
				}
			}
		}
		for i := 0; i < len(batch); { // a run of consecutive sources at once
			j := i + 1
			for j < len(batch) && batch[j] == batch[j-1]+1 {
				j++
			}
			c.rows.AppendBlocks(nil, nil, int(batch[i])-c.rows.Len())
			c.rows.AppendBlocks(seen[i:], s.touched, j-i)
			i = j
		}
		s.reset(seen)
	}
	c.rows.AppendBlocks(nil, nil, n-c.rows.Len())
	for u := range n {
		c.numPairs += c.rows.Count(u)
	}
	return c, nil
}

// Product is the space the search walks: one copy (q, v) of every
// vertex v of [0, N) per state q, state 0 the start. A DiGraph is the
// one-state product whose one arc is its own CSR; an RPQ's automaton
// over a labeled graph takes each arc's columns from the graph's label
// CSRs, the reverse ones for ^l.
type Product struct {
	N      int
	States []State
	Empty  bool // the empty path counts: every seed reaches its own start copy

	cols columns // what the arcs read, for their reverses
}

// columns is what a product's arcs read: a label's CSR, forward or
// transposed. *graph.Graph is one; a DiGraph is the one-label case.
type columns interface {
	LabelCSR(label graph.LID, inverse bool) (offsets []int32, targets []graph.VID)
}

// digraphColumns reads a DiGraph as a graph of one label.
type digraphColumns struct{ d *graph.DiGraph }

func (c digraphColumns) LabelCSR(_ graph.LID, inverse bool) ([]int32, []graph.VID) {
	if inverse {
		return c.d.ReverseCSR()
	}
	return c.d.CSR()
}

// State is one state of a Product: whether its copies are ends, and its
// arcs.
type State struct {
	Accept bool
	Arcs   []Arc
}

// Arc leads from copy (q, v) to (To, w) for every w in row v of Fwd,
// the product's columns of label, transposed under inverse. Only a
// bottom-up level pulls through Fwd's transpose, and a search reads it
// from the product's columns on its first such level, so a product
// searched top-down only never builds one.
type Arc struct {
	To      int
	Fwd     CSR
	label   graph.LID
	inverse bool
}

// CSR is a relation as columns: row v is Targets[Offsets[v]:Offsets[v+1]].
type CSR struct {
	Offsets []int32
	Targets []graph.VID
}

// NewProduct returns the product of g with nfa: state q's arcs are the
// NFA's, each reading its label's forward CSR in g, the reverse one for
// an inverse label; an arc whose label g lacks is dropped, since it
// leads nowhere. All states' arcs share one array.
func NewProduct(g *graph.Graph, nfa *automata.NFA) Product {
	p := Product{N: g.NumVertices(), States: make([]State, nfa.NumStates()), Empty: nfa.MatchesEmpty(), cols: g}
	arcs := 0
	for q := range p.States {
		arcs += len(nfa.Arcs(q))
	}
	all := make([]Arc, 0, arcs)
	for q := range p.States {
		lo := len(all)
		for _, a := range nfa.Arcs(q) {
			arc := Arc{To: a.To, label: a.Label, inverse: a.Inverse}
			arc.Fwd.Offsets, arc.Fwd.Targets = g.LabelCSR(a.Label, a.Inverse)
			if arc.Fwd.Offsets != nil {
				all = append(all, arc)
			}
		}
		p.States[q] = State{Accept: nfa.IsAccept(q), Arcs: all[lo:len(all):len(all)]}
	}
	return p
}

// Start reports whether a match can start at v: whether v's start copy
// has an out-arc, or always under Empty. After ε-elimination the start
// state's arcs are the expression's first steps (its FIRST set), so a
// search or a walk of the product need root only at these vertices.
func (p *Product) Start(v graph.VID) bool {
	return p.Empty || slices.ContainsFunc(p.States[0].Arcs, func(a Arc) bool { return a.Fwd.Offsets[v+1] > a.Fwd.Offsets[v] })
}

func (c CSR) row(v graph.VID) []graph.VID { return c.Targets[c.Offsets[v]:c.Offsets[v+1]] }

// Search is a multi-source search over one product (Then et al., VLDB
// 2014) and its state between searches: up to 64 seeds at once, bit i of
// a mask standing for seed i. Per state it keeps one seen mask per copy
// (padded to whole 64-vertex blocks) and the summary of the blocks a
// search touched, the current and the next level as vertex lists,
// queued, one bit per copy on the next level, and heads, the vertices
// with an in-arc, listed at the first bottom-up level. A search resets
// only the blocks and lists it touched, so it costs what it reached plus
// |V|/4096 summary words a state, never |V|. Not safe for concurrent
// use.
type Search struct {
	p       *Product
	states  []copies
	edges   int     // the product's arc edges, the |E| of the direction switch
	touched []int32 // the blocks of ends, ascending
}

type copies struct {
	seen, blocks, queued []uint64
	level, next, heads   []graph.VID
	in                   []inArc // the arcs into the state
}

type inArc struct {
	from int
	arc  *Arc
	rev  CSR // arc's Fwd transposed, read on the first bottom-up level
}

// NewSearch returns an idle search over p.
func NewSearch(p *Product) *Search {
	nb := (p.N + 63) / 64
	s := &Search{p: p, states: make([]copies, len(p.States))}
	words := make([]uint64, len(p.States)*(nb*64+(nb+63)/64+nb))
	for q, st := range p.States {
		c := &s.states[q]
		c.seen, words = words[:nb*64:nb*64], words[nb*64:]
		c.blocks, words = words[:(nb+63)/64:(nb+63)/64], words[(nb+63)/64:]
		c.queued, words = words[:nb:nb], words[nb:]
		for i := range st.Arcs {
			a := &st.Arcs[i]
			s.edges += len(a.Fwd.Targets)
			s.states[a.To].in = append(s.states[a.To].in, inArc{from: q, arc: a})
		}
	}
	return s
}

// Reach searches from up to 64 seeds at once and appends one run per
// seed to out, in seed order (pairs.WordRuns.AppendBlocks): the
// vertices the seed reaches in an accepting state. A search that check
// stops returns its error with nothing appended; either way the search
// is idle when Reach returns.
func (s *Search) Reach(seeds []graph.VID, check Checkpoint, out *pairs.WordRuns) error {
	if err := s.run(seeds, check); err != nil {
		return err
	}
	seen := s.ends()
	out.AppendBlocks(seen, s.touched, len(seeds))
	s.reset(seen)
	return nil
}

// Idle reports whether the search holds nothing, as between searches.
func (s *Search) Idle() bool {
	for _, c := range s.states {
		if len(c.level)+len(c.next) > 0 || slices.ContainsFunc(slices.Concat(c.seen, c.blocks, c.queued), func(w uint64) bool { return w != 0 }) {
			return false
		}
	}
	return len(s.touched) == 0
}

// run searches from seeds, leaving in each copy's seen mask the seeds
// that reach it by a path of length ≥ 1, or 0 under Empty. A seed is not
// pre-marked seen, so where the start state has an in-arc a seed reaches
// its own copy only through a cycle.
//
// Level 0 pushes the seeds' bits top-down; every later level picks a
// direction (Beamer, Asanović & Patterson, SC 2012) by fe, the
// frontier's out-degrees, summed as the level is built. When fe·alpha ≤
// |E| the level runs top-down: each frontier copy pushes its seen mask
// along its out-arcs. Otherwise most of those edges would land on copies
// the batch already covers, and the level runs bottom-up: each copy the
// batch has not finished pulls its predecessors' seen masks through the
// reverse arcs and stops once finished, reading at most 2·|E| <
// 2·alpha·fe entries. A whole mask carries, beside the level's new bits,
// only bits its successors hold already or would get a level later, so
// the direction changes how a level finds its bits, not which: each bit
// is still one seed's own search.
//
// check is polled after each level, weighted by the bits the level found
// plus the edges it walked (top-down) or read (bottom-up), so a batch on
// one large cycle stays cancellable; a stopped search is reset.
func (s *Search) run(seeds []graph.VID, check Checkpoint) error {
	full, fe := ^uint64(0)>>(batchBits-len(seeds)), 0
	start := &s.states[0]
	start.level = append(start.level, seeds...)
	for i, u := range seeds {
		if s.p.Empty {
			start.seen[u] |= 1 << i
			pairs.MarkBlock(start.blocks, u)
		}
		fe += s.outDegree(0, u)
	}
	for level := 0; ; level++ {
		var work int
		if level > 0 && fe*alpha > s.edges {
			work, fe = s.bottomUp(full)
		} else {
			work, fe = s.topDown(level == 0)
		}
		if err := checkRows(check, work); err != nil {
			s.reset(nil)
			return err
		}
		if !s.advance() {
			return nil
		}
	}
}

// outDegree is copy (q, v)'s out-degree over q's arcs.
func (s *Search) outDegree(q int, v graph.VID) (d int) {
	for _, a := range s.p.States[q].Arcs {
		d += int(a.Fwd.Offsets[v+1] - a.Fwd.Offsets[v])
	}
	return d
}

// topDown runs one level from the frontier along its out-arcs; at level
// 0 (seeding) the frontier is the seeds, whose bits are not seen. It
// returns the level's work, the edges it walked plus the bits it found,
// and fe of the next level.
func (s *Search) topDown(seeding bool) (work, fe int) {
	for q := range s.states {
		c, arcs := &s.states[q], s.p.States[q].Arcs
		for i, v := range c.level {
			f := c.seen[v]
			if seeding {
				f |= 1 << i
			}
			for ai := range arcs {
				a := &arcs[ai]
				t := &s.states[a.To]
				seen, queued, next := t.seen, t.queued, t.next
				ws := a.Fwd.row(v)
				work += len(ws)
				for _, w := range ws {
					sw := seen[w]
					nw := f &^ sw
					if nw == 0 {
						continue
					}
					if sw == 0 {
						pairs.MarkBlock(t.blocks, w)
					}
					seen[w] = sw | nw
					if qw := &queued[w>>6]; *qw>>(w&63)&1 == 0 {
						*qw |= 1 << (w & 63)
						next = append(next, w)
						fe += s.outDegree(a.To, w)
					}
					work += bits.OnesCount64(nw)
				}
				t.next = next
			}
		}
	}
	return work, fe
}

// bottomUp runs one level from the other end: every copy with an in-arc
// whose seen mask is not yet full (every seed of the batch) ORs its
// predecessors' seen masks, stopping as soon as it and what it gathered
// cover the batch. The new bits go to seen, the next level and the block
// summary as on a top-down level. It returns the level's work, the
// in-edges it read plus the bits it found, and fe of the next level.
func (s *Search) bottomUp(full uint64) (work, fe int) {
	for q := range s.states {
		c := &s.states[q]
		if c.heads == nil && len(c.in) > 0 {
			for i := range c.in {
				in := &c.in[i]
				in.rev.Offsets, in.rev.Targets = s.p.cols.LabelCSR(in.arc.label, !in.arc.inverse)
			}
			c.heads = make([]graph.VID, 0)
			for v := range graph.VID(s.p.N) {
				if slices.ContainsFunc(c.in, func(a inArc) bool { return len(a.rev.row(v)) > 0 }) {
					c.heads = append(c.heads, v)
				}
			}
		}
		for _, w := range c.heads {
			sw := c.seen[w]
			if sw == full {
				continue
			}
			var got uint64
		pull:
			for _, a := range c.in {
				from, vs := s.states[a.from].seen, a.rev.row(w)
				for i, v := range vs {
					if got |= from[v]; sw|got == full {
						work += i + 1
						break pull
					}
				}
				work += len(vs)
			}
			nw := got &^ sw
			if nw == 0 {
				continue
			}
			if sw == 0 {
				pairs.MarkBlock(c.blocks, w)
			}
			c.seen[w] = sw | nw
			c.next = append(c.next, w)
			fe += s.outDegree(q, w)
			work += bits.OnesCount64(nw)
		}
	}
	return work, fe
}

// advance makes every state's next level its current one and reports
// whether any is non-empty.
func (s *Search) advance() bool {
	more := false
	for q := range s.states {
		c := &s.states[q]
		c.level, c.next = c.next, c.level[:0]
		for _, v := range c.level {
			c.queued[v>>6] &^= 1 << (v & 63)
		}
		more = more || len(c.level) > 0
	}
	return more
}

// ends ORs the accepting states' seen masks into the first one's that
// holds any, transposes each of its touched blocks in place into source
// words (pairs.Transpose64), lists them ascending in touched, and
// returns the masks they lie in: the start state's, with none touched,
// when no accepting copy was reached.
func (s *Search) ends() []uint64 {
	var into *copies
	for q := range s.states {
		c := &s.states[q]
		if !s.p.States[q].Accept || !slices.ContainsFunc(c.blocks, func(w uint64) bool { return w != 0 }) {
			continue
		}
		if into == nil {
			into = c
			continue
		}
		pairs.DrainBlocks(c.blocks, func(b int) {
			into.blocks[b>>6] |= 1 << (b & 63)
			for i := b << 6; i < b<<6+64; i++ {
				into.seen[i], c.seen[i] = into.seen[i]|c.seen[i], 0
			}
		})
	}
	if into == nil {
		return s.states[0].seen
	}
	pairs.DrainBlocks(into.blocks, func(b int) {
		pairs.Transpose64((*[64]uint64)(into.seen[b<<6:]))
		s.touched = append(s.touched, int32(b))
	})
	return into.seen
}

// reset clears every block and list a search touched: the blocks of
// ends, the masks ends returned, which it drained from their summary,
// and every state's summarised blocks and levels.
func (s *Search) reset(ends []uint64) {
	for _, b := range s.touched {
		clear(ends[b<<6 : b<<6+64])
	}
	for q := range s.states {
		c := &s.states[q]
		pairs.DrainBlocks(c.blocks, func(b int) { clear(c.seen[b<<6 : b<<6+64]) })
		for _, v := range c.next {
			c.queued[v>>6] &^= 1 << (v & 63)
		}
		c.level, c.next = c.level[:0], c.next[:0]
	}
	s.touched = s.touched[:0]
}
