// Package tc computes transitive closures of unlabeled digraphs by
// breadth-first search, O(|V|·|E|) — the closure computation the paper
// assigns to both methods in Table III (FullSharing runs it on G_R,
// RTCSharing on the much smaller Ḡ_R). The kernel is word-parallel: it
// runs the searches of 64 sources at once, one per bit of a uint64 mask
// per vertex. A row is stored as its non-zero 64-bit words, word index
// plus word, in one backing array with per-row offsets; a batch's rows
// come out of its vertex masks by one 64×64 bit transpose per touched
// 64-vertex block (pairs.Transpose64), ascending without a sort. It is
// also direction-optimizing: a level whose frontier's out-edges exceed
// 1/alpha of the graph's edges runs bottom-up, each unfinished vertex
// pulling from its in-edges until the batch covers it, which reads
// fewer than 2·alpha times the frontier's edges; other levels run
// top-down. It is still one search per source, with no condensation
// and no row shared between vertices, so TC(G_R) costs what Table III's
// FullSharing column says: every reachable pair is found and stored
// once per source. The closure follows the paper's semantics: (u, w) ∈
// TC iff a path of length ≥ 1 leads from u to w, so (u, u) requires a
// cycle through u.
package tc

import (
	"math/bits"
	"slices"
	"sync"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
)

// Closure is the transitive closure of a digraph: for each vertex, the
// set of vertices reachable by a path of length ≥ 1, held as a row of
// non-zero 64-bit words.
type Closure struct {
	numVertices int
	// Row u is idx/words[offsets[u]:offsets[u+1]]: words[k] holds the
	// reached vertices 64·idx[k] … 64·idx[k]+63, idx strictly ascending
	// and no word zero — the form pairs.RunAccumulator.OrWords reads.
	offsets  []int32
	idx      []int32
	words    []uint64
	numPairs int

	// invOnce/inv hold the lazily computed transposed closure, built on
	// the first Inverted call. Closures are shared immutably across
	// goroutines, so the transpose is guarded by a Once.
	invOnce sync.Once
	inv     *Closure
}

// newClosure returns an empty closure over n vertices whose rows the
// caller appends, each row's end recorded in offsets[u+1], and then
// closes with finish.
func newClosure(n int) *Closure {
	return &Closure{numVertices: n, offsets: make([]int32, n+1)}
}

// finish fills in the offsets of the rows never appended: each is empty
// and ends where the row before it does, so rows must be appended in
// ascending vertex order.
func (c *Closure) finish() {
	for v := 1; v < len(c.offsets); v++ {
		c.offsets[v] = max(c.offsets[v], c.offsets[v-1])
	}
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
	lo, hi := c.offsets[u], c.offsets[u+1]
	return c.idx[lo:hi], c.words[lo:hi]
}

// From returns the vertices reachable from u, sorted ascending, in a
// new slice: the row expanded, for tests and oracles.
func (c *Closure) From(u graph.VID) []graph.VID {
	var out []graph.VID
	idx, words := c.Row(u)
	for k, wi := range idx {
		out = pairs.AppendWordBits(out, wi, words[k])
	}
	return out
}

// Inverted returns the transposed closure: (u, w) ∈ c iff (w, u) ∈
// Inverted. It is computed once, concurrently-safely, and shared by all
// callers. The transpose of the transpose is the original closure. The
// benchmark replay pins this method (tc.invert_ns).
func (c *Closure) Inverted() *Closure {
	c.invOnce.Do(func() {
		n := c.numVertices
		inv := &Closure{numVertices: n, numPairs: c.numPairs, inv: c}
		inv.invOnce.Do(func() {}) // inv's own inverse is c; never recompute
		// The first pass counts each transposed row's words, the second
		// places them; blocks of sources are visited ascending, so every
		// transposed row is filled in ascending word order.
		inv.offsets = make([]int32, n+1)
		c.transposeBlocks(func(w graph.VID, _ int32, _ uint64) { inv.offsets[w+1]++ })
		for w := range n {
			inv.offsets[w+1] += inv.offsets[w]
		}
		inv.idx = make([]int32, inv.offsets[n])
		inv.words = make([]uint64, inv.offsets[n])
		pos := slices.Clone(inv.offsets[:n])
		c.transposeBlocks(func(w graph.VID, ui int32, word uint64) {
			inv.idx[pos[w]], inv.words[pos[w]] = ui, word
			pos[w]++
		})
		c.inv = inv
	})
	return c.inv
}

// transposeBlocks calls fn(w, ui, word) for every non-zero word of the
// transposed closure: word holds the sources 64·ui … 64·ui+63 that reach
// w. It takes the rows of 64 sources at a time, ascending, lays each
// word index's 64 source words out as a 64×64 bit matrix and transposes
// it into one word per reached vertex.
func (c *Closure) transposeBlocks(fn func(w graph.VID, ui int32, word uint64)) {
	nb := (c.numVertices + 63) / 64
	block := make([]uint64, nb*64)
	touched := make([]uint64, (nb+63)/64)
	for ui := range int32(nb) {
		for r := range int32(64) {
			u := graph.VID(ui<<6 | r)
			if int(u) >= c.numVertices {
				break
			}
			idx, words := c.Row(u)
			for k, wi := range idx {
				block[wi<<6|r] = words[k]
				pairs.MarkBlock(touched, graph.VID(wi)<<6)
			}
		}
		pairs.DrainBlocks(touched, func(wi int) {
			m := (*[64]uint64)(block[wi<<6:])
			pairs.Transpose64(m)
			for col, word := range m {
				if word != 0 {
					fn(graph.VID(wi<<6|col), ui, word)
				}
			}
			*m = [64]uint64{}
		})
	}
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
	for u := range c.numVertices {
		idx, words := c.Row(graph.VID(u))
		for k, wi := range idx {
			for w := words[k]; w != 0; w &= w - 1 {
				if !fn(graph.VID(u), graph.VID(wi)<<6|graph.VID(bits.TrailingZeros64(w))) {
					return
				}
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
// arrays.
func (c *Closure) Equal(other *Closure) bool {
	return c.numVertices == other.numVertices && c.numPairs == other.numPairs &&
		slices.Equal(c.offsets, other.offsets) && slices.Equal(c.idx, other.idx) &&
		slices.Equal(c.words, other.words)
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

// alpha is the direction switch of bfs: a level runs bottom-up once the
// out-edges of its frontier exceed 1/alpha of the graph's edges.
const alpha = 4

// bfs is BFS with an optional vertex filter (nil keeps every vertex)
// and an optional cancellation checkpoint. It is a multi-source BFS
// (Then et al., VLDB 2014): the sources with an out-edge go in batches
// of 64, and bit i of a vertex's masks stands for the batch's i-th
// source. seen[w] holds the sources that reached w by a path of length
// ≥ 1; frontier[w] and next[w] those that reached it at the current and
// the next level. A source is not pre-marked seen, so it enters its own
// row only through a cycle. A batch walks only the vertices it touched
// and resets only their 64-vertex blocks, found through a one-bit-per-
// block summary, so it costs what it reached plus |V|/4096 summary
// words, never |V|.
//
// Each level picks a direction (Beamer, Asanović & Patterson, SC 2012).
// fe, the frontier's out-degrees, is summed as the level is built. When
// fe·alpha ≤ |E| the level runs top-down: each frontier vertex pushes
// its mask along its out-edges. Otherwise the graph is dense enough that
// most of those edges would land on vertices the batch already covers,
// and the level runs bottom-up (see bottomUp): each vertex the batch has
// not finished pulls its predecessors' masks and stops as soon as it is
// finished. That level reads at most 2·|E| < 2·alpha·fe entries (a head
// and its in-edges), so a batch still costs what it reaches, to within
// a constant factor. The direction changes how a level finds its bits,
// not which bits it finds: it is still one search per source.
//
// The rows come out as words without a sort or a per-bit pass (see
// emitRows): each touched block of seen is transposed from vertex masks
// into source words. The keep filter applies at emission, as a mask.
//
// check is polled before each batch and after each level, weighted by
// the pairs the level found plus the edges it walked (top-down) or read
// (bottom-up), so a batch on one large cycle stays cancellable.
func bfs(d *graph.DiGraph, keep []bool, check Checkpoint) (*Closure, error) {
	n := d.NumVertices()
	nb := (n + 63) / 64
	c := newClosure(n)
	s := &search{
		d:        d,
		seen:     make([]uint64, nb*64),
		frontier: make([]uint64, n),
		next:     make([]uint64, n),
		blocks:   make([]uint64, (nb+63)/64),
	}
	s.offsets, s.targets = d.CSR()
	var keepWords []uint64
	if keep != nil {
		keepWords = make([]uint64, nb)
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
		fe := 0
		for i, u := range batch {
			s.frontier[u] = 1 << i
			s.level = append(s.level, u)
			fe += d.OutDegree(u)
		}
		full := ^uint64(0) >> (batchBits - len(batch))
		for len(s.level) > 0 {
			var work int
			if fe*alpha > len(s.targets) {
				if s.heads == nil {
					s.heads = withInEdges(d)
				}
				work, fe = s.bottomUp(full)
			} else {
				work, fe = s.topDown()
			}
			if err := checkRows(check, work); err != nil {
				return nil, err
			}
			s.level, s.nextLevel = s.nextLevel, s.level[:0]
			s.frontier, s.next = s.next, s.frontier
		}
		s.emitRows(c, batch, keepWords)
	}
	c.finish()
	return c, nil
}

// search is the state of bfs's batches: the graph and its forward CSR,
// the three masks per vertex (seen padded to whole 64-vertex blocks),
// the summary of the blocks the batch touched, the current and the next
// level, heads, the vertices with an in-edge in ascending order, listed
// at the first bottom-up level, and the touched blocks as emitRows lists
// them.
type search struct {
	d                    *graph.DiGraph
	offsets              []int32
	targets              []graph.VID
	seen, frontier, next []uint64
	blocks               []uint64
	level, nextLevel     []graph.VID
	heads                []graph.VID
	touched              []int32
}

// withInEdges lists d's vertices with an in-edge, ascending.
func withInEdges(d *graph.DiGraph) []graph.VID {
	heads := make([]graph.VID, 0, d.NumActive())
	for _, w := range d.ActiveVertices() {
		if d.InDegree(w) > 0 {
			heads = append(heads, w)
		}
	}
	return heads
}

// topDown runs one level from the frontier along its out-edges, clearing
// the frontier as it goes. It returns the level's work, the edges it
// walked plus the bits it found, and fe of the next level.
func (s *search) topDown() (work, fe int) {
	offsets, targets := s.offsets, s.targets
	seen, frontier, next := s.seen, s.frontier, s.next
	nextLevel := s.nextLevel
	for _, v := range s.level {
		f := frontier[v]
		frontier[v] = 0
		ws := targets[offsets[v]:offsets[v+1]]
		work += len(ws)
		for _, w := range ws {
			nw := f &^ seen[w]
			if nw == 0 {
				continue
			}
			if seen[w] == 0 {
				pairs.MarkBlock(s.blocks, w)
			}
			seen[w] |= nw
			if next[w] == 0 {
				nextLevel = append(nextLevel, w)
				fe += int(offsets[w+1] - offsets[w])
			}
			next[w] |= nw
			work += bits.OnesCount64(nw)
		}
	}
	s.nextLevel = nextLevel
	return work, fe
}

// bottomUp runs one level from the other end: every vertex w with an
// in-edge whose seen[w] is not yet full (every source of the batch)
// ORs the frontier masks of its predecessors, stopping as soon as
// seen[w] and what it gathered cover the batch. The new bits go to
// seen, next and the block summary as on a top-down level, and the frontier is
// cleared after the sweep. It returns the level's work, the in-edges it
// read plus the bits it found, and fe of the next level.
func (s *search) bottomUp(full uint64) (work, fe int) {
	d, offsets := s.d, s.offsets
	seen, frontier, next := s.seen, s.frontier, s.next
	nextLevel := s.nextLevel
	for _, w := range s.heads {
		sw := seen[w]
		if sw == full {
			continue
		}
		var got uint64
		vs := d.Predecessors(w)
		read := len(vs)
		for i, v := range vs {
			if got |= frontier[v]; sw|got == full {
				read = i + 1
				break
			}
		}
		work += read
		nw := got &^ sw
		if nw == 0 {
			continue
		}
		if sw == 0 {
			pairs.MarkBlock(s.blocks, w)
		}
		seen[w] = sw | nw
		nextLevel = append(nextLevel, w)
		fe += int(offsets[w+1] - offsets[w])
		next[w] = nw
		work += bits.OnesCount64(nw)
	}
	for _, v := range s.level {
		frontier[v] = 0
	}
	s.nextLevel = nextLevel
	return work, fe
}

// emitRows appends the rows of one batch to c and resets seen and the
// block summary. Each touched block of seen — 64 vertex masks, one bit
// per source — is transposed in place into 64 source words, one bit per
// vertex of the block (pairs.Transpose64), and masked by keep (nil keeps
// every vertex); source i's row is then word i of every touched block,
// blocks ascending, zero words dropped. It costs one transpose per
// touched block plus two reads per block and source, however many bits
// each word holds. The rows' backing arrays grow to at least twice
// their size when the batch's words do not fit: append's gentler growth
// of large slices allocated about five times the final rows.
func (s *search) emitRows(c *Closure, batch []graph.VID, keep []uint64) {
	seen, touched, words := s.seen, s.touched[:0], 0
	pairs.DrainBlocks(s.blocks, func(b int) {
		blk := (*[64]uint64)(seen[b<<6:])
		pairs.Transpose64(blk)
		for i := range batch {
			if keep != nil {
				blk[i] &= keep[b]
			}
			if blk[i] != 0 {
				words++
			}
		}
		touched = append(touched, int32(b))
	})
	if need := len(c.idx) + words; need > cap(c.idx) {
		grow := max(need, 2*cap(c.idx)) - len(c.idx)
		c.idx, c.words = slices.Grow(c.idx, grow), slices.Grow(c.words, grow)
	}
	for i, u := range batch {
		for _, b := range touched {
			if w := seen[int(b)<<6|i]; w != 0 {
				c.idx, c.words = append(c.idx, b), append(c.words, w)
				c.numPairs += bits.OnesCount64(w)
			}
		}
		c.offsets[u+1] = int32(len(c.idx))
	}
	for _, b := range touched {
		clear(seen[int(b)<<6 : int(b)<<6+64])
	}
	s.touched = touched
}
