// Package tc computes transitive closures of unlabeled digraphs by
// breadth-first search, O(|V|·|E|) — the closure computation the paper
// assigns to both methods in Table III (FullSharing runs it on G_R,
// RTCSharing on the much smaller Ḡ_R). The kernel is word-parallel: it
// runs the searches of 64 sources at once, one per bit of a uint64 mask
// per vertex, and emits each row sorted without sorting it. It is also
// direction-optimizing: a level whose frontier's out-edges exceed
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
	"sort"
	"sync"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
)

// Closure is the transitive closure of a digraph: for each vertex, the
// sorted set of vertices reachable by a path of length ≥ 1.
type Closure struct {
	numVertices int
	succ        [][]graph.VID
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

// From returns the vertices reachable from u, sorted ascending. The
// caller must not modify the returned slice.
func (c *Closure) From(u graph.VID) []graph.VID { return c.succ[u] }

// Inverted returns the transposed closure: (u, w) ∈ c iff (w, u) ∈
// Inverted. It is computed once, concurrently-safely, and shared by all
// callers. The transpose of the transpose is the original closure. The
// benchmark replay pins this method (tc.invert_ns).
func (c *Closure) Inverted() *Closure {
	c.invOnce.Do(func() {
		inv := &Closure{numVertices: c.numVertices, numPairs: c.numPairs, inv: c}
		inv.invOnce.Do(func() {}) // inv's own inverse is c; never recompute
		counts := make([]int, c.numVertices)
		c.Each(func(_, w graph.VID) bool {
			counts[w]++
			return true
		})
		inv.succ = make([][]graph.VID, c.numVertices)
		for w, n := range counts {
			if n > 0 {
				inv.succ[w] = make([]graph.VID, 0, n)
			}
		}
		// Each walks sources in ascending order, so every transposed list
		// is appended in sorted order.
		c.Each(func(u, w graph.VID) bool {
			inv.succ[w] = append(inv.succ[w], u)
			return true
		})
		c.inv = inv
	})
	return c.inv
}

// Reachable reports whether a path of length ≥ 1 leads from u to w.
func (c *Closure) Reachable(u, w graph.VID) bool {
	s := c.succ[u]
	i := sort.Search(len(s), func(i int) bool { return s[i] >= w })
	return i < len(s) && s[i] == w
}

// Each calls fn for every closure pair in (src, dst) order, stopping
// early if fn returns false.
func (c *Closure) Each(fn func(u, w graph.VID) bool) {
	for u := range c.succ {
		for _, w := range c.succ[u] {
			if !fn(graph.VID(u), w) {
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

// Equal reports whether two closures contain the same pairs.
func (c *Closure) Equal(other *Closure) bool {
	if c.numVertices != other.numVertices || c.numPairs != other.numPairs {
		return false
	}
	for u := range c.succ {
		a, b := c.succ[u], other.succ[u]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
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
// and resets only those, so it costs what it reached, never |V|.
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
// The rows are emitted without sorting a row: the batch's touched
// vertices are sorted once, the rows are counted per bit and carved
// from one exact-size array, and each w is then appended, in ascending
// order, to the row of every source whose bit seen[w] sets. The keep
// filter applies at emission.
//
// check is polled before each batch and after each level, weighted by
// the pairs the level found plus the edges it walked (top-down) or read
// (bottom-up), so a batch on one large cycle stays cancellable.
func bfs(d *graph.DiGraph, keep []bool, check Checkpoint) (*Closure, error) {
	n := d.NumVertices()
	c := &Closure{numVertices: n, succ: make([][]graph.VID, n)}
	s := &search{
		d:        d,
		seen:     make([]uint64, n),
		frontier: make([]uint64, n),
		next:     make([]uint64, n),
	}
	s.offsets, s.targets = d.CSR()

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
		c.numPairs += emitRows(c.succ, batch, s.touched, s.seen, keep)
		s.touched = s.touched[:0]
	}
	return c, nil
}

// search is the state of bfs's batches: the graph and its forward CSR,
// the three masks per vertex, the vertices the batch touched, the
// current and the next level, and heads, the vertices with an in-edge
// in ascending order, listed at the first bottom-up level.
type search struct {
	d                         *graph.DiGraph
	offsets                   []int32
	targets                   []graph.VID
	seen, frontier, next      []uint64
	touched, level, nextLevel []graph.VID
	heads                     []graph.VID
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
	touched, nextLevel := s.touched, s.nextLevel
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
				touched = append(touched, w)
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
	s.touched, s.nextLevel = touched, nextLevel
	return work, fe
}

// bottomUp runs one level from the other end: every vertex w with an
// in-edge whose seen[w] is not yet full (every source of the batch)
// ORs the frontier masks of its predecessors, stopping as soon as
// seen[w] and what it gathered cover the batch. The new bits go to
// seen, next and touched as on a top-down level, and the frontier is
// cleared after the sweep. It returns the level's work, the in-edges it
// read plus the bits it found, and fe of the next level.
func (s *search) bottomUp(full uint64) (work, fe int) {
	d, offsets := s.d, s.offsets
	seen, frontier, next := s.seen, s.frontier, s.next
	touched, nextLevel := s.touched, s.nextLevel
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
			touched = append(touched, w)
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
	s.touched, s.nextLevel = touched, nextLevel
	return work, fe
}

// emitRows writes the rows of one batch into succ and returns the pairs
// written, resetting seen over the touched vertices as it goes.
func emitRows(succ [][]graph.VID, batch, touched []graph.VID, seen []uint64, keep []bool) int {
	slices.Sort(touched)
	kept := touched[:0]
	var counts [batchBits]int
	for _, w := range touched {
		if keep != nil && !keep[w] {
			seen[w] = 0
			continue
		}
		kept = append(kept, w)
		for m := seen[w]; m != 0; m &= m - 1 {
			counts[bits.TrailingZeros64(m)]++
		}
	}
	var pos [batchBits]int
	total := 0
	for i := range batch {
		pos[i] = total
		total += counts[i]
	}
	backing := make([]graph.VID, total)
	for i, u := range batch {
		if counts[i] > 0 {
			succ[u] = backing[pos[i] : pos[i]+counts[i] : pos[i]+counts[i]]
		}
	}
	for _, w := range kept {
		for m := seen[w]; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			backing[pos[i]] = w
			pos[i]++
		}
		seen[w] = 0
	}
	return total
}
