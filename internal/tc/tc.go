// Package tc computes transitive closures of unlabeled digraphs by a
// per-vertex breadth-first search, O(|V|·|E|) — the closure computation
// the paper assigns to both methods in Table III (FullSharing runs it on
// G_R, RTCSharing on the much smaller Ḡ_R). The closure follows the
// paper's semantics: (u, w) ∈ TC iff a path of length ≥ 1 leads from u
// to w, so (u, u) requires a cycle through u.
package tc

import (
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
// vertex: O(|V|·|E|) time, the complexity the paper quotes in Table III.
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

// bfs is BFS with an optional vertex filter (nil keeps every vertex)
// and an optional per-source cancellation checkpoint.
func bfs(d *graph.DiGraph, keep []bool, check Checkpoint) (*Closure, error) {
	n := d.NumVertices()
	c := &Closure{numVertices: n, succ: make([][]graph.VID, n)}
	visited := make([]uint32, n)
	gen := uint32(0)
	queue := make([]graph.VID, 0, 64)

	// lastRows is the work of the previous source's search, spent
	// against the checkpoint budget before starting the next one.
	lastRows := 1
	for _, u := range d.ActiveVertices() {
		if d.OutDegree(u) == 0 || (keep != nil && !keep[u]) {
			continue
		}
		if err := checkRows(check, lastRows); err != nil {
			return nil, err
		}
		gen++
		queue = queue[:0]
		// Seed with u's successors; u itself is reachable only via a
		// cycle, so it is not pre-marked.
		var reach []graph.VID
		for _, w := range d.Successors(u) {
			if visited[w] != gen {
				visited[w] = gen
				queue = append(queue, w)
				reach = append(reach, w)
			}
		}
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range d.Successors(v) {
				if visited[w] != gen {
					visited[w] = gen
					queue = append(queue, w)
					reach = append(reach, w)
				}
			}
		}
		if keep != nil {
			reach = slices.DeleteFunc(reach, func(w graph.VID) bool { return !keep[w] })
		}
		sort.Slice(reach, func(i, j int) bool { return reach[i] < reach[j] })
		c.succ[u] = reach
		c.numPairs += len(reach)
		lastRows = len(reach) + 1
	}
	return c, nil
}
