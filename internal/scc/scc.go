// Package scc computes strongly connected components with Tarjan's
// algorithm [14] and builds the vertex-level reduction G_R → Ḡ_R of
// Section III-B: each SCC of G_R becomes one vertex of Ḡ_R, intra-SCC
// edges become a self-loop, and inter-SCC edges collapse to one edge.
package scc

import (
	"slices"

	"rtcshare/internal/graph"
)

// Components is the SCC decomposition of the active subgraph of a DiGraph.
//
// Component IDs (SIDs) are dense in [0, NumComponents). Tarjan emits
// components in reverse topological order: if the condensation has an
// edge s_i → s_j then i > j. Vertices not incident to any edge (outside
// V_R) get CompOf = -1.
type Components struct {
	// CompOf maps each vertex to its component, -1 for inactive vertices.
	CompOf []int32
	// Members lists the vertices of each component, sorted ascending.
	Members [][]graph.VID
}

// NumComponents returns the number of SCCs.
func (c *Components) NumComponents() int { return len(c.Members) }

// Size returns the number of vertices in component s.
func (c *Components) Size(s int32) int { return len(c.Members[s]) }

// AverageSize returns the average number of vertices per SCC — the
// statistic the paper uses to explain the Yago2s anomaly (≈1.0 means
// vertex-level reduction cannot help).
func (c *Components) AverageSize() float64 {
	if len(c.Members) == 0 {
		return 0
	}
	total := 0
	for _, m := range c.Members {
		total += len(m)
	}
	return float64(total) / float64(len(c.Members))
}

// Clone returns a copy-on-write copy of the decomposition for
// incremental maintenance (internal/rtc patches it under edge inserts):
// CompOf is deep-copied, while the Members rows are shared with the
// receiver and must be replaced, never mutated, when a merge rewrites
// them.
func (c *Components) Clone() *Components {
	return &Components{
		CompOf:  slices.Clone(c.CompOf),
		Members: slices.Clone(c.Members),
	}
}

// NumActiveVertices counts the vertices assigned to a component — |V_R|
// for the decomposition of an edge-level reduced graph.
func (c *Components) NumActiveVertices() int {
	n := 0
	for _, s := range c.CompOf {
		if s >= 0 {
			n++
		}
	}
	return n
}

// Tarjan computes the SCCs of the subgraph induced by d's active
// vertices, using an iterative lowlink algorithm (no recursion, so deep
// graphs cannot overflow the stack).
func Tarjan(d *graph.DiGraph) *Components {
	n := d.NumVertices()
	const unvisited = -1
	var (
		index   = make([]int32, n)
		lowlink = make([]int32, n)
		onStack = make([]bool, n)
		stack   = make([]graph.VID, 0, 64)
		next    = int32(0)
	)
	for i := range index {
		index[i] = unvisited
	}

	comp := &Components{CompOf: make([]int32, n)}
	for i := range comp.CompOf {
		comp.CompOf[i] = -1
	}

	// Explicit DFS frames: vertex plus the position within its successor
	// slice.
	type frame struct {
		v   graph.VID
		pos int
	}
	var frames []frame

	for _, root := range d.ActiveVertices() {
		if index[root] != unvisited {
			continue
		}
		frames = frames[:0]
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		frames = append(frames, frame{v: root})

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succs := d.Successors(f.v)
			if f.pos < len(succs) {
				w := succs[f.pos]
				f.pos++
				if index[w] == unvisited {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop the frame, fold lowlink into the parent,
			// and emit a component if v is a root.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				sid := int32(len(comp.Members))
				var members []graph.VID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp.CompOf[w] = sid
					members = append(members, w)
					if w == v {
						break
					}
				}
				// Tarjan pops members in reverse DFS order; sort for a
				// deterministic public representation.
				slices.Sort(members)
				comp.Members = append(comp.Members, members)
			}
		}
	}
	return comp
}

// Condense builds the vertex-level reduced graph Ḡ_R over SIDs:
// one vertex per SCC, one self-loop per component containing at least one
// intra-component edge, and one edge s_k → s_l per pair of components
// connected by at least one edge of d.
//
// No edge list is staged and nothing is comparison-sorted: d's CSR is
// walked component by component, a stamp per target component keeps
// each run duplicate-free, and graph.DiGraphFromRuns orders the runs by
// counting sort.
func Condense(d *graph.DiGraph, c *Components) *graph.DiGraph {
	k := c.NumComponents()
	offsets := make([]int32, k+1)
	var targets []graph.VID
	// stamp[t] == s+1 once component s has emitted an edge to t.
	stamp := make([]int32, k)
	for s, members := range c.Members {
		for _, v := range members {
			for _, w := range d.Successors(v) {
				if t := c.CompOf[w]; stamp[t] != int32(s)+1 {
					stamp[t] = int32(s) + 1
					targets = append(targets, t)
				}
			}
		}
		offsets[s+1] = int32(len(targets))
	}
	return graph.DiGraphFromRuns(k, offsets, targets)
}
