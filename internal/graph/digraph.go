package graph

import "sort"

// DiGraph is an immutable unlabeled simple directed graph in CSR form.
// It represents the products of RPQ-based graph reduction: the edge-level
// reduced graph G_R and the vertex-level reduced graph Ḡ_R (Section III).
//
// A DiGraph lives in a dense VID space [0, NumVertices). For G_R that
// space is shared with the original graph G; the vertices that actually
// belong to V_R (endpoints of at least one edge) are exposed through
// Active and ActiveVertices.
type DiGraph struct {
	numVertices int
	numEdges    int
	fwd         adjacency
	rev         adjacency
	active      []VID // sorted VIDs with in-degree+out-degree > 0
}

// NumVertices returns the size of the VID space (not |V_R|; see NumActive).
func (d *DiGraph) NumVertices() int { return d.numVertices }

// NumEdges returns the number of distinct directed edges.
func (d *DiGraph) NumEdges() int { return d.numEdges }

// NumActive returns |V_R|: the number of vertices incident to at least
// one edge.
func (d *DiGraph) NumActive() int { return len(d.active) }

// ActiveVertices returns the sorted VIDs incident to at least one edge.
// The caller must not modify the returned slice.
func (d *DiGraph) ActiveVertices() []VID { return d.active }

// Successors returns the out-neighbors of v, sorted ascending.
// The returned slice aliases internal storage.
func (d *DiGraph) Successors(v VID) []VID { return d.fwd.neighbors(v) }

// Predecessors returns the in-neighbors of v, sorted ascending.
// The returned slice aliases internal storage.
func (d *DiGraph) Predecessors(v VID) []VID { return d.rev.neighbors(v) }

// OutDegree returns the number of out-neighbors of v.
func (d *DiGraph) OutDegree(v VID) int { return d.fwd.degree(v) }

// InDegree returns the number of in-neighbors of v.
func (d *DiGraph) InDegree(v VID) int { return d.rev.degree(v) }

// HasEdge reports whether the edge (src, dst) exists.
func (d *DiGraph) HasEdge(src, dst VID) bool {
	ns := d.Successors(src)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= dst })
	return i < len(ns) && ns[i] == dst
}

// Edges calls fn for every edge in (src, dst) order, stopping early if fn
// returns false.
func (d *DiGraph) Edges(fn func(src, dst VID) bool) {
	for v := 0; v+1 < len(d.fwd.offsets); v++ {
		for _, w := range d.fwd.neighbors(VID(v)) {
			if !fn(VID(v), w) {
				return
			}
		}
	}
}

// DiGraphFromCSR builds a DiGraph directly from a src-grouped CSR whose
// runs are already sorted ascending and duplicate-free — the invariant a
// sealed pairs.Relation guarantees — skipping DiBuilder's global
// edge sort entirely. The forward adjacency aliases the given columns
// (the caller must never modify them; sealed relations are immutable, so
// G_R shares the relation's frozen columns with zero copying); the
// reverse adjacency is derived by one counting-sort pass.
func DiGraphFromCSR(numVertices int, offsets []int32, dsts []VID) *DiGraph {
	if len(offsets) != numVertices+1 {
		panic("graph: CSR offsets length mismatch")
	}
	d := &DiGraph{
		numVertices: numVertices,
		numEdges:    len(dsts),
		fwd:         adjacency{offsets: offsets, targets: dsts},
	}

	revOffsets, revTargets := TransposeCSR(numVertices, offsets, dsts)
	d.rev = adjacency{offsets: revOffsets, targets: revTargets}
	d.indexActive()
	return d
}

// indexActive records the vertices incident to at least one edge, once
// both adjacencies are in place.
func (d *DiGraph) indexActive() {
	for v := 0; v < d.numVertices; v++ {
		if d.fwd.degree(VID(v)) > 0 || d.rev.degree(VID(v)) > 0 {
			d.active = append(d.active, VID(v))
		}
	}
}

// DiGraphFromRuns builds a DiGraph from a src-grouped CSR whose runs are
// duplicate-free but in any order — what a stamp-deduplicated walk
// produces. Two counting-sort passes replace a comparison sort: the
// transpose of the input has sorted runs because sources are walked
// ascending, and it is the reverse adjacency; transposing it back gives
// the forward adjacency with sorted runs. The input columns are not
// retained.
func DiGraphFromRuns(numVertices int, offsets []int32, dsts []VID) *DiGraph {
	if len(offsets) != numVertices+1 {
		panic("graph: CSR offsets length mismatch")
	}
	revOffsets, revTargets := TransposeCSR(numVertices, offsets, dsts)
	fwdOffsets, fwdTargets := TransposeCSR(numVertices, revOffsets, revTargets)
	d := &DiGraph{
		numVertices: numVertices,
		numEdges:    len(dsts),
		fwd:         adjacency{offsets: fwdOffsets, targets: fwdTargets},
		rev:         adjacency{offsets: revOffsets, targets: revTargets},
	}
	d.indexActive()
	return d
}

// CSR returns the forward adjacency's raw columns: the successors of v
// are targets[offsets[v]:offsets[v+1]], sorted ascending. The slices
// alias internal storage and must not be modified; a DiGraph is rebuilt
// from the columns with DiGraphFromCSR (after graph.ValidateCSR for
// columns from outside the process, since DiGraphFromCSR trusts its
// input).
func (d *DiGraph) CSR() (offsets []int32, targets []VID) {
	return d.fwd.offsets, d.fwd.targets
}

// TransposeCSR counting-sorts a src-grouped CSR into its dst-grouped
// mirror: tOffsets[w]:tOffsets[w+1] index the sources pairing to w in
// tTargets. Walking sources ascending appends each transposed run in
// sorted order, so sortedness of the input runs carries over. It is the
// one source of reverse adjacencies built from scratch: Builder.Build,
// DiBuilder.Build, DiGraphFromCSR, and pairs.Relation's lazy transpose.
// Mutable.Freeze splices its edits into the base's reverse columns
// instead.
func TransposeCSR(numVertices int, offsets []int32, dsts []VID) (tOffsets []int32, tTargets []VID) {
	tOffsets = make([]int32, numVertices+1)
	for _, w := range dsts {
		tOffsets[w+1]++
	}
	for v := 0; v < numVertices; v++ {
		tOffsets[v+1] += tOffsets[v]
	}
	tTargets = make([]VID, len(dsts))
	cursor := make([]int32, numVertices)
	for v := 0; v < numVertices; v++ {
		for _, w := range dsts[offsets[v]:offsets[v+1]] {
			tTargets[tOffsets[w]+cursor[w]] = VID(v)
			cursor[w]++
		}
	}
	return tOffsets, tTargets
}

// DiBuilder accumulates unlabeled edges and freezes them into a DiGraph.
type DiBuilder struct {
	numVertices int
	srcs        []VID
	dsts        []VID
}

// NewDiBuilder returns a builder over the dense VID space [0, numVertices).
func NewDiBuilder(numVertices int) *DiBuilder {
	if numVertices < 0 {
		panic("graph: negative vertex count")
	}
	return &DiBuilder{numVertices: numVertices}
}

// NewDiBuilderCap is NewDiBuilder with the edge count preallocated, for
// callers that know it up front (the condensation knows |E_R| exactly):
// AddEdge then never grows the staging slices.
func NewDiBuilderCap(numVertices, edgeCapacity int) *DiBuilder {
	b := NewDiBuilder(numVertices)
	if edgeCapacity > 0 {
		b.srcs = make([]VID, 0, edgeCapacity)
		b.dsts = make([]VID, 0, edgeCapacity)
	}
	return b
}

// AddEdge records the directed edge (src, dst). Duplicates are collapsed
// at Build time (G_R is a simple graph). Out-of-range endpoints panic:
// reductions always produce VIDs within the source graph's space, so a
// violation is a programming error.
func (b *DiBuilder) AddEdge(src, dst VID) {
	if src < 0 || int(src) >= b.numVertices || dst < 0 || int(dst) >= b.numVertices {
		panic("graph: digraph edge out of range")
	}
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
}

// NumPending returns the number of edges recorded so far (pre-dedup).
func (b *DiBuilder) NumPending() int { return len(b.srcs) }

// Build freezes the accumulated edges into an immutable DiGraph.
func (b *DiBuilder) Build() *DiGraph {
	n := b.numVertices
	es := make([]Edge, len(b.srcs))
	for i := range b.srcs {
		es[i] = Edge{Src: b.srcs[i], Dst: b.dsts[i]}
	}
	// Condensations are rebuilt for every shared structure, so this is
	// warm-path code: one allocation-free sort, then a transpose.
	es = sortedDedupEdges(es)

	d := &DiGraph{numVertices: n, numEdges: len(es)}
	d.fwd = buildCSR(n, es)
	d.rev.offsets, d.rev.targets = TransposeCSR(n, d.fwd.offsets, d.fwd.targets)
	d.indexActive()
	b.srcs, b.dsts = nil, nil
	return d
}

// ReverseCSR returns the reverse adjacency's raw columns: the
// predecessors of v are targets[offsets[v]:offsets[v+1]], sorted
// ascending. The slices alias internal storage and must not be
// modified.
func (d *DiGraph) ReverseCSR() (offsets []int32, targets []VID) {
	return d.rev.offsets, d.rev.targets
}
