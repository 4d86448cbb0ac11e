// Package graph implements the data model of the paper: an edge-labeled,
// directed multigraph G = (V, E, f, Σ, l) (Section II-A), together with the
// unlabeled simple digraphs produced by RPQ-based graph reduction
// (Section III).
//
// Vertices are dense integer IDs (VID). Labels are dense integer IDs (LID)
// managed by a Dict. A multigraph may hold several edges between the same
// ordered vertex pair as long as their labels differ; (src, label, dst)
// triples are unique.
//
// Graphs are built with a Builder and frozen into an immutable CSR
// (compressed sparse row) representation holding each label's forward
// adjacency, the access pattern of the automaton-product search, the
// RTC's product walk and the row kernel. A label's reverse adjacency is
// transposed from its forward one on the first read (Predecessors,
// LabelCSR with inverse) and kept from then on.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// VID identifies a vertex. VIDs are dense: a graph with n vertices uses
// VIDs 0..n-1.
type VID = int32

// LID identifies an edge label. LIDs are dense within a graph's Dict.
type LID = int32

// Edge is one labeled directed edge e(Src, Label, Dst).
type Edge struct {
	Src   VID
	Label LID
	Dst   VID
}

// Graph is an immutable edge-labeled directed multigraph in CSR form.
// Build one with a Builder. Its forward columns are held from
// construction; a label's reverse is built on its first read, once, and
// concurrent readers are safe.
type Graph struct {
	numVertices int
	numEdges    int
	dict        *Dict

	// fwd[l] holds the forward adjacency of label l; rev[l] builds and
	// keeps its reverse.
	fwd []adjacency
	rev []*reverse

	// labelStats[l] summarises label l's edge relation; computed once in
	// Build so the query planner's cardinality estimator is free at plan
	// time.
	labelStats []LabelStats
}

// LabelStats summarises one label's edge relation — the base statistics
// the cardinality estimator of internal/plan builds on. All counts are
// computed once, from the forward columns, when the graph is built.
type LabelStats struct {
	// Edges is the number of edges carrying the label.
	Edges int
	// DistinctSrcs / DistinctDsts count the vertices with at least one
	// outgoing / incoming edge of this label (the distinct-source and
	// distinct-sink cardinalities of the label relation).
	DistinctSrcs, DistinctDsts int
	// MaxOutDegree / MaxInDegree are the per-vertex degree maxima — the
	// tails of the out- and in-degree distributions, which mark labels
	// whose fan-out makes joins explode past the uniform estimate.
	MaxOutDegree, MaxInDegree int
}

// AvgOutDegree returns Edges/DistinctSrcs: the mean fan-out of a vertex
// that has this label at all.
func (s LabelStats) AvgOutDegree() float64 {
	if s.DistinctSrcs == 0 {
		return 0
	}
	return float64(s.Edges) / float64(s.DistinctSrcs)
}

// AvgInDegree returns Edges/DistinctDsts, the mean fan-in.
func (s LabelStats) AvgInDegree() float64 {
	if s.DistinctDsts == 0 {
		return 0
	}
	return float64(s.Edges) / float64(s.DistinctDsts)
}

// adjacency is a CSR slice: neighbors of vertex v are
// targets[offsets[v]:offsets[v+1]], sorted ascending.
type adjacency struct {
	offsets []int32
	targets []VID
}

func (a adjacency) neighbors(v VID) []VID {
	return a.targets[a.offsets[v]:a.offsets[v+1]]
}

func (a adjacency) degree(v VID) int {
	return int(a.offsets[v+1] - a.offsets[v])
}

// bytes is the 4 B per entry a's columns hold.
func (a adjacency) bytes() int64 { return 4 * int64(len(a.offsets)+len(a.targets)) }

// reverse is one label's reverse adjacency: the transpose of the
// forward columns it holds, built on the first read and kept from then
// on. Freeze hands an untouched label's reverse to the next version, so
// whichever version reads it first builds it for all of them.
type reverse struct {
	fwd  adjacency
	once sync.Once
	adj  atomic.Pointer[adjacency] // nil until built
}

// get returns the reverse adjacency, transposing the forward one on the
// first call; concurrent first calls build it once.
func (r *reverse) get() adjacency {
	r.once.Do(func() {
		var a adjacency
		a.offsets, a.targets = TransposeCSR(len(r.fwd.offsets)-1, r.fwd.offsets, r.fwd.targets)
		r.adj.Store(&a)
	})
	return *r.adj.Load()
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns |E| counting each (src, label, dst) triple once.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumLabels returns |Σ|.
func (g *Graph) NumLabels() int { return g.dict.Len() }

// Dict returns the label dictionary shared by this graph.
func (g *Graph) Dict() *Dict { return g.dict }

// Successors returns the vertices w such that e(v, label, w) ∈ E,
// sorted ascending. The returned slice aliases internal storage and must
// not be modified.
func (g *Graph) Successors(v VID, label LID) []VID {
	if int(label) >= len(g.fwd) {
		return nil
	}
	return g.fwd[label].neighbors(v)
}

// Predecessors returns the vertices u such that e(u, label, v) ∈ E,
// sorted ascending, building the label's reverse adjacency on its first
// read. The returned slice aliases internal storage and must not be
// modified.
func (g *Graph) Predecessors(v VID, label LID) []VID {
	if int(label) >= len(g.rev) {
		return nil
	}
	return g.rev[label].get().neighbors(v)
}

// LabelCSR returns one label's edge relation as CSR columns: the
// forward adjacency, or with inverse the reverse one, built on its
// first read. Row v is targets[offsets[v]:offsets[v+1]], sorted
// ascending and duplicate-free, and offsets has NumVertices()+1
// entries. A label outside the graph returns nil columns. Both alias
// internal storage and must not be modified: the engine answers a
// single-label expression from them.
func (g *Graph) LabelCSR(label LID, inverse bool) (offsets []int32, targets []VID) {
	if label < 0 || int(label) >= len(g.fwd) {
		return nil, nil
	}
	a := g.fwd[label]
	if inverse {
		a = g.rev[label].get()
	}
	return a.offsets, a.targets
}

// ColumnBytes returns the bytes g's adjacency columns hold, 4 per
// offset and target entry: every label's forward columns and each
// reverse built so far. Columns a version shares with another count in
// each.
func (g *Graph) ColumnBytes() int64 {
	var n int64
	for l, a := range g.fwd {
		n += a.bytes()
		if r := g.rev[l].adj.Load(); r != nil {
			n += r.bytes()
		}
	}
	return n
}

// HasEdge reports whether e(src, label, dst) ∈ E.
func (g *Graph) HasEdge(src VID, label LID, dst VID) bool {
	ns := g.Successors(src, label)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= dst })
	return i < len(ns) && ns[i] == dst
}

// OutDegree returns the number of edges leaving v with the given label.
func (g *Graph) OutDegree(v VID, label LID) int {
	if int(label) >= len(g.fwd) {
		return 0
	}
	return g.fwd[label].degree(v)
}

// LabelEdgeCount returns the number of edges carrying the given label.
func (g *Graph) LabelEdgeCount(label LID) int {
	if int(label) >= len(g.fwd) {
		return 0
	}
	return len(g.fwd[label].targets)
}

// LabelStats returns the build-time statistics of the given label's edge
// relation. Unknown labels report the zero statistics (the empty
// relation).
func (g *Graph) LabelStats(label LID) LabelStats {
	if label < 0 || int(label) >= len(g.labelStats) {
		return LabelStats{}
	}
	return g.labelStats[label]
}

// Edges calls fn for every edge in the graph in (label, src, dst) order.
// It stops early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	for l := range g.fwd {
		adj := g.fwd[l]
		for v := 0; v+1 < len(adj.offsets); v++ {
			for _, w := range adj.neighbors(VID(v)) {
				if !fn(Edge{Src: VID(v), Label: LID(l), Dst: w}) {
					return
				}
			}
		}
	}
}

// DegreePerLabel returns |E| / (|V|·|Σ|), the average vertex degree per
// label — the statistic the paper's evaluation sweeps (Table IV).
func (g *Graph) DegreePerLabel() float64 {
	if g.numVertices == 0 || g.dict.Len() == 0 {
		return 0
	}
	return float64(g.numEdges) / (float64(g.numVertices) * float64(g.dict.Len()))
}

// Stats summarises a graph for reporting (paper Table IV).
type Stats struct {
	Vertices       int
	Edges          int
	Labels         int
	DegreePerLabel float64
}

// Stats returns the Table IV statistics of g.
func (g *Graph) Stats() Stats {
	return Stats{
		Vertices:       g.numVertices,
		Edges:          g.numEdges,
		Labels:         g.dict.Len(),
		DegreePerLabel: g.DegreePerLabel(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d |Σ|=%d degree=%.4f",
		s.Vertices, s.Edges, s.Labels, s.DegreePerLabel)
}

// Builder accumulates edges and freezes them into a Graph.
// The zero value is not usable; call NewBuilder.
type Builder struct {
	numVertices int
	dict        *Dict
	edges       []Edge
	frozen      bool
}

// NewBuilder returns a Builder for a graph with the given number of
// vertices. Vertices are implicit: every VID in [0, numVertices) exists.
func NewBuilder(numVertices int) *Builder {
	if numVertices < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{numVertices: numVertices, dict: NewDict()}
}

// NewBuilderWithDict returns a Builder that shares an existing label
// dictionary, so several graphs can agree on LIDs.
func NewBuilderWithDict(numVertices int, dict *Dict) *Builder {
	b := NewBuilder(numVertices)
	b.dict = dict
	return b
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.numVertices }

// Dict returns the label dictionary used by this builder.
func (b *Builder) Dict() *Dict { return b.dict }

// AddEdge records the edge e(src, label, dst), interning the label string.
// It returns an error if either endpoint is out of range or the label
// fails ValidateLabel (which would break the text format's Write→Read
// round-trip); rejected labels are never interned. Callers that
// deliberately need such labels can intern them and use AddEdgeLID.
func (b *Builder) AddEdge(src VID, label string, dst VID) error {
	if err := ValidateLabel(label); err != nil {
		return err
	}
	return b.AddEdgeLID(src, b.dict.Intern(label), dst)
}

// AddEdgeLID records the edge with an already-interned label.
func (b *Builder) AddEdgeLID(src VID, label LID, dst VID) error {
	if b.frozen {
		return fmt.Errorf("graph: builder already frozen")
	}
	if src < 0 || int(src) >= b.numVertices || dst < 0 || int(dst) >= b.numVertices {
		return fmt.Errorf("graph: edge (%d,%d,%d) out of range [0,%d)", src, label, dst, b.numVertices)
	}
	if label < 0 || int(label) >= b.dict.Len() {
		return fmt.Errorf("graph: unknown label id %d", label)
	}
	b.edges = append(b.edges, Edge{Src: src, Label: label, Dst: dst})
	return nil
}

// MustAddEdge is AddEdge but panics on error; convenient in tests and
// examples where coordinates are static.
func (b *Builder) MustAddEdge(src VID, label string, dst VID) {
	if err := b.AddEdge(src, label, dst); err != nil {
		panic(err)
	}
}

// Build freezes the accumulated edges into an immutable Graph.
// Duplicate (src, label, dst) triples are collapsed to one edge, enforcing
// the multigraph constraint that parallel edges carry distinct labels.
func (b *Builder) Build() *Graph {
	b.frozen = true
	numLabels := b.dict.Len()
	g := &Graph{
		numVertices: b.numVertices,
		dict:        b.dict,
		fwd:         make([]adjacency, numLabels),
		rev:         make([]*reverse, numLabels),
		labelStats:  make([]LabelStats, numLabels),
	}

	// Bucket edges per label, then build the forward CSR of each label.
	perLabel := make([][]Edge, numLabels)
	for _, e := range b.edges {
		perLabel[e.Label] = append(perLabel[e.Label], e)
	}
	in := make([]int32, b.numVertices)
	for l := 0; l < numLabels; l++ {
		es := sortedDedupEdges(perLabel[l])
		g.numEdges += len(es)
		g.fwd[l] = buildCSR(b.numVertices, es)
		g.rev[l] = &reverse{fwd: g.fwd[l]}
		g.labelStats[l] = computeLabelStats(g.fwd[l], in)
	}
	b.edges = nil
	return g
}

// computeLabelStats derives one label's statistics from its forward
// CSR: out-degrees from the offsets, where a row's degree is
// o[v+1]-o[v], and in-degrees counted from the targets into in, which
// holds a zero per row and is left zeroed. It is the only statistics
// code — Build, FromFlat and Mutable.Freeze all call it — so every path
// to a Graph reports the same LabelStats for the same edges.
func computeLabelStats(fwd adjacency, in []int32) LabelStats {
	for _, w := range fwd.targets {
		in[w]++
	}
	// Local accumulators, not the struct's fields: a five-field struct
	// is not kept in registers. A degree is non-negative, so its
	// negation's sign bit is 1 exactly when it is non-zero, which counts
	// without a branch the degree distribution would mispredict.
	var srcs, dsts, maxOut, maxIn int
	fo := fwd.offsets
	for v := 1; v < len(fo); v++ {
		out, deg := int(fo[v]-fo[v-1]), int(in[v-1])
		in[v-1] = 0
		srcs += int(uint(-out) >> 63)
		dsts += int(uint(-deg) >> 63)
		maxOut, maxIn = max(maxOut, out), max(maxIn, deg)
	}
	return LabelStats{Edges: len(fwd.targets), DistinctSrcs: srcs, DistinctDsts: dsts, MaxOutDegree: maxOut, MaxInDegree: maxIn}
}

// sortedDedupEdges sorts es by (Src, Dst) in place and drops repeated
// pairs; labels are ignored. slices.SortFunc rather than sort.Slice: no
// reflection-based swapper, no closure allocations.
func sortedDedupEdges(es []Edge) []Edge {
	slices.SortFunc(es, func(a, b Edge) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Dst) - int(b.Dst)
	})
	return slices.CompactFunc(es, func(a, b Edge) bool { return a.Src == b.Src && a.Dst == b.Dst })
}

// buildCSR builds the forward adjacency of edges sorted by (Src, Dst)
// without duplicates.
func buildCSR(numVertices int, es []Edge) adjacency {
	offsets := make([]int32, numVertices+1)
	targets := make([]VID, len(es))
	for i, e := range es {
		offsets[e.Src+1]++
		targets[i] = e.Dst
	}
	for v := 0; v < numVertices; v++ {
		offsets[v+1] += offsets[v]
	}
	return adjacency{offsets: offsets, targets: targets}
}
