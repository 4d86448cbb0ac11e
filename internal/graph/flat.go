package graph

import "fmt"

// FlatCSR is one adjacency as raw CSR columns: the neighbors of row v
// are Targets[Offsets[v]:Offsets[v+1]], sorted ascending. It is the
// serialization view of the internal adjacency type — two flat int32
// slabs a snapshot can write and read back with a single copy each.
type FlatCSR struct {
	Offsets []int32
	Targets []VID
}

// FlatGraph is the raw-column view of a frozen Graph: the vertex count,
// the label names in LID order, and one forward plus one reverse CSR per
// label. Flatten produces it; FromFlat validates one and assembles a
// Graph around its forward columns. LabelStats are not part of the flat
// form — they are derived from the forward CSR in one cheap scan, so a
// snapshot never stores data it can recompute.
type FlatGraph struct {
	NumVertices int
	Labels      []string
	Fwd         []FlatCSR
	Rev         []FlatCSR
}

// Flatten exposes g's CSR columns without copying them: the forward
// columns and every reverse built so far alias the graph's internal
// storage and must not be modified. A reverse not yet built is
// transposed for the caller and not kept, so flattening leaves g's
// ColumnBytes as it was.
func (g *Graph) Flatten() *FlatGraph {
	f := &FlatGraph{
		NumVertices: g.numVertices,
		Labels:      g.dict.Names(),
		Fwd:         make([]FlatCSR, len(g.fwd)),
		Rev:         make([]FlatCSR, len(g.rev)),
	}
	for l, a := range g.fwd {
		f.Fwd[l] = FlatCSR{Offsets: a.offsets, Targets: a.targets}
		if r := g.rev[l].adj.Load(); r != nil {
			f.Rev[l] = FlatCSR{Offsets: r.offsets, Targets: r.targets}
		} else {
			f.Rev[l].Offsets, f.Rev[l].Targets = TransposeCSR(g.numVertices, a.offsets, a.targets)
		}
	}
	return f
}

// FromFlat validates f and builds a Graph sharing its forward columns
// (the caller must not modify them afterwards). Validation covers
// everything the query paths rely on structurally: offsets monotone and
// spanning the targets exactly, targets in range, runs strictly
// increasing (binary searches require sorted duplicate-free runs),
// labels distinct, and each reverse CSR the exact transpose of its
// forward one. The graph keeps no reverse column of f: each is rebuilt
// from the forward columns on its first read, like a built graph's.
// LabelStats are recomputed rather than deserialized.
func FromFlat(f *FlatGraph) (*Graph, error) {
	if f.NumVertices < 0 {
		return nil, fmt.Errorf("graph: flat graph has negative vertex count %d", f.NumVertices)
	}
	if len(f.Fwd) != len(f.Labels) || len(f.Rev) != len(f.Labels) {
		return nil, fmt.Errorf("graph: flat graph has %d labels but %d forward / %d reverse adjacencies",
			len(f.Labels), len(f.Fwd), len(f.Rev))
	}
	dict := NewDictFrom(f.Labels...)
	if dict.Len() != len(f.Labels) {
		return nil, fmt.Errorf("graph: flat graph repeats a label name")
	}
	g := &Graph{
		numVertices: f.NumVertices,
		dict:        dict,
		fwd:         make([]adjacency, len(f.Labels)),
		rev:         make([]*reverse, len(f.Labels)),
		labelStats:  make([]LabelStats, len(f.Labels)),
	}
	in := make([]int32, f.NumVertices)
	for l := range f.Labels {
		fwd, rev := f.Fwd[l], f.Rev[l]
		if err := ValidateCSR(f.NumVertices, f.NumVertices, fwd.Offsets, fwd.Targets, true); err != nil {
			return nil, fmt.Errorf("graph: label %q forward adjacency: %w", f.Labels[l], err)
		}
		if err := ValidateCSR(f.NumVertices, f.NumVertices, rev.Offsets, rev.Targets, true); err != nil {
			return nil, fmt.Errorf("graph: label %q reverse adjacency: %w", f.Labels[l], err)
		}
		if len(fwd.Targets) != len(rev.Targets) {
			return nil, fmt.Errorf("graph: label %q has %d forward but %d reverse edges",
				f.Labels[l], len(fwd.Targets), len(rev.Targets))
		}
		if err := checkTranspose(fwd, rev, in); err != nil {
			return nil, fmt.Errorf("graph: label %q reverse adjacency: %w", f.Labels[l], err)
		}
		g.fwd[l] = adjacency{offsets: fwd.Offsets, targets: fwd.Targets}
		g.rev[l] = &reverse{fwd: g.fwd[l]}
		g.numEdges += len(fwd.Targets)
		g.labelStats[l] = computeLabelStats(g.fwd[l], in)
	}
	return g, nil
}

// checkTranspose reports whether rev is the transpose of fwd, two
// validated CSRs over the same rows with as many targets each, without
// building one: fwd's edges, visited by ascending source, must fill each
// reverse row in order. seen holds a zero per row and is left zeroed.
func checkTranspose(fwd, rev FlatCSR, seen []int32) error {
	defer clear(seen)
	for u := range len(fwd.Offsets) - 1 {
		for _, w := range fwd.Targets[fwd.Offsets[u]:fwd.Offsets[u+1]] {
			at := rev.Offsets[w] + seen[w]
			if at >= rev.Offsets[w+1] || rev.Targets[at] != VID(u) {
				return fmt.Errorf("not the transpose of the forward adjacency at edge (%d, %d)", u, w)
			}
			seen[w]++
		}
	}
	return nil
}

// ValidateCSR checks raw CSR columns for structural soundness: exactly
// numRows+1 offsets starting at 0, monotone non-decreasing and ending at
// len(targets); every target in [0, targetBound). With strictRuns, each
// row's run must additionally be strictly increasing — the sorted,
// duplicate-free invariant every sealed CSR in this codebase maintains
// and every binary search depends on. It is the shared admission check
// for CSR columns arriving from outside the process (snapshot loading).
func ValidateCSR(numRows, targetBound int, offsets []int32, targets []VID, strictRuns bool) error {
	if numRows < 0 {
		return fmt.Errorf("negative row count %d", numRows)
	}
	if len(offsets) != numRows+1 {
		return fmt.Errorf("want %d offsets, got %d", numRows+1, len(offsets))
	}
	if offsets[0] != 0 {
		return fmt.Errorf("offsets[0] = %d, want 0", offsets[0])
	}
	for v := 0; v < numRows; v++ {
		if offsets[v+1] < offsets[v] {
			return fmt.Errorf("offsets decrease at row %d (%d -> %d)", v, offsets[v], offsets[v+1])
		}
	}
	if int(offsets[numRows]) != len(targets) {
		return fmt.Errorf("offsets end at %d but %d targets", offsets[numRows], len(targets))
	}
	for _, t := range targets {
		if t < 0 || int(t) >= targetBound {
			return fmt.Errorf("target %d out of range [0,%d)", t, targetBound)
		}
	}
	if strictRuns {
		for v := 0; v < numRows; v++ {
			run := targets[offsets[v]:offsets[v+1]]
			for i := 1; i < len(run); i++ {
				if run[i] <= run[i-1] {
					return fmt.Errorf("row %d run not strictly increasing at index %d (%d, %d)", v, i, run[i-1], run[i])
				}
			}
		}
	}
	return nil
}
