package graph

import (
	"fmt"
	"slices"
)

// Mutable is a mutable edge-labeled directed multigraph: the ingestion
// side of the dynamic-graph subsystem. Where Builder is write-once
// (accumulate edges, Build, done), a Mutable supports interleaved
// InsertEdge/DeleteEdge and can be frozen into an immutable CSR Graph any
// number of times. Engines never evaluate against a Mutable directly —
// Engine.ApplyUpdates freezes one snapshot per update batch, so queries
// always run over an immutable graph version.
//
// A Mutable is the last frozen Graph (the base) plus, per label, the
// edits made since. Freeze rebuilds only the labels with edits, merging
// them into the base's columns; every other label aliases the base. That
// is safe because frozen columns are never written.
//
// A Mutable is not safe for concurrent use; callers serialise mutation
// (Engine.ApplyUpdates does so internally).
type Mutable struct {
	base        *Graph
	numVertices int
	numEdges    int
	dict        *Dict
	// edits[l] maps (src, dst) to the edge's presence under label l, for
	// exactly the pairs whose presence differs from the base.
	edits []map[[2]VID]bool
}

// NewMutable returns an empty mutable graph over the dense VID space
// [0, numVertices).
func NewMutable(numVertices int) *Mutable {
	if numVertices < 0 {
		panic("graph: negative vertex count")
	}
	return MutableFromGraph(&Graph{numVertices: numVertices, dict: NewDict()})
}

// MutableFromGraph starts a Mutable from a frozen Graph, so a build-once
// graph can take updates. The graph's columns become the base and are
// aliased, not copied. The label dictionary is cloned: later inserts
// interning new labels do not grow the source graph's dict.
func MutableFromGraph(g *Graph) *Mutable {
	return &Mutable{
		base:        g,
		numVertices: g.numVertices,
		numEdges:    g.numEdges,
		dict:        NewDictFrom(g.dict.Names()...),
	}
}

// NumVertices returns the size of the VID space.
func (m *Mutable) NumVertices() int { return m.numVertices }

// NumEdges returns the number of distinct (src, label, dst) triples.
func (m *Mutable) NumEdges() int { return m.numEdges }

// Dict returns the label dictionary. Interning through it without going
// through InsertEdge is allowed: the next Freeze carries the label with
// an empty edge relation.
func (m *Mutable) Dict() *Dict { return m.dict }

// Grow extends the vertex space to numVertices. Shrinking is not
// supported; a smaller value is a no-op.
func (m *Mutable) Grow(numVertices int) {
	if numVertices > m.numVertices {
		m.numVertices = numVertices
	}
}

func (m *Mutable) checkEndpoints(src, dst VID) error {
	if src < 0 || int(src) >= m.numVertices || dst < 0 || int(dst) >= m.numVertices {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", src, dst, m.numVertices)
	}
	return nil
}

// InsertEdge adds the edge (src, label, dst), interning the label if it
// is new. It reports whether the edge was actually added (false: the
// triple already existed) and errs on out-of-range endpoints or a label
// failing ValidateLabel (rejected labels are never interned; DeleteEdge
// stays permissive — a never-insertable label is simply never present).
func (m *Mutable) InsertEdge(src VID, label string, dst VID) (bool, error) {
	if err := m.checkEndpoints(src, dst); err != nil {
		return false, err
	}
	if err := ValidateLabel(label); err != nil {
		return false, err
	}
	return m.set(m.dict.Intern(label), src, dst, true), nil
}

// DeleteEdge removes the edge (src, label, dst). It reports whether the
// edge existed (false: nothing to delete, including unknown labels) and
// errs on out-of-range endpoints.
func (m *Mutable) DeleteEdge(src VID, label string, dst VID) (bool, error) {
	if err := m.checkEndpoints(src, dst); err != nil {
		return false, err
	}
	l, ok := m.dict.Lookup(label)
	return ok && m.set(l, src, dst, false), nil
}

// set makes (src, l, dst) present or absent and reports whether that
// changed anything. An edit that restores the base's state is forgotten.
func (m *Mutable) set(l LID, src, dst VID, present bool) bool {
	if m.has(l, src, dst) == present {
		return false
	}
	for int(l) >= len(m.edits) {
		m.edits = append(m.edits, make(map[[2]VID]bool))
	}
	if m.inBase(l, src, dst) == present {
		delete(m.edits[l], [2]VID{src, dst})
	} else {
		m.edits[l][[2]VID{src, dst}] = present
	}
	if present {
		m.numEdges++
	} else {
		m.numEdges--
	}
	return true
}

func (m *Mutable) has(l LID, src, dst VID) bool {
	if int(l) < len(m.edits) {
		if present, ok := m.edits[l][[2]VID{src, dst}]; ok {
			return present
		}
	}
	return m.inBase(l, src, dst)
}

func (m *Mutable) inBase(l LID, src, dst VID) bool {
	return src >= 0 && int(src) < m.base.numVertices && m.base.HasEdge(src, l, dst)
}

// HasEdge reports whether (src, label, dst) is present.
func (m *Mutable) HasEdge(src VID, label string, dst VID) bool {
	l, ok := m.dict.Lookup(label)
	return ok && m.has(l, src, dst)
}

// LabelStats returns the statistics of one label's current edge
// relation, exactly as Build would compute them for the same edges. It
// folds pending edits in through Freeze.
func (m *Mutable) LabelStats(label LID) LabelStats {
	return m.Freeze().LabelStats(label)
}

// Freeze snapshots the current edges into an immutable Graph, exactly as
// if the same edge list had been fed to a Builder — identical CSR layout
// and identical Build-time LabelStats. A label with edits gets its
// forward columns from one merge pass of the base's runs with the sorted
// edits, its reverse columns from TransposeCSR and its statistics from
// one offset scan: O(|V| + |E_l| + |Δ| log |Δ|). Every other label
// aliases the base's columns, padding only the offsets after Grow. With
// nothing changed, Freeze returns the base itself.
//
// The frozen graph becomes the new base. Its dict is a clone, so later
// inserts interning new labels never mutate a frozen graph's dictionary.
func (m *Mutable) Freeze() *Graph {
	b, n := m.base, m.numVertices
	if n == b.numVertices && m.dict.Len() == b.dict.Len() &&
		!slices.ContainsFunc(m.edits, func(ed map[[2]VID]bool) bool { return len(ed) > 0 }) {
		return b
	}
	numLabels := m.dict.Len()
	g := &Graph{
		numVertices: n,
		numEdges:    m.numEdges,
		dict:        NewDictFrom(m.dict.Names()...),
		fwd:         make([]adjacency, numLabels),
		rev:         make([]adjacency, numLabels),
		labelStats:  make([]LabelStats, numLabels),
	}
	for l := range numLabels {
		var fwd, rev adjacency
		if l < len(b.fwd) {
			fwd, rev, g.labelStats[l] = b.fwd[l], b.rev[l], b.labelStats[l]
		}
		if l >= len(m.edits) || len(m.edits[l]) == 0 {
			g.fwd[l], g.rev[l] = padRows(fwd, n), padRows(rev, n)
			continue
		}
		g.fwd[l] = mergeCSR(n, fwd, sortedEdits(m.edits[l]))
		g.rev[l].offsets, g.rev[l].targets = TransposeCSR(n, g.fwd[l].offsets, g.fwd[l].targets)
		g.labelStats[l] = computeLabelStats(n, g.fwd[l:l+1], g.rev[l:l+1])[0]
		clear(m.edits[l])
	}
	m.base = g
	return g
}

// edgeEdit is one pending edit of a label: (src, dst) becomes present or
// absent.
type edgeEdit struct {
	src, dst VID
	present  bool
}

func sortedEdits(ed map[[2]VID]bool) []edgeEdit {
	out := make([]edgeEdit, 0, len(ed))
	for k, present := range ed {
		out = append(out, edgeEdit{src: k[0], dst: k[1], present: present})
	}
	slices.SortFunc(out, func(a, b edgeEdit) int {
		if a.src != b.src {
			return int(a.src) - int(b.src)
		}
		return int(a.dst) - int(b.dst)
	})
	return out
}

// mergeCSR builds an adjacency over n rows from base's runs and edits
// sorted by (src, dst): an insert names a pair absent from base, a
// delete one present in it. Rows past base's own count start empty. The
// base is only read.
func mergeCSR(n int, base adjacency, edits []edgeEdit) adjacency {
	offsets := make([]int32, n+1)
	targets := make([]VID, 0, len(base.targets)+len(edits))
	for v := range n {
		var run []VID
		if v+1 < len(base.offsets) {
			run = base.neighbors(VID(v))
		}
		for ; len(edits) > 0 && int(edits[0].src) == v; edits = edits[1:] {
			k, _ := slices.BinarySearch(run, edits[0].dst)
			targets = append(targets, run[:k]...)
			if edits[0].present {
				targets = append(targets, edits[0].dst)
				run = run[k:]
			} else {
				run = run[k+1:]
			}
		}
		targets = append(targets, run...)
		offsets[v+1] = int32(len(targets))
	}
	return adjacency{offsets: offsets, targets: targets}
}

// padRows extends a to n rows, the added rows empty. It returns a itself
// when it already has n rows; otherwise the offsets are copied and the
// targets aliased.
func padRows(a adjacency, n int) adjacency {
	if len(a.offsets) == n+1 {
		return a
	}
	offsets := make([]int32, n+1)
	if k := copy(offsets, a.offsets); k > 0 {
		for v := k; v <= n; v++ {
			offsets[v] = a.offsets[k-1]
		}
	}
	return adjacency{offsets: offsets, targets: a.targets}
}
