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
// edits made since — only the pairs whose presence differs from the
// base. Freeze rebuilds only the labels with edits, splicing them into
// copies of the base's forward columns; every other label aliases the
// base's columns and shares its reverse. That is safe because frozen
// columns are never written.
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
// if the same edge list had been fed to a Builder — identical forward
// CSR layout, identical LabelStats and the same reverse once read. A
// label with edits gets its forward columns from spliceCSR, which
// block-copies the base's columns between the sorted edits, its
// statistics from one scan of the new columns, and a reverse not yet
// built: O(|V| + |E_l|) of copying plus O(|Δ| log |Δ|) to sort the
// edits, with no transpose. Every other label keeps the base's columns
// and its reverse, built or not, padding only the offsets after Grow.
// With nothing changed, Freeze returns the base itself.
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
		rev:         make([]*reverse, numLabels),
		labelStats:  make([]LabelStats, numLabels),
	}
	var keys []uint64
	var in []int32
	for l := range numLabels {
		var fwd adjacency
		var rev *reverse
		if l < len(b.fwd) {
			fwd, rev, g.labelStats[l] = b.fwd[l], b.rev[l], b.labelStats[l]
		}
		if l >= len(m.edits) || len(m.edits[l]) == 0 {
			g.fwd[l] = padRows(fwd, n)
			g.rev[l] = rev.carry(g.fwd[l])
			continue
		}
		// Each edit is packed as src<<32 | dst and sorted once.
		keys = slices.Grow(keys[:0], len(m.edits[l]))
		size := len(fwd.targets)
		for k, present := range m.edits[l] {
			keys = append(keys, uint64(k[0])<<32|uint64(k[1]))
			if present {
				size++
			} else {
				size--
			}
		}
		slices.Sort(keys)
		g.fwd[l] = spliceCSR(n, fwd, keys, size)
		g.rev[l] = &reverse{fwd: g.fwd[l]}
		if in == nil {
			in = make([]int32, n)
		}
		g.labelStats[l] = computeLabelStats(g.fwd[l], in)
		clear(m.edits[l])
	}
	m.base = g
	return g
}

// carry returns the reverse of a label Freeze leaves untouched, whose
// forward columns fwd are r's own, padded to more rows after Grow: r
// itself when fwd has r's rows, otherwise a new reverse over fwd that
// starts from r's padded when r was built. A nil r, a label new since
// the base, gives a reverse not yet built.
func (r *reverse) carry(fwd adjacency) *reverse {
	if r != nil && len(r.fwd.offsets) == len(fwd.offsets) {
		return r
	}
	next := &reverse{fwd: fwd}
	if r != nil {
		if a := r.adj.Load(); a != nil {
			padded := padRows(*a, len(fwd.offsets)-1)
			next.once.Do(func() { next.adj.Store(&padded) })
		}
	}
	return next
}

// spliceCSR returns base's adjacency over n rows with edits applied.
// Each edit is packed as row<<32 | target, and edits are sorted
// ascending. Because a Mutable records only differences from its base,
// an edit whose target is in the row's base run deletes it and any
// other edit inserts it; size is the edge count after the edits. The
// base's targets are block-copied between edit positions and its
// offsets shifted by the running edit count. Rows past base's own count
// start empty, and a label new since the base has no columns at all.
// The base is only read.
func spliceCSR(n int, base adjacency, edits []uint64, size int) adjacency {
	bo, bt := base.offsets, base.targets
	offsets := make([]int32, n+1)
	targets := make([]VID, size)
	end := int32(len(bt))
	read, write, next, shift := 0, 0, 0, int32(0)
	for _, e := range edits {
		row, dst := int(e>>32), VID(uint32(e))
		next = shiftOffsets(offsets, bo, end, next, row+1, shift)
		lo, hi := len(bt), len(bt)
		if row+1 < len(bo) {
			lo, hi = max(read, int(bo[row])), int(bo[row+1])
		}
		k, found := slices.BinarySearch(bt[lo:hi], dst)
		write += copy(targets[write:], bt[read:lo+k])
		if found {
			read, shift = lo+k+1, shift-1
		} else {
			targets[write] = dst
			read, write, shift = lo+k, write+1, shift+1
		}
	}
	shiftOffsets(offsets, bo, end, next, n+1, shift)
	copy(targets[write:], bt[read:])
	return adjacency{offsets: offsets, targets: targets}
}

// shiftOffsets sets dst[from:to] to the base offsets bo shifted by
// shift, rows past bo's end reading end, and returns to. An unshifted
// span is one copy.
func shiftOffsets(dst, bo []int32, end int32, from, to int, shift int32) int {
	if m := min(to, len(bo)); from < m {
		src := bo[from:m]
		if out := dst[from:m][:len(src)]; shift == 0 {
			copy(out, src)
		} else {
			for i, o := range src {
				out[i] = o + shift
			}
		}
		from = m
	}
	for v := from; v < to; v++ {
		dst[v] = end + shift
	}
	return to
}

// padRows extends a to n rows, the added rows empty. It returns a itself
// when it already has n rows; otherwise the offsets are copied and the
// targets aliased.
func padRows(a adjacency, n int) adjacency {
	if len(a.offsets) == n+1 {
		return a
	}
	offsets := make([]int32, n+1)
	shiftOffsets(offsets, a.offsets, int32(len(a.targets)), 0, n+1, 0)
	return adjacency{offsets: offsets, targets: a.targets}
}
