package graph

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// graphsEqual compares two frozen graphs structurally: vertex space,
// dictionary, edge sets and Build-time label statistics.
func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("vertices: got %d, want %d", got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("edges: got %d, want %d", got.NumEdges(), want.NumEdges())
	}
	if gl, wl := got.Dict().Len(), want.Dict().Len(); gl != wl {
		t.Fatalf("labels: got %d, want %d", gl, wl)
	}
	for l := LID(0); int(l) < want.Dict().Len(); l++ {
		if gn, wn := got.Dict().Name(l), want.Dict().Name(l); gn != wn {
			t.Fatalf("label %d: got %q, want %q", l, gn, wn)
		}
		if gs, ws := got.LabelStats(l), want.LabelStats(l); gs != ws {
			t.Fatalf("label %q stats: got %+v, want %+v", want.Dict().Name(l), gs, ws)
		}
	}
	want.Edges(func(e Edge) bool {
		if !got.HasEdge(e.Src, e.Label, e.Dst) {
			t.Fatalf("missing edge %+v", e)
		}
		return true
	})
}

// matchesBuild holds g to Builder.Build over edges in an n-vertex space
// with the given label names: graphsEqual plus every label's forward and
// reverse columns, byte for byte and lengths included, so a frozen graph
// whose columns were written after the fact, mis-sized or left with a
// stale tail fails.
func matchesBuild(t *testing.T, g *Graph, n int, names []string, edges map[Edge]bool) {
	t.Helper()
	b := NewBuilderWithDict(n, NewDictFrom(names...))
	for e := range edges {
		if err := b.AddEdgeLID(e.Src, e.Label, e.Dst); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Build()
	graphsEqual(t, g, want)
	same := func(a, b FlatCSR) bool {
		return slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Targets, b.Targets)
	}
	gf, wf := g.Flatten(), want.Flatten()
	for l := range wf.Labels {
		if !same(gf.Fwd[l], wf.Fwd[l]) || !same(gf.Rev[l], wf.Rev[l]) {
			t.Fatalf("label %q columns differ from Build:\n got fwd %v rev %v\nwant fwd %v rev %v",
				names[l], gf.Fwd[l], gf.Rev[l], wf.Fwd[l], wf.Rev[l])
		}
	}
}

// cloneFlat deep-copies a graph's columns, so a later check can tell
// whether anything wrote them.
func cloneFlat(g *Graph) *FlatGraph {
	f := g.Flatten()
	for l := range f.Labels {
		f.Fwd[l] = FlatCSR{Offsets: slices.Clone(f.Fwd[l].Offsets), Targets: slices.Clone(f.Fwd[l].Targets)}
		f.Rev[l] = FlatCSR{Offsets: slices.Clone(f.Rev[l].Offsets), Targets: slices.Clone(f.Rev[l].Targets)}
	}
	return f
}

// updateOp is one Mutable update of a splice case: insert 'i' or delete
// 'd' the edge (src, label, dst), or 'g' grow the vertex space to src.
type updateOp struct {
	kind  byte
	src   VID
	label string
	dst   VID
}

// spliceCases are the boundaries of Freeze's splice: a base edge set
// over eight vertices, then one batch on top of it. FuzzApplyUpdates
// seeds its corpus with the same cases.
var spliceCases = []struct {
	name  string
	base  []updateOp
	batch []updateOp
}{
	{"row 0",
		[]updateOp{{'i', 0, "a", 1}, {'i', 0, "a", 3}, {'i', 1, "a", 0}, {'i', 5, "a", 7}},
		[]updateOp{{'i', 0, "a", 0}, {'d', 1, "a", 0}}},
	{"last row",
		[]updateOp{{'i', 0, "a", 7}, {'i', 6, "a", 7}, {'i', 7, "a", 1}},
		[]updateOp{{'i', 7, "a", 7}, {'d', 6, "a", 7}}},
	{"delete empties a row",
		[]updateOp{{'i', 2, "a", 4}, {'i', 3, "a", 5}},
		[]updateOp{{'d', 2, "a", 4}}},
	{"insert into an empty row",
		[]updateOp{{'i', 1, "a", 2}, {'i', 5, "a", 6}},
		[]updateOp{{'i', 3, "a", 4}}},
	{"one row: before, between, after",
		[]updateOp{{'i', 4, "a", 2}, {'i', 4, "a", 4}, {'i', 4, "a", 6}, {'i', 3, "a", 4}},
		[]updateOp{{'i', 4, "a", 1}, {'d', 4, "a", 2}, {'i', 4, "a", 3}, {'d', 4, "a", 6}, {'i', 4, "a", 7}}},
	{"row past the base after Grow",
		[]updateOp{{'i', 0, "a", 1}, {'i', 7, "a", 7}},
		[]updateOp{{'g', 12, "", 0}, {'i', 10, "a", 3}, {'i', 11, "a", 11}, {'i', 2, "a", 9}}},
	{"first edge of a new label",
		[]updateOp{{'i', 0, "a", 1}},
		[]updateOp{{'i', 3, "b", 2}}},
	{"delete every edge of a label",
		[]updateOp{{'i', 0, "a", 1}, {'i', 2, "a", 3}, {'i', 0, "b", 2}},
		[]updateOp{{'d', 0, "a", 1}, {'d', 2, "a", 3}}},
}

// applyOps runs ops against m, keeping live in step with it.
func applyOps(t *testing.T, m *Mutable, live map[Edge]bool, ops []updateOp) {
	t.Helper()
	for _, op := range ops {
		var err error
		switch op.kind {
		case 'i':
			_, err = m.InsertEdge(op.src, op.label, op.dst)
			live[Edge{Src: op.src, Label: m.Dict().Intern(op.label), Dst: op.dst}] = true
		case 'd':
			_, err = m.DeleteEdge(op.src, op.label, op.dst)
			if l, ok := m.Dict().Lookup(op.label); ok {
				delete(live, Edge{Src: op.src, Label: l, Dst: op.dst})
			}
		case 'g':
			m.Grow(int(op.src))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMutableFreezeSpliceEdges freezes each splice case's batch over a
// Build-made base: the frozen graph matches Build byte for byte, and the
// base's columns are exactly what they were.
func TestMutableFreezeSpliceEdges(t *testing.T) {
	for _, tc := range spliceCases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(8)
			for _, op := range tc.base {
				b.MustAddEdge(op.src, op.label, op.dst)
			}
			g0 := b.Build()
			before := cloneFlat(g0)
			m := MutableFromGraph(g0)
			// Replaying the base's inserts changes nothing in m; it
			// fills live.
			live := make(map[Edge]bool)
			applyOps(t, m, live, tc.base)
			applyOps(t, m, live, tc.batch)
			g1 := m.Freeze()
			if g1 == g0 {
				t.Fatal("batch froze to the base itself")
			}
			matchesBuild(t, g1, m.NumVertices(), m.Dict().Names(), live)
			if after := g0.Flatten(); !reflect.DeepEqual(after, before) {
				t.Fatalf("freeze wrote the base's columns:\n%+v\nwant %+v", after, before)
			}
		})
	}
}

// TestMutableFreezeAliasesUntouched: a batch touching only label a
// rebuilds a and aliases every other label's columns, and the earlier
// frozen graphs keep their contents while later batches (including a
// Grow) splice new columns out of the ones they share.
func TestMutableFreezeAliasesUntouched(t *testing.T) {
	n := 32
	names := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(7))
	live := make(map[Edge]bool)
	b := NewBuilderWithDict(n, NewDictFrom(names...))
	for i := 0; i < 200; i++ {
		e := Edge{Src: VID(rng.Intn(n)), Label: LID(rng.Intn(len(names))), Dst: VID(rng.Intn(n))}
		if err := b.AddEdgeLID(e.Src, e.Label, e.Dst); err != nil {
			t.Fatal(err)
		}
		live[e] = true
	}
	m := MutableFromGraph(b.Build())
	g0 := m.Freeze()

	// batch toggles k random edges of the given labels.
	batch := func(k int, labels ...LID) {
		for i := 0; i < k; i++ {
			e := Edge{Src: VID(rng.Intn(n)), Label: labels[rng.Intn(len(labels))], Dst: VID(rng.Intn(n))}
			var err error
			if live[e] {
				_, err = m.DeleteEdge(e.Src, names[e.Label], e.Dst)
				delete(live, e)
			} else {
				_, err = m.InsertEdge(e.Src, names[e.Label], e.Dst)
				live[e] = true
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot := func() map[Edge]bool { return maps.Clone(live) }

	want0 := snapshot()
	batch(8, 0)
	g1, want1 := m.Freeze(), snapshot()
	if m.Freeze() != g1 {
		t.Fatal("Freeze with nothing changed built a new graph")
	}
	shares := func(x, y []int32) bool { return len(x) > 0 && &x[0] == &y[0] }
	f0, f1 := g0.Flatten(), g1.Flatten()
	for l := range names {
		r0Offsets, r0Targets := g0.LabelCSR(LID(l), true)
		r1Offsets, r1Targets := g1.LabelCSR(LID(l), true)
		aliased := shares(f0.Fwd[l].Offsets, f1.Fwd[l].Offsets) && shares(f0.Fwd[l].Targets, f1.Fwd[l].Targets) &&
			shares(r0Offsets, r1Offsets) && shares(r0Targets, r1Targets)
		if touched := l == 0; aliased == touched {
			t.Fatalf("label %q: aliased=%v after a batch touching only a", names[l], aliased)
		}
	}

	batch(8, 0, 1, 2)
	g2, want2 := m.Freeze(), snapshot()
	m.Grow(n + 5)
	n += 5
	batch(8, 0, 1, 2)
	g3 := m.Freeze()
	matchesBuild(t, g0, 32, names, want0)
	matchesBuild(t, g1, 32, names, want1)
	matchesBuild(t, g2, 32, names, want2)
	matchesBuild(t, g3, n, names, live)
}

func TestMutableInsertDelete(t *testing.T) {
	m := NewMutable(4)
	added, err := m.InsertEdge(0, "a", 1)
	if err != nil || !added {
		t.Fatalf("insert: added=%v err=%v", added, err)
	}
	if added, _ := m.InsertEdge(0, "a", 1); added {
		t.Fatal("duplicate insert reported added")
	}
	if !m.HasEdge(0, "a", 1) {
		t.Fatal("HasEdge after insert")
	}
	if m.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", m.NumEdges())
	}
	if removed, _ := m.DeleteEdge(0, "a", 1); !removed {
		t.Fatal("delete existing reported absent")
	}
	if removed, _ := m.DeleteEdge(0, "a", 1); removed {
		t.Fatal("double delete reported removed")
	}
	if removed, _ := m.DeleteEdge(0, "nope", 1); removed {
		t.Fatal("unknown-label delete reported removed")
	}
	if m.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", m.NumEdges())
	}
	if _, err := m.InsertEdge(0, "a", 9); err == nil {
		t.Fatal("out-of-range insert did not error")
	}
	if _, err := m.DeleteEdge(-1, "a", 0); err == nil {
		t.Fatal("out-of-range delete did not error")
	}
}

func TestMutableGrow(t *testing.T) {
	m := NewMutable(2)
	if _, err := m.InsertEdge(0, "a", 3); err == nil {
		t.Fatal("insert beyond space did not error")
	}
	m.Grow(4)
	if _, err := m.InsertEdge(0, "a", 3); err != nil {
		t.Fatalf("insert after Grow: %v", err)
	}
	m.Grow(1) // shrink is a no-op
	if m.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", m.NumVertices())
	}
}

// TestMutableFreezeMatchesBuild drives a random insert/delete sequence
// and checks after several prefixes that Freeze is indistinguishable
// from Builder.Build over the surviving edges — the update-oracle
// equivalence at the graph layer.
func TestMutableFreezeMatchesBuild(t *testing.T) {
	const n = 24
	labels := []string{"a", "b", "c"}
	rng := rand.New(rand.NewSource(11))
	m := NewMutable(n)
	live := make(map[Edge]bool)

	check := func() {
		t.Helper()
		b := NewBuilderWithDict(n, NewDictFrom(m.Dict().Names()...))
		for e := range live {
			if err := b.AddEdgeLID(e.Src, e.Label, e.Dst); err != nil {
				t.Fatal(err)
			}
		}
		graphsEqual(t, m.Freeze(), b.Build())
	}

	for step := 0; step < 600; step++ {
		src, dst := VID(rng.Intn(n)), VID(rng.Intn(n))
		label := labels[rng.Intn(len(labels))]
		lid := m.Dict().Intern(label)
		e := Edge{Src: src, Label: lid, Dst: dst}
		if rng.Intn(3) == 0 {
			removed, err := m.DeleteEdge(src, label, dst)
			if err != nil {
				t.Fatal(err)
			}
			if removed != live[e] {
				t.Fatalf("step %d: delete %v removed=%v, oracle %v", step, e, removed, live[e])
			}
			delete(live, e)
		} else {
			added, err := m.InsertEdge(src, label, dst)
			if err != nil {
				t.Fatal(err)
			}
			if added == live[e] {
				t.Fatalf("step %d: insert %v added=%v, oracle had=%v", step, e, added, live[e])
			}
			live[e] = true
		}
		if step%97 == 0 {
			check()
		}
	}
	check()

	// Live stats must agree with the frozen graph's Build-time stats.
	frozen := m.Freeze()
	for l := LID(0); int(l) < m.Dict().Len(); l++ {
		if got, want := m.LabelStats(l), frozen.LabelStats(l); got != want {
			t.Fatalf("label %d live stats %+v, frozen %+v", l, got, want)
		}
	}
}

func TestMutableFromGraphRoundTrip(t *testing.T) {
	b := NewBuilder(5)
	b.MustAddEdge(0, "a", 1)
	b.MustAddEdge(1, "b", 2)
	b.MustAddEdge(2, "a", 0)
	b.MustAddEdge(4, "c", 4)
	g := b.Build()

	m := MutableFromGraph(g)
	graphsEqual(t, m.Freeze(), g)

	// The cloned dict keeps the source graph insulated from later interns.
	if _, err := m.InsertEdge(3, "fresh", 4); err != nil {
		t.Fatal(err)
	}
	if g.Dict().Len() != 3 {
		t.Fatalf("source dict grew to %d labels", g.Dict().Len())
	}
	if m.Dict().Len() != 4 {
		t.Fatalf("mutable dict has %d labels, want 4", m.Dict().Len())
	}
}
