package graph

import (
	"maps"
	"math/rand"
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
// with the given label names: graphsEqual plus every forward and reverse
// run, so a frozen graph whose columns were written after the fact
// fails.
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
	for l := LID(0); int(l) < want.NumLabels(); l++ {
		for v := VID(0); int(v) < n; v++ {
			if !slices.Equal(g.Successors(v, l), want.Successors(v, l)) ||
				!slices.Equal(g.Predecessors(v, l), want.Predecessors(v, l)) {
				t.Fatalf("label %q vertex %d: runs differ from Build", names[l], v)
			}
		}
	}
}

// TestMutableFreezeAliasesUntouched: a batch touching only label a
// rebuilds a and aliases every other label's columns, and the earlier
// frozen graphs keep their contents while later batches (including a
// Grow) merge into columns they share.
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
		aliased := shares(f0.Fwd[l].Offsets, f1.Fwd[l].Offsets) && shares(f0.Fwd[l].Targets, f1.Fwd[l].Targets) &&
			shares(f0.Rev[l].Offsets, f1.Rev[l].Offsets) && shares(f0.Rev[l].Targets, f1.Rev[l].Targets)
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
