package graph

import (
	"reflect"
	"testing"
)

func flatFixture() *Graph {
	b := NewBuilder(5)
	b.AddEdge(0, "a", 1)
	b.AddEdge(0, "a", 3)
	b.AddEdge(1, "a", 2)
	b.AddEdge(2, "b", 0)
	b.AddEdge(3, "b", 4)
	b.AddEdge(4, "a", 0)
	return b.Build()
}

func TestFlattenFromFlatRoundTrip(t *testing.T) {
	g := flatFixture()
	got, err := FromFlat(g.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d vertices, %d/%d edges",
			got.NumVertices(), g.NumVertices(), got.NumEdges(), g.NumEdges())
	}
	for _, name := range g.Dict().Names() {
		lid, ok := got.Dict().Lookup(name)
		if !ok {
			t.Fatalf("label %q lost", name)
		}
		wantLID, _ := g.Dict().Lookup(name)
		if got.LabelEdgeCount(lid) != g.LabelEdgeCount(wantLID) {
			t.Errorf("label %q: %d edges, want %d", name, got.LabelEdgeCount(lid), g.LabelEdgeCount(wantLID))
		}
		for v := VID(0); int(v) < g.NumVertices(); v++ {
			if !reflect.DeepEqual(got.Successors(v, lid), g.Successors(v, wantLID)) {
				t.Errorf("label %q successors of %d differ", name, v)
			}
			if !reflect.DeepEqual(got.Predecessors(v, lid), g.Predecessors(v, wantLID)) {
				t.Errorf("label %q predecessors of %d differ", name, v)
			}
		}
	}
	// LabelStats are recomputed, not copied.
	if !reflect.DeepEqual(got.Stats().String(), g.Stats().String()) {
		t.Errorf("stats differ: %v vs %v", got.Stats(), g.Stats())
	}
}

func TestFromFlatRejectsMalformedColumns(t *testing.T) {
	fresh := func() *FlatGraph { return flatFixture().Flatten() }
	cases := []struct {
		name string
		mut  func(f *FlatGraph)
	}{
		{"negative vertex count", func(f *FlatGraph) { f.NumVertices = -1 }},
		{"label/adjacency count mismatch", func(f *FlatGraph) { f.Fwd = f.Fwd[:1] }},
		{"repeated label", func(f *FlatGraph) { f.Labels[1] = f.Labels[0] }},
		{"bad forward offsets", func(f *FlatGraph) {
			f.Fwd[0].Offsets = append([]int32(nil), f.Fwd[0].Offsets...)
			f.Fwd[0].Offsets[1] = -3
		}},
		{"bad reverse offsets", func(f *FlatGraph) {
			f.Rev[0].Offsets = f.Rev[0].Offsets[:1]
		}},
		{"forward/reverse edge count mismatch", func(f *FlatGraph) {
			f.Rev[0].Offsets = make([]int32, f.NumVertices+1)
			f.Rev[0].Targets = nil
		}},
	}
	for _, c := range cases {
		f := fresh()
		c.mut(f)
		if _, err := FromFlat(f); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateCSR(t *testing.T) {
	ok := func(numRows, bound int, offsets []int32, targets []VID, strict bool) error {
		t.Helper()
		return ValidateCSR(numRows, bound, offsets, targets, strict)
	}
	if err := ok(3, 3, []int32{0, 2, 2, 3}, []VID{0, 2, 1}, true); err != nil {
		t.Fatalf("valid CSR rejected: %v", err)
	}
	if err := ok(0, 0, []int32{0}, nil, true); err != nil {
		t.Fatalf("empty CSR rejected: %v", err)
	}
	bad := []struct {
		name    string
		numRows int
		bound   int
		offsets []int32
		targets []VID
		strict  bool
	}{
		{"negative rows", -1, 3, []int32{0}, nil, false},
		{"wrong offset count", 2, 3, []int32{0, 1}, []VID{0}, false},
		{"nonzero first offset", 2, 3, []int32{1, 1, 1}, []VID{0}, false},
		{"decreasing offsets", 2, 3, []int32{0, 2, 1}, []VID{0}, false},
		{"dangling offsets", 2, 3, []int32{0, 1, 2}, []VID{0}, false},
		{"target out of range", 1, 2, []int32{0, 1}, []VID{5}, false},
		{"negative target", 1, 2, []int32{0, 1}, []VID{-1}, false},
		{"duplicate in run", 1, 3, []int32{0, 2}, []VID{1, 1}, true},
		{"unsorted run", 1, 3, []int32{0, 2}, []VID{2, 0}, true},
	}
	for _, c := range bad {
		if err := ok(c.numRows, c.bound, c.offsets, c.targets, c.strict); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Non-strict mode tolerates duplicate runs (multigraph-ish CSR).
	if err := ok(1, 3, []int32{0, 2}, []VID{1, 1}, false); err != nil {
		t.Errorf("non-strict duplicate run rejected: %v", err)
	}
}

func TestDiGraphCSRRoundTrip(t *testing.T) {
	b := NewDiBuilderCap(4, 4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 1) // duplicate, deduped by Build
	if b.NumPending() != 4 {
		t.Fatalf("NumPending = %d, want 4", b.NumPending())
	}
	d := b.Build()
	offsets, targets := d.CSR()
	if err := ValidateCSR(d.NumVertices(), d.NumVertices(), offsets, targets, true); err != nil {
		t.Fatalf("CSR() emitted invalid columns: %v", err)
	}
	rt := DiGraphFromCSR(4, offsets, targets)
	if rt.NumVertices() != d.NumVertices() || rt.NumEdges() != d.NumEdges() || rt.NumActive() != d.NumActive() {
		t.Fatalf("round trip: %+v vs %+v", rt, d)
	}
	for v := VID(0); v < 4; v++ {
		if !reflect.DeepEqual(rt.Successors(v), d.Successors(v)) {
			t.Errorf("successors of %d differ", v)
		}
		if !reflect.DeepEqual(rt.Predecessors(v), d.Predecessors(v)) {
			t.Errorf("predecessors of %d differ", v)
		}
	}

	// TransposeCSR agrees with the round-tripped reverse adjacency.
	tOff, tTgt := TransposeCSR(4, offsets, targets)
	if err := ValidateCSR(4, 4, tOff, tTgt, true); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	for v := VID(0); v < 4; v++ {
		if got := tTgt[tOff[v]:tOff[v+1]]; !reflect.DeepEqual([]VID(got), d.Predecessors(v)) &&
			!(len(got) == 0 && len(d.Predecessors(v)) == 0) {
			t.Errorf("transpose row %d = %v, want %v", v, got, d.Predecessors(v))
		}
	}
}

// TestSmallAccessors sweeps the trivial read accessors the larger tests
// happen not to touch.
func TestSmallAccessors(t *testing.T) {
	g := flatFixture()
	a, _ := g.Dict().Lookup("a")
	if got := g.OutDegree(0, a); got != 2 {
		t.Errorf("OutDegree(0,a) = %d, want 2", got)
	}
	if got := g.OutDegree(0, LID(99)); got != 0 {
		t.Errorf("OutDegree of unknown label = %d, want 0", got)
	}
	b := NewBuilder(3)
	if b.NumVertices() != 3 {
		t.Errorf("Builder.NumVertices = %d, want 3", b.NumVertices())
	}

	m := MutableFromGraph(g)
	var edges []Edge
	m.Freeze().Edges(func(e Edge) bool {
		edges = append(edges, e)
		return len(edges) < 4 // exercise the early stop
	})
	if len(edges) != 4 {
		t.Fatalf("Edges visited %d edges, want 4 (early stop)", len(edges))
	}
	total := 0
	m.Freeze().Edges(func(Edge) bool { total++; return true })
	if total != g.NumEdges() {
		t.Errorf("Edges visited %d edges, want %d", total, g.NumEdges())
	}
}
