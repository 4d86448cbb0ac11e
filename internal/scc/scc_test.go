package scc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"rtcshare/internal/graph"
)

func digraph(n int, edges [][2]graph.VID) *graph.DiGraph {
	b := graph.NewDiBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// memberSets returns the components as a set of canonical member lists.
func memberSets(c *Components) map[string][]graph.VID {
	out := make(map[string][]graph.VID)
	for _, m := range c.Members {
		key := ""
		for _, v := range m {
			key += string(rune('A' + v))
		}
		out[key] = m
	}
	return out
}

// TestPaperExample5 reproduces Example 5: SCCs of G_{b·c} are
// {v2,v4}, {v6}, {v3,v5}, and the condensation has exactly the edges
// {s({2,4})→s({2,4}), s({2,4})→s({6}), s({3,5})→s({3,5})}.
func TestPaperExample5(t *testing.T) {
	gbc := digraph(10, [][2]graph.VID{{2, 4}, {2, 6}, {3, 5}, {4, 2}, {5, 3}})
	c := Tarjan(gbc)
	if c.NumComponents() != 3 {
		t.Fatalf("NumComponents = %d, want 3", c.NumComponents())
	}
	sets := memberSets(c)
	for _, want := range [][]graph.VID{{2, 4}, {6}, {3, 5}} {
		found := false
		for _, m := range sets {
			if reflect.DeepEqual(m, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("component %v missing; got %v", want, c.Members)
		}
	}
	// Inactive vertices are outside V_R.
	for _, v := range []graph.VID{0, 1, 7, 8, 9} {
		if c.CompOf[v] != -1 {
			t.Errorf("CompOf[%d] = %d, want -1", v, c.CompOf[v])
		}
	}

	cond := Condense(gbc, c)
	if cond.NumEdges() != 3 {
		t.Fatalf("condensation edges = %d, want 3", cond.NumEdges())
	}
	s24 := c.CompOf[2]
	s6 := c.CompOf[6]
	s35 := c.CompOf[3]
	if !cond.HasEdge(s24, s24) {
		t.Error("self-loop on {2,4} missing")
	}
	if !cond.HasEdge(s24, s6) {
		t.Error("edge {2,4}→{6} missing")
	}
	if !cond.HasEdge(s35, s35) {
		t.Error("self-loop on {3,5} missing")
	}
	if cond.HasEdge(s6, s6) {
		t.Error("{6} must have no self-loop")
	}
}

func TestSingletonWithSelfLoop(t *testing.T) {
	d := digraph(2, [][2]graph.VID{{0, 0}})
	c := Tarjan(d)
	if c.NumComponents() != 1 || len(c.Members[0]) != 1 {
		t.Fatalf("components = %v", c.Members)
	}
	cond := Condense(d, c)
	if !cond.HasEdge(0, 0) {
		t.Error("self-loop lost in condensation")
	}
}

func TestReverseTopologicalOrder(t *testing.T) {
	// A chain 0→1→2 must emit sinks first: comp(2) < comp(1) < comp(0).
	d := digraph(3, [][2]graph.VID{{0, 1}, {1, 2}})
	c := Tarjan(d)
	if !(c.CompOf[2] < c.CompOf[1] && c.CompOf[1] < c.CompOf[0]) {
		t.Fatalf("emission order not reverse topological: %v", c.CompOf)
	}
}

func TestBigCycle(t *testing.T) {
	const n = 50000 // deep recursion would overflow a recursive Tarjan
	b := graph.NewDiBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VID(i), graph.VID((i+1)%n))
	}
	c := Tarjan(b.Build())
	if c.NumComponents() != 1 {
		t.Fatalf("NumComponents = %d, want 1", c.NumComponents())
	}
	if len(c.Members[0]) != n {
		t.Fatalf("component size = %d, want %d", len(c.Members[0]), n)
	}
}

func TestLongPath(t *testing.T) {
	const n = 50000
	b := graph.NewDiBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.VID(i), graph.VID(i+1))
	}
	c := Tarjan(b.Build())
	if c.NumComponents() != n {
		t.Fatalf("NumComponents = %d, want %d", c.NumComponents(), n)
	}
}

func TestAverageSize(t *testing.T) {
	d := digraph(5, [][2]graph.VID{{0, 1}, {1, 0}, {2, 3}})
	c := Tarjan(d)
	// Components: {0,1}, {2}, {3} → avg 4/3.
	if got, want := c.AverageSize(), 4.0/3.0; got != want {
		t.Errorf("AverageSize = %v, want %v", got, want)
	}
	empty := Tarjan(digraph(3, nil))
	if empty.AverageSize() != 0 {
		t.Error("AverageSize of empty decomposition should be 0")
	}
}

// naiveSCC computes components by mutual reachability (Floyd-Warshall),
// the oracle for the property test.
func naiveSCC(d *graph.DiGraph) map[graph.VID][]graph.VID {
	n := d.NumVertices()
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	d.Edges(func(src, dst graph.VID) bool {
		reach[src][dst] = true
		return true
	})
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	out := make(map[graph.VID][]graph.VID)
	for _, v := range d.ActiveVertices() {
		var members []graph.VID
		for _, w := range d.ActiveVertices() {
			if v == w || (reach[v][w] && reach[w][v]) {
				members = append(members, w)
			}
		}
		out[v] = members
	}
	return out
}

// Property: Tarjan agrees with the mutual-reachability definition.
func TestTarjanAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := graph.NewDiBuilder(n)
		for i := rng.Intn(30); i > 0; i-- {
			b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)))
		}
		d := b.Build()
		c := Tarjan(d)
		want := naiveSCC(d)
		for _, v := range d.ActiveVertices() {
			sid := c.CompOf[v]
			if sid < 0 {
				return false
			}
			if !reflect.DeepEqual(c.Members[sid], want[v]) {
				t.Logf("v=%d got %v want %v", v, c.Members[sid], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// condenseOracle is the condensation built the obvious way: every edge
// of d mapped through CompOf into a DiBuilder, which sorts and dedups.
func condenseOracle(d *graph.DiGraph, c *Components) *graph.DiGraph {
	b := graph.NewDiBuilder(c.NumComponents())
	d.Edges(func(src, dst graph.VID) bool {
		b.AddEdge(c.CompOf[src], c.CompOf[dst])
		return true
	})
	return b.Build()
}

// sameDiGraph compares two digraphs adjacency by adjacency, both
// directions, plus the active vertex list.
func sameDiGraph(a, b *graph.DiGraph) bool {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() ||
		!slices.Equal(a.ActiveVertices(), b.ActiveVertices()) {
		return false
	}
	for v := graph.VID(0); int(v) < a.NumVertices(); v++ {
		if !slices.Equal(a.Successors(v), b.Successors(v)) || !slices.Equal(a.Predecessors(v), b.Predecessors(v)) {
			return false
		}
	}
	return true
}

// Property: Condense's stamp walk produces exactly the DiBuilder
// condensation — self-loops, multi-edges between two components
// collapsed, and components with no condensation edge at all — on random
// graphs from edgeless to dense.
func TestCondenseMatchesBuilderOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		b := graph.NewDiBuilder(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)))
		}
		d := b.Build()
		c := Tarjan(d)
		if !sameDiGraph(Condense(d, c), condenseOracle(d, c)) {
			t.Logf("seed %d: condensation differs from the DiBuilder oracle", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the condensation is a DAG apart from self-loops.
func TestCondensationAcyclic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		b := graph.NewDiBuilder(n)
		for i := rng.Intn(40); i > 0; i-- {
			b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)))
		}
		d := b.Build()
		c := Tarjan(d)
		cond := Condense(d, c)
		// Reverse topological emission: every non-self edge goes from a
		// higher SID to a lower SID.
		ok := true
		cond.Edges(func(src, dst graph.VID) bool {
			if src != dst && src < dst {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
