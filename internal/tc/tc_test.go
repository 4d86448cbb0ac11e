package tc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
)

func digraph(n int, edges [][2]graph.VID) *graph.DiGraph {
	b := graph.NewDiBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// TestPaperExample4 reproduces Example 4: TC(G_{b·c}).
func TestPaperExample4(t *testing.T) {
	gbc := digraph(10, [][2]graph.VID{{2, 4}, {2, 6}, {3, 5}, {4, 2}, {5, 3}})
	want := pairs.FromPairs(
		pairs.Pair{Src: 2, Dst: 2}, pairs.Pair{Src: 2, Dst: 4}, pairs.Pair{Src: 2, Dst: 6},
		pairs.Pair{Src: 3, Dst: 3}, pairs.Pair{Src: 3, Dst: 5},
		pairs.Pair{Src: 4, Dst: 2}, pairs.Pair{Src: 4, Dst: 4}, pairs.Pair{Src: 4, Dst: 6},
		pairs.Pair{Src: 5, Dst: 3}, pairs.Pair{Src: 5, Dst: 5},
	)
	got := BFS(gbc)
	if !got.ToPairs().Equal(want) {
		t.Errorf("TC = %v, want %v", got.ToPairs().Sorted(), want.Sorted())
	}
	if got.NumPairs() != 10 {
		t.Errorf("NumPairs = %d, want 10", got.NumPairs())
	}
}

func TestSelfLoopSemantics(t *testing.T) {
	// (u,u) ∈ TC only via a cycle: path length ≥ 1.
	c := BFS(digraph(3, [][2]graph.VID{{0, 1}}))
	if c.Reachable(0, 0) {
		t.Error("(0,0) reachable without a cycle")
	}
	if !c.Reachable(0, 1) {
		t.Error("(0,1) missing")
	}
	if c.Reachable(1, 0) {
		t.Error("(1,0) present, edges are directed")
	}
	if !BFS(digraph(2, [][2]graph.VID{{0, 0}})).Reachable(0, 0) {
		t.Error("self-loop lost")
	}
}

func TestChain(t *testing.T) {
	c := BFS(digraph(4, [][2]graph.VID{{0, 1}, {1, 2}, {2, 3}}))
	if c.NumPairs() != 6 { // 0→{1,2,3}, 1→{2,3}, 2→{3}
		t.Errorf("NumPairs = %d, want 6", c.NumPairs())
	}
	if got := c.From(0); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("From(0) = %v", got)
	}
	if got := c.From(3); len(got) != 0 {
		t.Errorf("From(3) = %v, want empty", got)
	}
}

func TestCycleIsComplete(t *testing.T) {
	c := BFS(digraph(3, [][2]graph.VID{{0, 1}, {1, 2}, {2, 0}}))
	if c.NumPairs() != 9 {
		t.Errorf("NumPairs = %d, want 9 (complete relation on a cycle)", c.NumPairs())
	}
}

func TestEmptyGraph(t *testing.T) {
	if c := BFS(digraph(5, nil)); c.NumPairs() != 0 {
		t.Errorf("NumPairs = %d, want 0", c.NumPairs())
	}
}

func TestEachOrderAndEarlyStop(t *testing.T) {
	d := digraph(3, [][2]graph.VID{{1, 2}, {0, 1}})
	c := BFS(d)
	var got []pairs.Pair
	c.Each(func(u, w graph.VID) bool {
		got = append(got, pairs.Pair{Src: u, Dst: w})
		return true
	})
	want := []pairs.Pair{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	if len(got) != len(want) {
		t.Fatalf("Each = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each = %v, want %v", got, want)
		}
	}
	n := 0
	c.Each(func(u, w graph.VID) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestClosureEqual(t *testing.T) {
	a := BFS(digraph(3, [][2]graph.VID{{0, 1}, {1, 2}}))
	byHand := &Closure{numVertices: 3, succ: [][]graph.VID{{1, 2}, {2}, nil}, numPairs: 3}
	if !a.Equal(byHand) {
		t.Error("Equal false negative")
	}
	c := BFS(digraph(3, [][2]graph.VID{{0, 1}}))
	if a.Equal(c) {
		t.Error("Equal false positive")
	}
	if a.Equal(&Closure{numVertices: 3, succ: [][]graph.VID{{1}, {2}, {0}}, numPairs: 3}) {
		t.Error("Equal false positive on equal pair counts")
	}
}

// floydWarshall is the oracle for property tests.
func floydWarshall(d *graph.DiGraph) *pairs.Set {
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
	out := pairs.NewSet()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if reach[i][j] {
				out.Add(graph.VID(i), graph.VID(j))
			}
		}
	}
	return out
}

// Property: BFS agrees with Floyd-Warshall.
func TestAlgorithmsAgainstFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(14)
		b := graph.NewDiBuilder(n)
		for i := rng.Intn(40); i > 0; i-- {
			b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)))
		}
		d := b.Build()
		if !BFS(d).ToPairs().Equal(floydWarshall(d)) {
			t.Logf("BFS disagrees with Floyd-Warshall (n=%d)", n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: From slices are sorted and duplicate-free, and NumPairs is
// consistent with them.
func TestClosureInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		b := graph.NewDiBuilder(n)
		for i := rng.Intn(60); i > 0; i-- {
			b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)))
		}
		c := BFS(b.Build())
		total := 0
		for v := 0; v < n; v++ {
			s := c.From(graph.VID(v))
			total += len(s)
			for i := 1; i < len(s); i++ {
				if s[i] <= s[i-1] {
					return false
				}
			}
		}
		return total == c.NumPairs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
