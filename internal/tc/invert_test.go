package tc

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"rtcshare/internal/graph"
)

// Property: Inverted().From(w) lists exactly the sources whose From
// contains w, sorted; Inverted is an involution sharing the original; NumPairs is
// preserved.
func TestInvertedClosure(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		b := graph.NewDiBuilder(n)
		for i := rng.Intn(60); i > 0; i-- {
			b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)))
		}
		c := BFS(b.Build())
		inv := c.Inverted()
		if inv.NumPairs() != c.NumPairs() || inv.NumVertices() != c.NumVertices() {
			return false
		}
		if inv.Inverted() != c {
			return false // involution must return the original, not a copy
		}
		for w := 0; w < n; w++ {
			into := inv.From(graph.VID(w))
			for i := 1; i < len(into); i++ {
				if into[i] <= into[i-1] {
					return false
				}
			}
			for u := 0; u < n; u++ {
				fwd := c.Reachable(graph.VID(u), graph.VID(w))
				rev := inv.Reachable(graph.VID(w), graph.VID(u))
				if fwd != rev {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The transpose must be computed once even under concurrent first use.
func TestInvertedClosureConcurrent(t *testing.T) {
	b := graph.NewDiBuilder(50)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		b.AddEdge(graph.VID(rng.Intn(50)), graph.VID(rng.Intn(50)))
	}
	c := BFS(b.Build())

	results := make([]*Closure, 16)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.Inverted()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent Inverted calls returned distinct closures")
		}
	}
}
