package eval

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// Property: a single-label evaluator — l or ^l, the label present in the
// graph or not — reads the label's CSR, builds no product search, and
// its AppendReachFrom, AppendAll and EvaluateAll all equal the reference
// oracle on random graphs; the CSR it hands out (LabelCSR) has row v
// equal to AppendReachFrom(v), and a non-label evaluator hands out none.
func TestLabelEvaluatorMatchesReference(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		g := fixtures.RandomGraph(rng, n, rng.Intn(30), labels)
		for _, name := range []string{"a", "b", "c", "q"} {
			for _, inverse := range []bool{false, true} {
				e := rpq.Label{Name: name, Inverse: inverse}
				want := Reference(g, e)
				ev := New(g, e, Options{})
				if ev.search != nil {
					t.Logf("%s: label evaluator built a product search", e)
					return false
				}
				offsets, targets, ok := ev.LabelCSR()
				if !ok {
					t.Logf("%s: LabelCSR reports no label", e)
					return false
				}
				reach := pairs.NewSet()
				var buf []graph.VID
				for v := range n {
					buf = ev.AppendReachFrom(graph.VID(v), buf[:0])
					for _, w := range buf {
						reach.Add(graph.VID(v), w)
					}
					var row []graph.VID
					if offsets != nil {
						row = targets[offsets[v]:offsets[v+1]]
					}
					if !slices.Equal(row, buf) {
						t.Logf("seed %d %s: CSR row %d is %v, the traversal %v", seed, e, v, row, buf)
						return false
					}
				}
				b := pairs.NewBuilder(n)
				ev.AppendAll(b)
				if !reach.Equal(want) || !b.Seal().EqualSet(want) || !ev.EvaluateAll().Equal(want) {
					t.Logf("seed %d %s: label evaluator differs from the reference", seed, e)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := New(fixtures.Figure1(), rpq.MustParse("b.c"), Options{}).LabelCSR(); ok {
		t.Fatal("a concatenation's evaluator reports a label CSR")
	}
}
