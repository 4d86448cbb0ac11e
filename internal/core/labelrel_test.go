package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
)

// labelRelGraph is a random graph over labels a, b and c, whose dict
// also holds z with no edges.
func labelRelGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	labels := []string{"a", "b", "c", "z"}
	for _, l := range labels {
		b.Dict().Intern(l)
	}
	for range m {
		b.MustAddEdge(graph.VID(rng.Intn(n)), labels[rng.Intn(3)], graph.VID(rng.Intn(n)))
	}
	return b.Build()
}

// sameArray reports whether two slices start at the same element, or
// are both empty.
func sameArray[T any](x, y []T) bool {
	if len(x) == 0 || len(y) == 0 {
		return len(x) == len(y)
	}
	return &x[0] == &y[0]
}

// labelCSROf resolves a single-label expression to its CSR in g.
func labelCSROf(g *graph.Graph, l rpq.Label) ([]int32, []graph.VID) {
	lid, ok := g.Dict().Lookup(l.Name)
	if !ok {
		return nil, nil
	}
	return g.LabelCSR(lid, l.Inverse)
}

// TestLabelRelationAliasesGraph: a single-label query — forward,
// inverse, a label absent from the dict, a dict label with no edges —
// is answered from the graph's own CSR under every strategy, before and
// after an update that touches one label and leaves another alone. Its
// result equals the reference oracle, its CSR shares the graph's backing
// arrays, and every reader of the borrowed columns — Page, the
// transpose, a stream drain and the edge-level reduction — leaves the
// graph's columns byte-identical.
func TestLabelRelationAliasesGraph(t *testing.T) {
	queries := []string{"a", "^a", "b", "^b", "z", "^z", "q", "^q"}
	for _, strategy := range strategies() {
		e := New(labelRelGraph(7, 40, 160), Options{Strategy: strategy})
		for round := range 2 {
			if round == 1 {
				// Touch a; leave b, c and z alone.
				if _, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(0, "a", 39), InsertEdge(39, "a", 0), InsertEdge(5, "a", 5)}); err != nil {
					t.Fatal(err)
				}
			}
			g := e.Graph()
			n := g.NumVertices()
			for _, qs := range queries {
				q := rpq.MustParse(qs)
				l := q.(rpq.Label)
				offsets, targets := labelCSROf(g, l)
				wantOffsets, wantTargets := slices.Clone(offsets), slices.Clone(targets)

				rel, err := e.EvaluateRel(q)
				if err != nil {
					t.Fatalf("%v round %d %s: %v", strategy, round, qs, err)
				}
				if want := eval.Reference(g, q); !rel.EqualSet(want) {
					t.Fatalf("%v round %d %s: %d pairs, reference %d", strategy, round, qs, rel.Len(), want.Len())
				}
				relOffsets, relDsts := rel.CSR()
				if offsets != nil && (!sameArray(relOffsets, offsets) || !sameArray(relDsts, targets)) {
					t.Errorf("%v round %d %s: relation does not alias the graph's CSR", strategy, round, qs)
				}
				if offsets == nil && rel.Len() != 0 {
					t.Errorf("%v round %d %s: absent label answered %d pairs", strategy, round, qs, rel.Len())
				}

				// Every reader of the borrowed columns.
				rel.Page(3, 7)
				for w := range n {
					rel.SrcsOf(graph.VID(w))
				}
				s, err := e.OpenStream(context.Background(), q, StreamOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if got := drainStream(t, s, 5); !pairsEqual(got, rel.Sorted()) {
					t.Errorf("%v round %d %s: stream drained %d pairs, relation has %d", strategy, round, qs, len(got), rel.Len())
				}
				rtc.EdgeReduceRel(n, rel)
				if !slices.Equal(offsets, wantOffsets) || !slices.Equal(targets, wantTargets) {
					t.Fatalf("%v round %d %s: the graph's label columns changed under the relation's readers", strategy, round, qs)
				}
			}
		}
	}
}
