package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomGraph builds n vertices with m random edges over the given
// labels, returning the graph and its edge set.
func randomGraph(t *testing.T, seed int64, n, m int, names []string) (*Graph, map[Edge]bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilderWithDict(n, NewDictFrom(names...))
	live := make(map[Edge]bool)
	for range m {
		e := Edge{Src: VID(rng.Intn(n)), Label: LID(rng.Intn(len(names))), Dst: VID(rng.Intn(n))}
		if err := b.AddEdgeLID(e.Src, e.Label, e.Dst); err != nil {
			t.Fatal(err)
		}
		live[e] = true
	}
	return b.Build(), live
}

// forwardBytes is ColumnBytes of g with no reverse built.
func forwardBytes(g *Graph) int64 {
	var n int64
	for l := range g.NumLabels() {
		offsets, targets := g.LabelCSR(LID(l), false)
		n += 4 * int64(len(offsets)+len(targets))
	}
	return n
}

// checkLazyReverse holds g's reverses to their contract: none is built
// before the first read, each read builds exactly the transpose of the
// label's forward columns and grows ColumnBytes by exactly its size,
// and reading changes no LabelStats.
func checkLazyReverse(t *testing.T, g *Graph) {
	t.Helper()
	if got, want := g.ColumnBytes(), forwardBytes(g); got != want {
		t.Fatalf("before any read ColumnBytes = %d, want the forward columns' %d", got, want)
	}
	stats := make([]LabelStats, g.NumLabels())
	for l := range stats {
		stats[l] = g.LabelStats(LID(l))
	}
	for l := range g.NumLabels() {
		before := g.ColumnBytes()
		fo, ft := g.LabelCSR(LID(l), false)
		wo, wt := TransposeCSR(g.NumVertices(), fo, ft)
		ro, rt := g.LabelCSR(LID(l), true)
		if !slices.Equal(ro, wo) || !slices.Equal(rt, wt) || len(rt) != len(wt) {
			t.Fatalf("label %q reverse = %v %v, want the transpose %v %v", g.Dict().Name(LID(l)), ro, rt, wo, wt)
		}
		if got, want := g.ColumnBytes(), before+4*int64(len(wo)+len(wt)); got != want {
			t.Fatalf("label %q: reading the reverse made ColumnBytes %d, want %d", g.Dict().Name(LID(l)), got, want)
		}
		for v := range VID(g.NumVertices()) {
			if row := g.Predecessors(v, LID(l)); !slices.Equal(row, wt[wo[v]:wo[v+1]]) {
				t.Fatalf("label %q Predecessors(%d) = %v, want %v", g.Dict().Name(LID(l)), v, row, wt[wo[v]:wo[v+1]])
			}
		}
	}
	for l := range stats {
		if got := g.LabelStats(LID(l)); got != stats[l] {
			t.Fatalf("label %q stats moved from %+v to %+v on reading the reverse", g.Dict().Name(LID(l)), stats[l], got)
		}
	}
}

// TestLazyReverseMatchesTranspose: graphs from Build, from Freeze
// (inserts, deletes, Grow, a label new since the base) and from FromFlat
// hold forward columns only until a reverse is read, and the reverse
// then read is the transpose of the forward one, with Build's
// LabelStats throughout. An untouched label whose reverse the base had
// built keeps it, padded, across a Grow.
func TestLazyReverseMatchesTranspose(t *testing.T) {
	all := []string{"a", "b", "c", "d"}
	names := all[:3]
	const n = 48

	g, live := randomGraph(t, 3, n, 300, names)
	matchesBuild(t, g, n, names, live)
	checkLazyReverse(t, g)

	g0, live := randomGraph(t, 4, n, 300, names)
	m := MutableFromGraph(g0)
	rng := rand.New(rand.NewSource(5))
	for range 40 {
		e := Edge{Src: VID(rng.Intn(n)), Label: LID(rng.Intn(2)), Dst: VID(rng.Intn(n))}
		if live[e] {
			if ok, err := m.DeleteEdge(e.Src, names[e.Label], e.Dst); !ok || err != nil {
				t.Fatalf("DeleteEdge(%+v) = %v, %v", e, ok, err)
			}
			delete(live, e)
		} else {
			if ok, err := m.InsertEdge(e.Src, names[e.Label], e.Dst); !ok || err != nil {
				t.Fatalf("InsertEdge(%+v) = %v, %v", e, ok, err)
			}
			live[e] = true
		}
	}
	m.Grow(n + 9)
	for _, e := range []Edge{{n + 8, 0, 3}, {2, 1, n + 7}, {n + 1, 3, n + 2}, {4, 3, 4}} {
		if _, err := m.InsertEdge(e.Src, all[e.Label], e.Dst); err != nil {
			t.Fatal(err)
		}
		live[e] = true
	}
	g1 := m.Freeze()
	matchesBuild(t, g1, n+9, all, live)
	checkLazyReverse(t, g1)

	// c, untouched, across a Grow: its reverse built on the base is
	// carried, padded, and not built again.
	g2, _ := randomGraph(t, 6, n, 300, names)
	co, ct := g2.LabelCSR(2, true)
	m = MutableFromGraph(g2)
	m.Grow(n + 3)
	if _, err := m.InsertEdge(0, "a", n+2); err != nil {
		t.Fatal(err)
	}
	g3 := m.Freeze()
	fo, ft := g3.LabelCSR(2, false)
	if got, want := g3.ColumnBytes(), forwardBytes(g3)+4*int64(n+4+len(ct)); got != want {
		t.Fatalf("after Grow ColumnBytes = %d, want the forward columns and c's padded reverse, %d", got, want)
	}
	ro, rt := g3.LabelCSR(2, true)
	wo, wt := TransposeCSR(n+3, fo, ft)
	if !slices.Equal(ro, wo) || !slices.Equal(rt, wt) || &rt[0] != &ct[0] || !slices.Equal(ro[:n+1], co) {
		t.Fatalf("c's carried reverse = %v %v, want the transpose %v %v over the base's targets", ro, rt, wo, wt)
	}

	g4, err := FromFlat(g.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g4, g)
	checkLazyReverse(t, g4)
}

// TestReverseBuiltOnceConcurrently: eight goroutines reading one label's
// reverse of a fresh graph at once, half through LabelCSR and half
// through Predecessors first, all get the same backing arrays, the
// transpose of the forward columns; ColumnBytes counts it once.
func TestReverseBuiltOnceConcurrently(t *testing.T) {
	const n, readers = 1 << 14, 8
	names := []string{"a", "b", "c", "d"}
	g, _ := randomGraph(t, 9, n, 1<<18, names)
	for l := range LID(len(names)) {
		fo, ft := g.LabelCSR(l, false)
		wo, wt := TransposeCSR(n, fo, ft)
		before := g.ColumnBytes()
		type seen struct {
			offsets []int32
			targets []VID
			rowsOK  bool
		}
		got := make([]seen, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Predecessors' rows must lie in the arrays LabelCSR
				// hands out.
				rows := func(o []int32, tg []VID) bool {
					for v := VID(0); v < n; v += 97 {
						row := g.Predecessors(v, l)
						if len(row) > 0 && &row[0] != &tg[o[v]] || len(row) != int(o[v+1]-o[v]) {
							return false
						}
					}
					return true
				}
				if i%2 == 1 {
					g.Predecessors(VID(i), l)
				}
				o, tg := g.LabelCSR(l, true)
				got[i] = seen{o, tg, rows(o, tg)}
			}()
		}
		close(start)
		wg.Wait()
		for i, s := range got {
			if !s.rowsOK {
				t.Fatalf("label %d reader %d: Predecessors read arrays other than LabelCSR's", l, i)
			}
			if &s.offsets[0] != &got[0].offsets[0] || &s.targets[0] != &got[0].targets[0] {
				t.Fatalf("label %d: readers 0 and %d got different reverse arrays; it was built more than once", l, i)
			}
		}
		if !slices.Equal(got[0].offsets, wo) || !slices.Equal(got[0].targets, wt) {
			t.Fatalf("label %d: the reverse is not the transpose of the forward columns", l)
		}
		if got, want := g.ColumnBytes(), before+4*int64(len(wo)+len(wt)); got != want {
			t.Fatalf("label %d: ColumnBytes %d after the reads, want %d", l, got, want)
		}
	}
}

// TestFromFlatRejectsWrongTranspose: a reverse CSR that is well formed
// and as long as the forward one but not its transpose is refused,
// since the graph rebuilds its reverse from the forward columns and a
// snapshot's bytes must be what its graph writes.
func TestFromFlatRejectsWrongTranspose(t *testing.T) {
	f := flatFixture().Flatten()
	// a: 0→1, 0→3, 1→2, 4→0. Moving 0→1's reverse entry to row 2 keeps
	// every run sorted and every count.
	f.Rev[0] = FlatCSR{Offsets: []int32{0, 1, 1, 3, 4, 4}, Targets: []VID{4, 0, 1, 0}}
	if err := ValidateCSR(f.NumVertices, f.NumVertices, f.Rev[0].Offsets, f.Rev[0].Targets, true); err != nil {
		t.Fatalf("the wrong reverse is not well formed: %v", err)
	}
	if _, err := FromFlat(f); err == nil {
		t.Fatal("FromFlat accepted a reverse that is not the transpose")
	}
}
