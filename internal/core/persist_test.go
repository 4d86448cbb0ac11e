package core

import (
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// TestNewAtEpoch pins the boot path a snapshot takes: an engine started
// at epoch 7 answers like one started at 0, reports epoch 7, advances
// from there, and builds its structures on demand without cross-epoch
// reuse.
func TestNewAtEpoch(t *testing.T) {
	g := fixtures.Figure1()
	want := New(g, Options{})
	e := NewAtEpoch(g, 7, Options{})
	if e.Epoch() != 7 {
		t.Fatalf("Epoch() = %d, want 7", e.Epoch())
	}
	if got, epoch := e.GraphEpoch(); got != g || epoch != 7 {
		t.Fatalf("GraphEpoch() = (%p, %d), want (%p, 7)", got, epoch, g)
	}
	for _, q := range []string{"b.c", "d.(b.c)+.c", "(b.c)*"} {
		w, err := want.EvaluateRel(rpq.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.EvaluateRel(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !got.Equal(w) {
			t.Errorf("%s: answers differ from an engine started at epoch 0", q)
		}
	}
	res, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(0, "b", 9)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 8 || e.Epoch() != 8 {
		t.Fatalf("update reached epoch %d (engine %d), want 8", res.Epoch, e.Epoch())
	}
	if _, err := e.EvaluateRel(rpq.MustParse("d.(b.c)+.c")); err != nil {
		t.Fatal(err)
	}
	if c := e.Cache().Counters(); c.Misses == 0 || c.CrossEpochHits != 0 {
		t.Fatalf("cache counters %+v: want on-demand builds and no cross-epoch hits", c)
	}
}

// TestGraphEpochConsistentUnderUpdates: GraphEpoch reads the graph and
// the epoch from one pinned version, so a reader racing ApplyUpdates
// never sees a graph from one epoch paired with another's number. Every
// batch inserts one new edge, so the edge count follows the epoch.
func TestGraphEpochConsistentUnderUpdates(t *testing.T) {
	const n, rounds = 64, 40
	e := New(graph.NewBuilder(n).Build(), Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			if _, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(graph.VID(i), "a", graph.VID(i+1))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		if g, epoch := e.GraphEpoch(); uint64(g.NumEdges()) != epoch {
			t.Errorf("epoch %d paired with a graph of %d edges", epoch, g.NumEdges())
			<-done
			return
		}
	}
	if e.Epoch() != rounds {
		t.Fatalf("epoch %d after %d effective batches", e.Epoch(), rounds)
	}
}
