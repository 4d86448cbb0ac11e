package core

import (
	"testing"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// chainGraph builds 0 -a-> 1 -a-> 2 ... plus a b-edge n-1 -b-> 0 over n
// vertices.
func chainGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.MustAddEdge(graph.VID(i), "a", graph.VID(i+1))
	}
	b.MustAddEdge(graph.VID(n-1), "b", 0)
	return b.Build()
}

// assertOracle checks the engine against a fresh reference evaluation of
// the engine's current graph.
func assertOracle(t *testing.T, e *Engine, queries ...string) {
	t.Helper()
	for _, q := range queries {
		expr := rpq.MustParse(q)
		got, err := e.Evaluate(expr)
		if err != nil {
			t.Fatalf("evaluate %q: %v", q, err)
		}
		want := eval.Reference(e.Graph(), expr)
		if !got.Equal(want) {
			t.Fatalf("%q: engine %d pairs, reference %d pairs", q, got.Len(), want.Len())
		}
	}
}

func TestApplyUpdatesBasic(t *testing.T) {
	e := New(chainGraph(6), Options{})
	assertOracle(t, e, "a+", "a+.b")

	res, err := e.ApplyUpdates([]GraphUpdate{
		InsertEdge(2, "a", 0), // cycle-creating for the a+ structure
		InsertEdge(3, "c", 4), // brand-new label
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 0 {
		t.Fatalf("effective changes = %+v", res)
	}
	if res.Epoch != 1 || e.Epoch() != 1 || e.Cache().CurrentEpoch() != 1 {
		t.Fatalf("epoch not advanced: res=%d engine=%d cache=%d", res.Epoch, e.Epoch(), e.Cache().CurrentEpoch())
	}
	if lid, ok := e.Graph().Dict().Lookup("a"); !ok || !e.Graph().HasEdge(2, lid, 0) {
		t.Fatal("new graph version missing inserted edge")
	}
	assertOracle(t, e, "a+", "a+.b", "a.c?", "c")

	// Deletes flow through too.
	if _, err := e.ApplyUpdates([]GraphUpdate{DeleteEdge(0, "a", 1)}); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, e, "a+", "a+.b")
}

func TestApplyUpdatesMigrationSplit(t *testing.T) {
	e := New(chainGraph(8), Options{})
	// Warm two closure structures (R=a and R=b) and their side relations.
	assertOracle(t, e, "a+", "b+", "a.b+")

	// Insert on a: the a-structure drops, the b-structure carries.
	res, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(4, "a", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Carried != 1 || res.Dropped != 1 {
		t.Fatalf("insert split = carried %d dropped %d, want 1/1", res.Carried, res.Dropped)
	}
	if res.RelCarried == 0 {
		t.Fatalf("no relations carried: %+v", res)
	}

	// The next pass builds the a-structure again, once, and finds the
	// carried b-structure warm; a second pass computes nothing.
	missesBefore := e.Cache().Counters().Misses
	assertOracle(t, e, "a+", "b+", "a.b+")
	if misses := e.Cache().Counters().Misses; misses != missesBefore+1 {
		t.Fatalf("structure misses %d → %d, want exactly one (the dropped a-structure)", missesBefore, misses)
	}
	missesBefore = e.Cache().Counters().Misses
	assertOracle(t, e, "a+", "b+", "a.b+")
	if misses := e.Cache().Counters().Misses; misses != missesBefore {
		t.Fatalf("warm structures recomputed: misses %d → %d", missesBefore, misses)
	}

	// A delete on a splits the same way.
	res, err = e.ApplyUpdates([]GraphUpdate{DeleteEdge(4, "a", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Carried != 1 || res.Dropped != 1 {
		t.Fatalf("delete split = carried %d dropped %d, want 1/1", res.Carried, res.Dropped)
	}
	assertOracle(t, e, "a+", "b+", "a.b+")
}

func TestApplyUpdatesNoOpAndErrors(t *testing.T) {
	e := New(chainGraph(4), Options{})

	// Ineffective batch: duplicate insert + missing delete → no epoch bump.
	res, err := e.ApplyUpdates([]GraphUpdate{
		InsertEdge(0, "a", 1),
		DeleteEdge(0, "nope", 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 || res.Deleted != 0 || res.Epoch != 0 || e.Epoch() != 0 {
		t.Fatalf("no-op batch changed state: %+v epoch=%d", res, e.Epoch())
	}

	// Out-of-range endpoints reject the whole batch before any mutation.
	if _, err := e.ApplyUpdates([]GraphUpdate{
		InsertEdge(0, "a", 2),
		InsertEdge(0, "a", 99),
	}); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if e.Graph().HasEdge(0, 0, 2) {
		t.Fatal("rejected batch partially applied")
	}
	if _, err := e.ApplyUpdates([]GraphUpdate{{Op: UpdateOp(7), Src: 0, Label: "a", Dst: 1}}); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestApplyUpdatesForkPinsVersion(t *testing.T) {
	e := New(chainGraph(5), Options{})
	fork := e.Fork()
	if _, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(4, "a", 0)}); err != nil {
		t.Fatal(err)
	}
	// The fork still answers against the pre-update graph...
	got, err := fork.Evaluate(rpq.MustParse("a+"))
	if err != nil {
		t.Fatal(err)
	}
	preOracle := eval.Reference(chainGraph(5), rpq.MustParse("a+"))
	if !got.Equal(preOracle) {
		t.Fatalf("fork drifted onto the new version: %d pairs, want %d", got.Len(), preOracle.Len())
	}
	// ...while the parent answers against the new one.
	assertOracle(t, e, "a+")
	// And no value ever crossed epochs.
	if cc := e.Cache().Counters(); cc.CrossEpochHits != 0 {
		t.Fatalf("cross-epoch hits: %d", cc.CrossEpochHits)
	}
}

func TestApplyUpdatesStrategies(t *testing.T) {
	for _, opts := range []Options{
		{Strategy: FullSharing},
		{Strategy: NoSharing},
	} {
		e := New(chainGraph(6), opts)
		assertOracle(t, e, "a+", "a+.b")
		if _, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(3, "a", 0), DeleteEdge(5, "b", 0)}); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		assertOracle(t, e, "a+", "a+.b", "b?")
	}
}
