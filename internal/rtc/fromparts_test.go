package rtc

import (
	"testing"

	"rtcshare/internal/graph"
	"rtcshare/internal/tc"
)

func TestFromPartsRoundTrip(t *testing.T) {
	b := graph.NewDiBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	r := Compute(b.Build(), BFSClosure)

	got, err := FromParts(r.Components(), r.Condensation(), r.Closure())
	if err != nil {
		t.Fatal(err)
	}
	for u := graph.VID(0); u < 5; u++ {
		for w := graph.VID(0); w < 5; w++ {
			if got.Reachable(u, w) != r.Reachable(u, w) {
				t.Errorf("Reachable(%d,%d) differs after reassembly", u, w)
			}
		}
	}
	if got.NumReducedVertices() != r.NumReducedVertices() || got.NumSharedPairs() != r.NumSharedPairs() {
		t.Errorf("counts differ: %d/%d reduced, %d/%d pairs",
			got.NumReducedVertices(), r.NumReducedVertices(), got.NumSharedPairs(), r.NumSharedPairs())
	}

	// Parts disagreeing on the SID space are rejected.
	small := graph.NewDiBuilder(r.NumReducedVertices() + 1).Build()
	if _, err := FromParts(r.Components(), small, r.Closure()); err == nil {
		t.Error("condensation with the wrong SID space accepted")
	}
	badClosure := tc.BFS(graph.NewDiBuilder(0).Build())
	if _, err := FromParts(r.Components(), r.Condensation(), badClosure); err == nil {
		t.Error("closure with the wrong SID space accepted")
	}
}
