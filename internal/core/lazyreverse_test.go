package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/rpq"
	"rtcshare/internal/workload"
)

// TestRTCSharingLeavesReverseUnbuilt: RTCSharing evaluates forward
// (Pre_G ⋈ R̄⁺ ⋈ Post, the paper's Algorithm 2), so it reads no label's
// reverse adjacency. On paper-batch's graph, RMAT_3 at 2^11 vertices
// and seed 1, its twelve queries (drawn as benchmark/inputs.go draws
// them at seed 1), sealed on one engine and streamed on another, leave
// the graph's ColumnBytes at its fresh value; ^l1 then grows it by
// exactly l1's reverse columns.
func TestRTCSharingLeavesReverseUnbuilt(t *testing.T) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := g.ColumnBytes()
	labels := slices.Sorted(slices.Values(g.Dict().Names()))
	rand.New(rand.NewSource(1*1000003+1)).Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	sets, err := workload.GenerateOver(labels, workload.DefaultConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	sealed, streamed := New(g, Options{Strategy: RTCSharing}), New(g, Options{Strategy: RTCSharing})
	for _, set := range sets {
		for _, q := range set.Queries[:4] {
			rel, err := sealed.EvaluateRel(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			s, err := streamed.OpenStream(context.Background(), q, StreamOptions{})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if got := drainStream(t, s, 4096); len(got) != rel.Len() {
				t.Fatalf("%s: streamed %d pairs, sealed %d", q, len(got), rel.Len())
			}
			if got := g.ColumnBytes(); got != fresh {
				t.Fatalf("%s built a reverse: ColumnBytes %d, fresh %d", q, got, fresh)
			}
		}
	}
	l1, ok := g.Dict().Lookup("l1")
	if !ok {
		t.Fatal("no label l1")
	}
	if _, err := sealed.EvaluateRel(rpq.MustParse("^l1")); err != nil {
		t.Fatal(err)
	}
	if got, want := g.ColumnBytes(), fresh+4*int64(g.NumVertices()+1+g.LabelEdgeCount(l1)); got != want {
		t.Fatalf("after ^l1 ColumnBytes = %d, want %d: the fresh %d plus l1's reverse", got, want, fresh)
	}
}
