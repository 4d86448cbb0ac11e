package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// This file is the oracle suite of the closure-free clause's 64-source
// batches (automatonJoin): vertex spaces below, at and past one and two
// batches, through every driver that pulls the clause, against the
// reference evaluator.

// automatonQueries are closure-free clauses, and batch units whose Pre
// or traversed Post is one. nullable says the clause admits no
// FIRST-set restriction, so every vertex is a candidate start.
var automatonQueries = []struct {
	text     string
	nullable bool
}{
	{"a.b", false},
	{"^a.b.^c", false},
	{"a?.b?", true},
	{"a.(b|^c).d", false},
	{"(a|^b).c|d.a", false},
	{"a?.(b|c)", false},
	{"b.a.c.(d)+.a", false},
	{"b.(c)+.a.d", false},
}

// TestAutomatonBatchMatchesReference: over graphs of 1, 63, 64, 65 and
// 130 vertices — so a batch is partial, exactly full, or followed by
// one more — closure-free clauses with and without FIRST-set candidate
// starts (a nullable clause makes every vertex one, and its accepting
// start state puts every vertex into its own run), inverse labels and
// alternations, a closure-free Pre and a traversed Post, answer the
// reference under all three strategies through the sealed driver, full
// stream drains at buffers 1 and 7 and ASK.
func TestAutomatonBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for _, n := range []int{1, 63, 64, 65, 130} {
		g := fixtures.RandomGraph(rng, n, 3*n+3, []string{"a", "b", "c", "d"})
		for _, aq := range automatonQueries {
			q := rpq.MustParse(aq.text)
			if rpq.MatchesEmpty(q) != aq.nullable {
				t.Fatalf("%s: nullable %v, want %v", aq.text, !aq.nullable, aq.nullable)
			}
			ref := eval.Reference(g, q)
			want := ref.Sorted()
			for _, strategy := range []Strategy{RTCSharing, FullSharing, NoSharing} {
				name := fmt.Sprintf("|V|=%d %s %v", n, aq.text, strategy)
				rel, err := New(g, Options{Strategy: strategy}).EvaluateRel(q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !rel.EqualSet(ref) {
					t.Fatalf("%s: sealed %d pairs, reference %d", name, rel.Len(), ref.Len())
				}
				for _, bufSize := range []int{1, 7} {
					s, err := New(g, Options{Strategy: strategy}).OpenStream(context.Background(), q, StreamOptions{})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := drainStream(t, s, bufSize); !pairsEqual(got, want) {
						t.Fatalf("%s: stream at buffer %d: %d pairs, reference %d", name, bufSize, len(got), len(want))
					}
				}
				found, _, _, err := New(g, Options{Strategy: strategy}).AskCounted(context.Background(), q)
				if err != nil || found != (ref.Len() > 0) {
					t.Fatalf("%s: ask = (%v, %v), reference has %d pairs", name, found, err, ref.Len())
				}
			}
		}
	}
}

// TestAutomatonAbortLeavesPoolClean: a batch cancelled at any of its
// checkpoints leaves nothing in the pooled search state, every mask,
// summary and level list empty, and forgets the batch, so the next
// clause on the same engine version matches the reference. Its search
// takes one level per step of a.c^200 around a "c" ring, each level
// moving every source's bit one step, so the batch polls every 32 or so
// levels. ASK joins one source per batch, so it stops inside the first
// source's search.
func TestAutomatonAbortLeavesPoolClean(t *testing.T) {
	for _, n := range []int{65, 130} {
		b := graph.NewBuilder(n)
		for v := range n {
			b.MustAddEdge(graph.VID(v), "a", graph.VID((v*7+3)%n))
			b.MustAddEdge(graph.VID(v), "c", graph.VID((v+1)%n))
		}
		g := b.Build()
		q := rpq.MustParse("a" + strings.Repeat(".c", 200))
		want := eval.Reference(g, q)
		e := New(g, Options{Strategy: NoSharing})
		acc := pairs.NewRunAccumulator(n)
		for failAfter := int64(0); ; failAfter++ {
			c := e.call(&countingCtx{Context: context.Background(), failAfter: failAfter}, nil)
			a := c.openAutomaton(q)
			_, err := a.produce(0, acc)
			if !a.ev.Idle() {
				t.Fatalf("|V|=%d, cancelled at poll %d (err %v): the pooled search holds marks", n, failAfter+1, err)
			}
			if err != nil && len(a.srcs) != 0 {
				t.Fatalf("|V|=%d, cancelled at poll %d: the join kept a batch of %d", n, failAfter+1, len(a.srcs))
			}
			acc.Reset()
			a.release()
			if err == nil {
				if failAfter < 3 {
					t.Fatalf("|V|=%d: batch finished after %d polls: fixture too light to cancel mid-batch", n, failAfter)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("|V|=%d: cancelled at poll %d: %v", n, failAfter+1, err)
			}
			c = e.call(nil, nil)
			rel, err := c.sealClause(c.openAutomaton(q))
			if err != nil || !rel.EqualSet(want) {
				t.Fatalf("|V|=%d: after a cancel at poll %d: %v, %d pairs, want %d", n, failAfter+1, err, rel.Len(), want.Len())
			}
		}
	}

	// Each of 64 sources reaches a "c" clique of its own, 20 vertices,
	// and a.c^8 walks it once per step: one source's search does about
	// 3,000 rows of work, less than one checkpoint interval, while a
	// 64-source batch does 27,000 on each of its levels and polls after
	// every one of them.
	const sources, fan = 64, 20
	b := graph.NewBuilder(sources * (2 + fan))
	for s := range sources {
		hub, leaves := sources+s, 2*sources+s*fan
		b.MustAddEdge(graph.VID(s), "a", graph.VID(hub))
		for i := range fan {
			b.MustAddEdge(graph.VID(hub), "c", graph.VID(leaves+i))
			for j := range fan {
				b.MustAddEdge(graph.VID(leaves+i), "c", graph.VID(leaves+j))
			}
		}
	}
	g, q := b.Build(), rpq.MustParse("a"+strings.Repeat(".c", 8))
	cc := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	found, _, rows, err := New(g, Options{}).AskCounted(cc, q)
	if err != nil || !found || rows != fan {
		t.Fatalf("ask = (%v, %d rows, %v), want (true, %d rows)", found, rows, err, fan)
	}
	if polls := cc.polls.Load(); polls > 1 {
		t.Fatalf("ask polled its context %d times: it searched from more than one source", polls)
	}
	sealed := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	if _, _, err := New(g, Options{}).EvaluateRelTimedCtx(sealed, q, nil); err != nil || sealed.polls.Load() < 8 {
		t.Fatalf("a sealed evaluation polled %d times (%v): fixture too light to tell one source from a batch", sealed.polls.Load(), err)
	}
}

// TestAutomatonClauseAllocs: a cold closure-free l0.l2 on RMAT_3 at
// 2^11 vertices, on a fresh engine, allocates at most 494 objects, half
// the 989 it took when each of a batch's 64 runs grew its own slices
// from nil on every open; its batch's runs now share one store. The
// least of five calls is counted, since a collection may empty the
// pools during any one of them. Skipped under the race detector, whose
// lossy sync.Pool allocates the pooled join state again.
func TestAutomatonClauseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rpq.MustParse("l0.l2")
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, err := New(g, Options{}).EvaluateRel(q)
		runtime.ReadMemStats(&after)
		if err != nil || rel.Len() == 0 {
			t.Fatalf("EvaluateRel(l0.l2) = %d pairs, %v", rel.Len(), err)
		}
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least > 494 {
		t.Fatalf("a cold l0.l2 allocated %d objects, want at most 494", least)
	}
}
