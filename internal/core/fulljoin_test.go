package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// This file is the oracle suite of the pair-level join's 64-source
// batches (fullJoin): vertex spaces below, at and past one and two
// batches, through every driver that pulls the join, against the
// reference evaluator and against the work a per-source join does.

// perSourceRows is what a join of one source at a time touches, per
// source: the source's Pre_G tuples, its Pre_G ⋈ R+ tuples with their
// repeats, and, unless Post is ε, one row per Post end of each distinct
// vertex of its frontier.
func perSourceRows(g *graph.Graph, pre, r, post rpq.Expr, typ rpq.ClosureType) []int64 {
	n := g.NumVertices()
	preG := sealExpr(g, pre)
	closure := tc.BFS(rtc.EdgeReduceRel(n, sealExpr(g, r)))
	var postLen []int64
	if _, eps := post.(rpq.Epsilon); !eps {
		postLen = make([]int64, n)
		eval.Reference(g, post).Each(func(src, _ graph.VID) bool {
			postLen[src]++
			return true
		})
	}
	rows := make([]int64, n)
	for vi := range n {
		vjs := preG.DstsOf(graph.VID(vi))
		rows[vi] += int64(len(vjs))
		frontier := map[graph.VID]bool{}
		if typ == rpq.ClosureStar {
			for _, vj := range vjs {
				frontier[vj] = true
			}
		}
		for _, vj := range vjs {
			from := closure.From(vj)
			rows[vi] += int64(len(from))
			for _, vk := range from {
				frontier[vk] = true
			}
		}
		if postLen != nil {
			for vk := range frontier {
				rows[vi] += postLen[vk]
			}
		}
	}
	return rows
}

// streamAll drains a fresh stream of q through buffers of bufSize and
// returns its pairs and its Rows counter, and checks at every source's
// first pair, when the buffer holds one pair, that the counter holds the
// rows of exactly the sources up to it.
func streamAll(t *testing.T, e *Engine, q rpq.Expr, bufSize int, rows []int64) ([]pairs.Pair, int64) {
	t.Helper()
	s, err := e.OpenStream(context.Background(), q, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []pairs.Pair
	buf := make([]pairs.Pair, bufSize)
	for {
		n, done, err := s.Next(buf)
		if err != nil {
			t.Fatalf("%s: stream Next: %v", q, err)
		}
		if bufSize == 1 && n == 1 && (len(out) == 0 || out[len(out)-1].Src != buf[0].Src) {
			var want int64
			for _, r := range rows[:buf[0].Src+1] {
				want += r
			}
			if got := s.Stats().Rows; got != want {
				t.Fatalf("%s: through source %d the stream touched %d rows, a per-source join %d", q, buf[0].Src, got, want)
			}
		}
		out = append(out, buf[:n]...)
		if done {
			return out, s.Stats().Rows
		}
	}
}

// TestFullJoinBatchMatchesReference: over graphs of 1, 63, 64, 65 and
// 130 vertices — so a batch is partial, exactly full, or followed by
// one more, with sources whose Pre_G is empty inside the batches — and
// for R under + and *, with Post ε, a label, an inverse label and a
// traversed Post, FullSharing and NoSharing answer the reference through
// the sealed driver, full stream drains at buffers 1 and 7 and ASK. A
// stream's StreamStats.Rows equals what a per-source join touches, over
// the full drain and through each source: batching changes the constant
// factor of the join, not its operation count.
func TestFullJoinBatchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	pre := rpq.MustParse("a")
	for _, n := range []int{1, 63, 64, 65, 130} {
		g := fixtures.RandomGraph(rng, n, 2*n+3, []string{"a", "b", "c"})
		preG := sealExpr(g, pre)
		empty := 0
		for v := range n {
			if len(preG.DstsOf(graph.VID(v))) == 0 {
				empty++
			}
		}
		if n > 1 && (empty == 0 || empty == n) {
			t.Fatalf("|V|=%d: %d sources with an empty Pre, want some but not all", n, empty)
		}
		for _, r := range []string{"b", "b|c"} {
			for _, typ := range []rpq.ClosureType{rpq.ClosurePlus, rpq.ClosureStar} {
				for _, post := range []string{"", "c", "^c", "c.^a"} {
					closure := "(" + r + ")+"
					if typ == rpq.ClosureStar {
						closure = "(" + r + ")*"
					}
					text := "a." + closure
					postExpr := rpq.Expr(rpq.Epsilon{})
					if post != "" {
						text += "." + post
						postExpr = rpq.MustParse(post)
					}
					q := rpq.MustParse(text)
					ref := eval.Reference(g, q)
					want := ref.Sorted()
					perSource := perSourceRows(g, pre, rpq.MustParse(r), postExpr, typ)
					var rows int64
					for _, r := range perSource {
						rows += r
					}
					for _, strategy := range []Strategy{FullSharing, NoSharing} {
						name := fmt.Sprintf("|V|=%d %s %v", n, text, strategy)
						rel, err := New(g, Options{Strategy: strategy}).EvaluateRel(q)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !rel.EqualSet(ref) {
							t.Fatalf("%s: sealed %d pairs, reference %d", name, rel.Len(), ref.Len())
						}
						for _, bufSize := range []int{1, 7} {
							got, gotRows := streamAll(t, New(g, Options{Strategy: strategy}), q, bufSize, perSource)
							if !pairsEqual(got, want) {
								t.Fatalf("%s: stream at buffer %d: %d pairs, reference %d", name, bufSize, len(got), len(want))
							}
							if gotRows != rows {
								t.Fatalf("%s: stream at buffer %d touched %d rows, a per-source join %d", name, bufSize, gotRows, rows)
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
	}
}

// TestFullJoinAbortLeavesPoolClean: a batch cancelled at any of its
// checkpoints — while it marks the frontier or probes Post ends, under
// an ε Post and a label — leaves no mark in the pooled join state, so
// the next join on the same engine version matches an uncancelled one.
// At 65 and 130 vertices, whose last 64-vertex block is partial, the
// source-major frontier, the end masks and their block summaries are
// all zero after a completed first batch and after an abort at each of
// its polls.
func TestFullJoinAbortLeavesPoolClean(t *testing.T) {
	for _, n := range []int{65, 130} {
		b := graph.NewBuilder(n)
		for v := range n {
			b.MustAddEdge(graph.VID(v), "b", graph.VID((v+1)%n))
			for w := range n { // Post c reads n ends a vertex: its probe polls too
				b.MustAddEdge(graph.VID(v), "c", graph.VID(w))
			}
			for i := 1; i <= 8; i++ {
				b.MustAddEdge(graph.VID(v), "a", graph.VID((v*7+i*11)%n))
			}
		}
		g := b.Build()
		preG := sealExpr(g, rpq.MustParse("a"))
		closure := tc.BFS(rtc.EdgeReduceRel(n, sealExpr(g, rpq.MustParse("b"))))
		for _, post := range []rpq.Expr{rpq.Epsilon{}, rpq.MustParse("c")} {
			e := New(g, Options{Strategy: NoSharing})
			acc := pairs.NewRunAccumulator(n)
			for failAfter := int64(0); ; failAfter++ {
				c := e.call(&countingCtx{Context: context.Background(), failAfter: failAfter}, nil)
				j := c.acquireFull(preG, closure, rpq.ClosurePlus, post)
				_, err := j.produce(0, acc)
				for name, masks := range map[string][]uint64{"front": j.front, "frontBlocks": j.frontBlocks, "endMask": j.endMask, "endBlocks": j.endBlocks} {
					if i := slices.IndexFunc(masks, func(w uint64) bool { return w != 0 }); i >= 0 {
						t.Fatalf("|V|=%d Post %s, cancelled at poll %d (err %v): %s[%d] = %#x after the batch", n, post, failAfter+1, err, name, i, masks[i])
					}
				}
				acc.Reset()
				j.release()
				if err == nil {
					if failAfter < 3 {
						t.Fatalf("|V|=%d Post %s: batch finished after %d polls: fixture too light to cancel mid-batch", n, post, failAfter)
					}
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("|V|=%d Post %s: cancelled at poll %d: %v", n, post, failAfter+1, err)
				}
			}
		}
	}

	const cycle, sources, fan = 300, 10, 20
	b := graph.NewBuilder(sources + 2*cycle)
	for v := 0; v < cycle; v++ {
		b.MustAddEdge(graph.VID(sources+v), "b", graph.VID(sources+(v+1)%cycle))
		for i := 0; i < fan; i++ {
			b.MustAddEdge(graph.VID(sources+v), "c", graph.VID(sources+cycle+(v+i*13)%cycle))
		}
	}
	for s := 0; s < sources; s++ {
		for i := 0; i < 30; i++ {
			b.MustAddEdge(graph.VID(s), "a", graph.VID(sources+(s*7+i*11)%cycle))
		}
	}
	g := b.Build()
	preG := sealExpr(g, rpq.MustParse("a"))
	closure := tc.BFS(rtc.EdgeReduceRel(g.NumVertices(), sealExpr(g, rpq.MustParse("b"))))
	for _, post := range []rpq.Expr{rpq.Epsilon{}, rpq.MustParse("c")} {
		want, err := New(g, Options{}).EvalBatchUnitFull(preG, closure, rpq.ClosurePlus, post)
		if err != nil {
			t.Fatal(err)
		}
		e := New(g, Options{Strategy: NoSharing})
		for failAfter := int64(0); ; failAfter++ {
			cc := &countingCtx{Context: context.Background(), failAfter: failAfter}
			c := e.call(cc, nil)
			_, err := c.sealClause(c.acquireFull(preG, closure, rpq.ClosurePlus, post))
			if err == nil {
				if failAfter < 3 {
					t.Fatalf("Post %s: join finished after %d polls: fixture too light to cancel mid-batch", post, failAfter)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Post %s: cancelled at poll %d: %v", post, failAfter+1, err)
			}
			rel, err := e.EvalBatchUnitFull(preG, closure, rpq.ClosurePlus, post)
			if err != nil || !rel.Equal(want) {
				t.Fatalf("Post %s: after a cancel at poll %d: %v, %d pairs, want %d", post, failAfter+1, err, rel.Len(), want.Len())
			}
		}
	}
}

// TestAskJoinsOneSource: ASK is a stream with a Limit, whose pair-level
// join takes one source per batch, so it stops inside the first
// source's expansion in work as well as in the rows it reports: a
// 64-source batch here would cost about 64·601 rows, nine polls of the
// context.
func TestAskJoinsOneSource(t *testing.T) {
	const cycle, sources = 600, 64
	b := graph.NewBuilder(sources + cycle)
	for v := 0; v < cycle; v++ {
		b.MustAddEdge(graph.VID(sources+v), "b", graph.VID(sources+(v+1)%cycle))
	}
	for s := 0; s < sources; s++ {
		b.MustAddEdge(graph.VID(s), "a", graph.VID(sources+s))
	}
	e := New(b.Build(), Options{Strategy: FullSharing})
	// a.b+.a caches Pre_G and the closure, so only the join polls.
	if _, err := e.EvaluateRel(rpq.MustParse("a.b+.a")); err != nil {
		t.Fatal(err)
	}
	cc := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	found, _, rows, err := e.AskCounted(cc, rpq.MustParse("a.b+"))
	if err != nil || !found || rows != 1+cycle {
		t.Fatalf("ask = (%v, %d rows, %v), want (true, %d rows)", found, rows, err, 1+cycle)
	}
	if polls := cc.polls.Load(); polls > 2 {
		t.Fatalf("ask polled its context %d times: it joined more than one source", polls)
	}
}
