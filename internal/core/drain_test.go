package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
)

// scriptedRuns is a producer whose run for source v is runs[v], added
// in the order given, duplicates included. It names no run.
type scriptedRuns [][]graph.VID

func (scriptedRuns) name(graph.VID) (int32, error) { return -1, nil }

func (s scriptedRuns) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	acc.AddAll(s[vi])
	return int64(len(s[vi])), nil
}

func (scriptedRuns) release() {}

// TestDrainSharesRepeatedRuns: drain stores a run equal to an earlier
// one once and points the later sources at it, and the relation reads
// as the plain CSR of the same pairs on every accessor. Runs that are
// all distinct — including runs over the same words with different
// bits — seal plain, as do runs whose repeats save fewer bytes than the
// handles cost, and empty runs hold no column.
func TestDrainSharesRepeatedRuns(t *testing.T) {
	const n = 200
	a := []graph.VID{130, 5, 199, 70, 5}
	b := []graph.VID{0, 1, 2, 63, 64, 127, 128, 191}
	runs := func(f func(v int) []graph.VID) scriptedRuns {
		s := make(scriptedRuns, n)
		for v := range s {
			s[v] = f(v)
		}
		return s
	}
	for _, c := range []struct {
		name   string
		runs   scriptedRuns
		stored int // destinations in the column; −1 when the result is plain
		nruns  int // the stored runs of a row-shared result
	}{
		// a and b repeat across the growth of the run index, between
		// distinct one-pair runs and empty ones.
		{"repeats", runs(func(v int) []graph.VID {
			switch {
			case v%3 == 0:
				return a
			case v%3 == 1:
				return b
			case v%6 == 2:
				return []graph.VID{graph.VID(v)}
			}
			return nil
		}), 4 + 8 + 33, 2 + 33},
		{"distinct", runs(func(v int) []graph.VID { return []graph.VID{graph.VID(v), graph.VID(min(v+1, n-1))} }), -1, 0},
		// Every run is word 0 or words 0 and 1, with different bits.
		{"same words, different bits", runs(func(v int) []graph.VID {
			if v < 64 {
				return []graph.VID{graph.VID(v), 63}
			}
			u := graph.VID(v - 64)
			return []graph.VID{u % 64, 64 + u/64, 0}
		}), -1, 0},
		{"empty", runs(func(int) []graph.VID { return nil }), -1, 0},
		// One repeat among distinct runs saves less than the handles
		// cost, so the result seals plain, the repeat expanded again.
		{"one repeat, sealed plain", runs(func(v int) []graph.VID {
			if v == 0 || v == n-1 {
				return b
			}
			return []graph.VID{graph.VID(v)}
		}), -1, 0},
		// The first repeat comes after empty runs, and empty runs follow.
		{"empty around a repeat", runs(func(v int) []graph.VID {
			if v == 2 || v == 4 || v == 150 {
				return a
			}
			return nil
		}), 4, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ps []pairs.Pair
			for v, run := range c.runs {
				for _, d := range run {
					ps = append(ps, pairs.Pair{Src: graph.VID(v), Dst: d})
				}
			}
			plain := pairs.RelationFromPairs(n, ps...)
			rel, err := New(graph.NewBuilder(n).Build(), Options{}).call(nil, nil).drain(c.runs)
			if err != nil {
				t.Fatal(err)
			}
			// Plain: the column and n+1 offsets. Row-shared: the stored
			// runs, n handles, a count per block of 64 sources but the
			// first, and the stored runs' offsets after an empty run's.
			cols := 4 * int64(plain.Len()+n+1)
			if c.stored >= 0 {
				cols = 4 * int64(c.stored+n+(n+63)/64-1+c.nruns+2)
			}
			if got := rel.ColumnBytes(); got != cols {
				t.Errorf("%d column bytes, want %d", got, cols)
			}
			if !rel.Equal(plain) || !plain.Equal(rel) {
				t.Fatalf("%d pairs, want %d", rel.Len(), plain.Len())
			}
			for v := graph.VID(0); v < n; v++ {
				if !slices.Equal(rel.DstsOf(v), plain.DstsOf(v)) || !slices.Equal(rel.SrcsOf(v), plain.SrcsOf(v)) {
					t.Fatalf("vertex %d: DstsOf %v SrcsOf %v, want %v and %v", v, rel.DstsOf(v), rel.SrcsOf(v), plain.DstsOf(v), plain.SrcsOf(v))
				}
			}
			for off := 0; off <= plain.Len(); off++ {
				for _, size := range []int{1, 3, plain.Len() + 1} {
					buf := make([]pairs.Pair, size)
					if got := buf[:rel.PageInto(off, buf)]; !slices.Equal(got, plain.Page(off, size)) {
						t.Fatalf("PageInto(%d, %d) = %v, want %v", off, size, got, plain.Page(off, size))
					}
				}
			}
			ro, rd := rel.CSR()
			po, pd := plain.CSR()
			if !slices.Equal(ro, po) || !slices.Equal(rd, pd) {
				t.Fatal("CSR differs from the plain relation's")
			}
		})
	}
}

// TestDrainCollisionStoresUnshared: a run whose hash an unequal stored
// run holds is stored again, unshared, every time it recurs; the run
// that holds the hash is still found.
func TestDrainCollisionStoresUnshared(t *testing.T) {
	const n = 256
	a, b := []graph.VID{3, 200}, []graph.VID{3, 201}
	hashOf := func(run []graph.VID) uint64 {
		acc := pairs.NewRunAccumulator(n)
		acc.AddAll(run)
		return runHash(acc.DrainWords(nil, nil))
	}
	sc := &drainScratch{acc: pairs.NewRunAccumulator(n), index: map[uint64]int32{}}
	sc.acc.AddAll(a)
	if r, repeat := sc.store(0); r != 0 || sc.runs[r].at != 0 || sc.runs[r].size != 2 || repeat {
		t.Fatalf("first run: run %d %+v repeat %v", r, sc.runs[r], repeat)
	}
	// Index a's stored run under b's hash too, as a collision would.
	sc.index[hashOf(b)] = 0
	for i, at := range []int32{2, 4} {
		sc.acc.AddAll(b)
		if r, repeat := sc.store(at); sc.runs[r].at != at || sc.runs[r].size != 2 || repeat {
			t.Fatalf("colliding run %d: %+v repeat %v, want at %d unshared", i, sc.runs[r], repeat, at)
		}
	}
	sc.acc.AddAll(a)
	if r, repeat := sc.store(6); r != 0 || !repeat {
		t.Fatalf("a again: run %d repeat %v, want the first run", r, repeat)
	}
	if len(sc.runs) != 3 {
		t.Fatalf("%d stored runs, want 3", len(sc.runs))
	}
}

// TestBaselinesRowShared: on the paper-batch queries at seed 1 over
// RMAT_3 at 2^11 vertices, FullSharing's and NoSharing's results equal
// RTCSharing's and hold at most twice its column bytes: drain stores
// each distinct run once, as the row kernel stores each row.
func TestBaselinesRowShared(t *testing.T) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ pre, r, post string }{
		{"l3", "l1", "l3"}, {"l3", "l1", "l1"}, {"l0", "l1", "l1"}, {"l2", "l1", "l2"},
		{"l0", "l0.l2", "l3"}, {"l3", "l0.l2", "l3"}, {"l2", "l0.l2", "l0"}, {"l3", "l0.l2", "l1"},
		{"l0", "l3.l1.l3", "l2"}, {"l3", "l3.l1.l3", "l1"}, {"l1", "l3.l1.l3", "l1"}, {"l1", "l3.l1.l3", "l3"},
	} {
		expr := rpq.MustParse(fmt.Sprintf("%s.(%s)+.%s", q.pre, q.r, q.post))
		rtc, err := New(g, Options{Strategy: RTCSharing}).EvaluateRel(expr)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Strategy{FullSharing, NoSharing} {
			rel, err := New(g, Options{Strategy: s}).EvaluateRel(expr)
			if err != nil {
				t.Fatal(err)
			}
			if !rel.Equal(rtc) {
				t.Errorf("%s %s: %d pairs, RTCSharing %d", s, expr, rel.Len(), rtc.Len())
			}
			if got, want := rel.ColumnBytes(), rtc.ColumnBytes(); got > 2*want {
				t.Errorf("%s %s: %d column bytes, RTCSharing %d; want at most 2x", s, expr, got, want)
			}
		}
	}
}

// TestDrainSparseAutomatonAllocs: a warm drained automaton clause over
// 2^20 vertices with 310 distinct one-pair runs allocates its offsets
// and its column, and no starts column: a result with no repeated run
// seals plain. The first call, which
// compiles the evaluator, is not counted, and the least of the warm
// calls is, since a collection may empty the pools before any one of
// them. Skipped under the race detector, whose lossy sync.Pool
// allocates the drain scratch again.
func TestDrainSparseAutomatonAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is lossy under the race detector")
	}
	const numV = 1 << 20
	g := fixtures.SparseChains(numV, 10, 32)
	q := rpq.MustParse("b.c")
	e := New(g, Options{})
	least := uint64(math.MaxUint64)
	for call := 0; call < 5; call++ {
		c := e.call(nil, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rel, err := c.sealClause(c.openAutomaton(q))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 310 || rel.ColumnBytes() != 4*(310+numV+1) {
			t.Fatalf("call %d: %d pairs in %d column bytes, want 310 plain", call, rel.Len(), rel.ColumnBytes())
		}
		if call > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if budget := uint64(4*(numV+1) + 64<<10); least > budget {
		t.Fatalf("a warm call allocated %d bytes, want at most %d", least, budget)
	}
}

// pollMark wraps a producer and records how often cc had been polled
// when drain named source at.
type pollMark struct {
	producer
	cc    *countingCtx
	at    graph.VID
	polls int64
}

func (p *pollMark) name(vi graph.VID) (int32, error) {
	if vi == p.at {
		p.polls = p.cc.polls.Load()
	}
	return p.producer.name(vi)
}

// drainCycleFans drains a.b+ through the row kernel, polling cc, over
// cycles disjoint "b" cycles of 100 vertices, each entered by the one
// "a" edge of perCycle sources, and a last vertex with no Pre-end, so
// the sizing loop ends without a poll. Every source's run is its
// cycle's one stored row, which names it. It returns the result and how
// often the sizing loop polled cc.
func drainCycleFans(t *testing.T, cc *countingCtx, cycles, perCycle int) (*pairs.Relation, int64, error) {
	t.Helper()
	const length = 100
	n := cycles*(length+perCycle) + 1
	b := graph.NewBuilder(n)
	for c := 0; c < cycles; c++ {
		base := c * (length + perCycle)
		for v := 0; v < length; v++ {
			b.MustAddEdge(graph.VID(base+v), "b", graph.VID(base+(v+1)%length))
		}
		for s := 0; s < perCycle; s++ {
			b.MustAddEdge(graph.VID(base+length+s), "a", graph.VID(base+s%length))
		}
	}
	g := b.Build()
	preG := sealExpr(g, rpq.MustParse("a"))
	structure := rtc.Compute(rtc.EdgeReduceRel(n, sealExpr(g, rpq.MustParse("b"))), 0)
	c := New(g, Options{}).call(cc, nil)
	p := &pollMark{producer: c.acquireKernel(preG, structure, rpq.ClosurePlus, rpq.Epsilon{}), cc: cc, at: graph.VID(n - 1)}
	rel, err := c.sealClause(p)
	// The stored runs, n handles, a count per block of 64 sources but
	// the first, and one offset per stored run and two for the empty one.
	if err == nil && (rel.Len() != cycles*perCycle*length || rel.ColumnBytes() != 4*int64(cycles*length+n+(n+63)/64-1+cycles+2)) {
		t.Fatalf("%d pairs in %d column bytes, want %d pairs in %d stored runs", rel.Len(), rel.ColumnBytes(), cycles*perCycle*length, cycles)
	}
	return rel, p.polls, err
}

// TestDrainPollsNamedRuns: 4000 sources whose runs all share one named
// run, produced once, still poll the context at least once per
// checkpointRows of their 400,000 pairs in the sizing loop.
func TestDrainPollsNamedRuns(t *testing.T) {
	cc := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	rel, sizing, err := drainCycleFans(t, cc, 1, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(rel.Len() / checkpointRows); sizing < want {
		t.Errorf("the sizing loop polled %d times over %d pairs, want at least %d", sizing, rel.Len(), want)
	}
}

// TestDrainCancelsExpansion: a row-shared result of 64 stored runs, 6,400
// pairs, is expanded into its column at polled checkpoints: uncancelled
// the expansion polls, and a context that fails at its first poll after
// the sizing loop's stops the expansion there with context.Canceled.
func TestDrainCancelsExpansion(t *testing.T) {
	full := &countingCtx{Context: context.Background(), failAfter: 1 << 62}
	_, sizing, err := drainCycleFans(t, full, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if polls := full.polls.Load(); polls <= sizing {
		t.Fatalf("%d polls in all, %d of them sizing: the expansion polled none", polls, sizing)
	}
	cc := &countingCtx{Context: context.Background(), failAfter: sizing}
	if _, _, err := drainCycleFans(t, cc, 64, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if polls := cc.polls.Load(); polls != sizing+1 {
		t.Fatalf("the drain polled %d times, want it stopped at the expansion's first poll, %d", polls, sizing+1)
	}
}

// TestDrainWitnessColumns: on the paper-batch queries at seed 1 over
// RMAT_3 at 2^11 vertices, and on the union queries, RTCSharing's result
// holds at most the column bytes of FullSharing's. FullSharing's drain
// stores each distinct run content once, so it is the witness that the
// row kernel's named runs lose no sharing.
func TestDrainWitnessColumns(t *testing.T) {
	g, err := datagen.PaperRMATN(3, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"l3.(l1)+.l3", "l3.(l1)+.l1", "l0.(l1)+.l1", "l2.(l1)+.l2",
		"l0.(l0.l2)+.l3", "l3.(l0.l2)+.l3", "l2.(l0.l2)+.l0", "l3.(l0.l2)+.l1",
		"l0.(l3.l1.l3)+.l2", "l3.(l3.l1.l3)+.l1", "l1.(l3.l1.l3)+.l1", "l1.(l3.l1.l3)+.l3",
	}
	for _, q := range append(queries, unionTestQueries...) {
		expr := rpq.MustParse(q)
		got, err := New(g, Options{Strategy: RTCSharing}).EvaluateRel(expr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(g, Options{Strategy: FullSharing}).EvaluateRel(expr)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: RTCSharing %d pairs, FullSharing %d", q, got.Len(), want.Len())
		}
		if got.ColumnBytes() > want.ColumnBytes() {
			t.Errorf("%s: RTCSharing %d column bytes, FullSharing's drained result %d", q, got.ColumnBytes(), want.ColumnBytes())
		}
	}
}
