package core

import (
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
)

// scriptedRuns is a producer whose run for source v is runs[v], added
// in the order given, duplicates included.
type scriptedRuns [][]graph.VID

func (s scriptedRuns) produce(vi graph.VID, acc *pairs.RunAccumulator) (int64, error) {
	acc.AddAll(s[vi])
	return int64(len(s[vi])), nil
}

func (scriptedRuns) release() {}

// TestDrainSharesRepeatedRuns: drain stores a run equal to an earlier
// one once and points the later sources at it, and the relation reads
// as the plain CSR of the same pairs on every accessor. Runs that are
// all distinct — including runs over the same words with different
// bits — seal plain, and empty runs hold no column.
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
		}), 4 + 8 + 33},
		{"distinct", runs(func(v int) []graph.VID { return []graph.VID{graph.VID(v), graph.VID(min(v+1, n-1))} }), -1},
		// Every run is word 0 or words 0 and 1, with different bits.
		{"same words, different bits", runs(func(v int) []graph.VID {
			if v < 64 {
				return []graph.VID{graph.VID(v), 63}
			}
			u := graph.VID(v - 64)
			return []graph.VID{u % 64, 64 + u/64, 0}
		}), -1},
		{"empty", runs(func(int) []graph.VID { return nil }), -1},
		// The first repeat comes after empty runs, and empty runs follow.
		{"empty around a repeat", runs(func(v int) []graph.VID {
			if v == 2 || v == 4 || v == 150 {
				return a
			}
			return nil
		}), 4},
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
			cols := 4 * int64(plain.Len()+n+1)
			if c.stored >= 0 {
				cols = 4 * int64(c.stored+n+1+n)
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
	if at, size, repeat := sc.store(0); at != 0 || size != 2 || repeat {
		t.Fatalf("first run: at %d size %d repeat %v", at, size, repeat)
	}
	// Index a's stored run under b's hash too, as a collision would.
	sc.index[hashOf(b)] = 0
	for i, at := range []int32{2, 4} {
		sc.acc.AddAll(b)
		if got, size, repeat := sc.store(at); got != at || size != 2 || repeat {
			t.Fatalf("colliding run %d: at %d size %d repeat %v, want at %d unshared", i, got, size, repeat, at)
		}
	}
	sc.acc.AddAll(a)
	if at, _, repeat := sc.store(6); at != 0 || !repeat {
		t.Fatalf("a again: at %d repeat %v, want the first run", at, repeat)
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
// 2^20 vertices with 310 distinct one-pair runs allocates its offsets,
// its candidate-start marks and its column, and no starts column: a
// result with no repeated run seals plain. The first call, which
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
	if budget := uint64(4*(numV+1) + numV + 64<<10); least > budget {
		t.Fatalf("a warm call allocated %d bytes, want at most %d", least, budget)
	}
}
