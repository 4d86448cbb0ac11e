package pairs

import (
	"math/rand"
	"slices"
	"testing"

	"rtcshare/internal/graph"
)

// sortDedupe is the reference the accumulator replaces: collect, sort,
// drop duplicates.
func sortDedupe(src graph.VID, dsts []graph.VID) []Pair {
	sorted := slices.Clone(dsts)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	out := make([]Pair, len(sorted))
	for i, d := range sorted {
		out[i] = Pair{src, d}
	}
	return out
}

// drainAll empties acc through buffers whose sizes cycle through sizes,
// so runs are cut at every kind of boundary.
func drainAll(acc *RunAccumulator, src graph.VID, sizes []int) []Pair {
	var out []Pair
	for i := 0; !acc.Empty(); i++ {
		buf := make([]Pair, sizes[i%len(sizes)])
		n := acc.Drain(src, buf)
		out = append(out, buf[:n]...)
	}
	return out
}

// TestRunAccumulatorMatchesSortDedupe is the accumulator's contract: for
// any multiset of destinations, filling and draining it — through
// buffers of any size, one accumulator reused run after run — yields
// exactly sort + dedupe. Densities span both ways of ordering the dirty
// words (sorted list, full pass); vertex counts include ones that are
// not a multiple of 64.
func TestRunAccumulatorMatchesSortDedupe(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, numV := range []int{1, 63, 64, 65, 1000, 1024, 4097} {
		acc := NewRunAccumulator(numV)
		for _, density := range []float64{0, 0.001, 0.02, 0.3, 0.9, 3} {
			for _, sizes := range [][]int{{1}, {7}, {512}, {1, 7, 512, 3}} {
				var dsts []graph.VID
				for i := 0; i < int(density*float64(numV)); i++ {
					dsts = append(dsts, graph.VID(rng.Intn(numV)))
				}
				if density > 0 {
					// The edges of the space, and a guaranteed duplicate.
					dsts = append(dsts, 0, graph.VID(numV-1), 0)
				}
				for _, d := range dsts {
					acc.Add(d)
				}
				if acc.Empty() != (len(dsts) == 0) {
					t.Fatalf("|V|=%d: Empty() = %v after %d adds", numV, acc.Empty(), len(dsts))
				}
				src := graph.VID(rng.Intn(numV))
				got, want := drainAll(acc, src, sizes), sortDedupe(src, dsts)
				if !slices.Equal(got, want) {
					t.Fatalf("|V|=%d density %g buffers %v: drained %d pairs, sort+dedupe has %d\n got %v\nwant %v",
						numV, density, sizes, len(got), len(want), got, want)
				}
				if n := acc.Drain(src, make([]Pair, 4)); n != 0 || !acc.Empty() {
					t.Fatalf("|V|=%d: drained accumulator yielded %d more pairs", numV, n)
				}
			}
		}
	}
}

// TestRunAccumulatorWords: a run drained as words and ORed back in —
// alone, and unioned with other runs — is the same destination set;
// Count is its size; DrainAppend and Reset both leave the accumulator
// empty; AppendWordBits decodes a word run to the same destinations.
func TestRunAccumulatorWords(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, numV := range []int{1, 65, 1000, 4097} {
		acc, other := NewRunAccumulator(numV), NewRunAccumulator(numV)
		for _, density := range []float64{0, 0.01, 0.3, 2} {
			var a, b []graph.VID
			for i := 0; i < int(density*float64(numV)); i++ {
				a = append(a, graph.VID(rng.Intn(numV)))
				b = append(b, graph.VID(rng.Intn(numV)))
			}
			acc.AddAll(a)
			idx, words := acc.DrainWords(nil, nil)
			if !acc.Empty() {
				t.Fatalf("|V|=%d: DrainWords left the accumulator non-empty", numV)
			}
			if !slices.IsSorted(idx) {
				t.Fatalf("|V|=%d: word indexes %v not ascending", numV, idx)
			}
			var decoded []graph.VID
			for i, wi := range idx {
				decoded = AppendWordBits(decoded, wi, words[i])
			}
			want := slices.Compact(slices.Sorted(slices.Values(a)))
			if !slices.Equal(decoded, want) {
				t.Fatalf("|V|=%d: decoded words %v, want %v", numV, decoded, want)
			}

			other.AddAll(b)
			other.OrWords(idx, words)
			union := slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(a), b...))))
			if got := other.Count(); got != len(union) {
				t.Fatalf("|V|=%d: Count = %d, want %d", numV, got, len(union))
			}
			if got := other.DrainAppend(nil); !slices.Equal(got, union) {
				t.Fatalf("|V|=%d: OrWords union drained %v, want %v", numV, got, union)
			}
			if !other.Empty() || other.Count() != 0 {
				t.Fatalf("|V|=%d: DrainAppend left the accumulator non-empty", numV)
			}

			other.OrWords(idx, words)
			other.Reset()
			if !other.Empty() || len(other.DrainAppend(nil)) != 0 {
				t.Fatalf("|V|=%d: Reset left destinations behind", numV)
			}
		}
	}
}

// TestRunAccumulatorAddAll: AddAll is Add over a slice, unions included.
func TestRunAccumulatorAddAll(t *testing.T) {
	acc := NewRunAccumulator(200)
	acc.AddAll([]graph.VID{130, 5, 64})
	acc.AddAll([]graph.VID{5, 199, 63})
	want := sortDedupe(9, []graph.VID{130, 5, 64, 199, 63})
	if got := drainAll(acc, 9, []int{2}); !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestRunAccumulatorSparseHugeSpace proves the time of a run follows its
// content, not |V|: over 2^20 vertices (16384 words), runs of at most 8
// destinations never take the pass over every word — the only step of
// the accumulator that is proportional to |V| — and still drain sorted.
func TestRunAccumulatorSparseHugeSpace(t *testing.T) {
	const numV = 1 << 20
	rng := rand.New(rand.NewSource(7))
	acc := NewRunAccumulator(numV)
	buf := make([]Pair, 8)
	for src := graph.VID(0); src < 1<<16; src++ {
		dsts := make([]graph.VID, 1+rng.Intn(8))
		for i := range dsts {
			dsts[i] = graph.VID(rng.Intn(numV))
		}
		acc.AddAll(dsts)
		if acc.scans() {
			t.Fatalf("source %d: a run of %d destinations would scan all %d words", src, len(dsts), len(acc.words))
		}
		n := acc.Drain(src, buf)
		if want := sortDedupe(src, dsts); !slices.Equal(buf[:n], want) {
			t.Fatalf("source %d: drained %v, want %v", src, buf[:n], want)
		}
		if !acc.Empty() {
			t.Fatalf("source %d: not empty after a full drain", src)
		}
	}
}

// TestRunAccumulatorSteadyStateAllocs: once the dirty list has grown to
// the densest run, filling and draining allocate nothing.
func TestRunAccumulatorSteadyStateAllocs(t *testing.T) {
	acc := NewRunAccumulator(4096)
	dsts := make([]graph.VID, 3000)
	for i := range dsts {
		dsts[i] = graph.VID(i * 7 % 4096)
	}
	buf := make([]Pair, 512)
	run := func() {
		acc.AddAll(dsts)
		for !acc.Empty() {
			acc.Drain(1, buf)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("%v allocations per run in steady state, want 0", allocs)
	}
}
