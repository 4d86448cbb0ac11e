package pairs

import (
	"math/rand"
	"slices"
	"testing"

	"rtcshare/internal/graph"
)

// runOf returns run h of the store as its destinations, ascending,
// failing t if the run breaks the format: a zero word or an index out
// of order.
func runOf(t *testing.T, r *WordRuns, h int) []graph.VID {
	t.Helper()
	var out []graph.VID
	idx, words := r.Run(h)
	for k, wi := range idx {
		if words[k] == 0 || k > 0 && idx[k-1] >= wi {
			t.Fatalf("run %d breaks the format: idx %v, words %x", h, idx, words)
		}
		out = AppendWordBits(out, wi, words[k])
	}
	return out
}

// TestWordRunsDrainTruncate: drained runs come back as they went in,
// empty ones included, and truncating the last run leaves the runs
// before it, so the next drain takes its handle.
func TestWordRunsDrainTruncate(t *testing.T) {
	const numV = 300
	acc := NewRunAccumulator(numV)
	want := [][]graph.VID{{5, 70, 130, 299}, nil, {0, 1, 63, 64}, {200}}
	var r WordRuns
	if r.Len() != 0 {
		t.Fatalf("empty store has %d runs", r.Len())
	}
	r.Truncate(0) // a no-op on an empty store
	for h, run := range want {
		acc.AddAll(run)
		if got := r.Drain(acc); got != h || !acc.Empty() {
			t.Fatalf("drain %d: handle %d, accumulator empty %v", h, got, acc.Empty())
		}
	}
	check := func(want [][]graph.VID) {
		t.Helper()
		if r.Len() != len(want) {
			t.Fatalf("%d runs, want %d", r.Len(), len(want))
		}
		for h, run := range want {
			if got := runOf(t, &r, h); !slices.Equal(got, run) {
				t.Fatalf("run %d = %v, want %v", h, got, run)
			}
		}
	}
	check(want)
	r.Truncate(len(want) - 1)
	check(want[:len(want)-1])
	acc.AddAll([]graph.VID{7, 8})
	if h := r.Drain(acc); h != len(want)-1 {
		t.Fatalf("drain after truncate: handle %d, want %d", h, len(want)-1)
	}
	check(append(want[:len(want)-1:len(want)-1], []graph.VID{7, 8}))
	r.Reset()
	check(nil)
}

// TestWordRunsAppendBlocks compares AppendBlocks with a naive fill, one
// source at a time, over batches of 1, 63 and 64 sources whose blocks
// hold zero words and whose sources include ones with empty runs, into
// a store that already holds runs.
func TestWordRunsAppendBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	const nb = 9 // 64-vertex blocks
	for _, n := range []int{1, 63, 64} {
		masks := make([]uint64, nb*64)
		var blocks []int32
		for b := range int32(nb) {
			if b%3 == 1 {
				continue // not listed, though its words are set
			}
			blocks = append(blocks, b)
		}
		for i := range masks {
			switch src := i & 63; {
			case src%5 == 0: // a source with an empty run, in every block
			case rng.Intn(3) == 0: // a zero word
			default:
				masks[i] = rng.Uint64() & rng.Uint64()
			}
		}
		var r WordRuns
		r.AppendBlocks(nil, nil, 2) // two empty runs first
		r.AppendBlocks(masks, blocks, n)
		if r.Len() != 2+n {
			t.Fatalf("n=%d: %d runs, want %d", n, r.Len(), 2+n)
		}
		acc := NewRunAccumulator(nb * 64)
		for i := range n {
			var want []graph.VID
			for _, b := range blocks {
				want = AppendWordBits(want, b, masks[int(b)<<6|i])
			}
			if got := runOf(t, &r, 2+i); !slices.Equal(got, want) {
				t.Fatalf("n=%d: run of source %d = %v, want %v", n, i, got, want)
			}
			acc.AddAll(want)
			var naive WordRuns
			naive.Drain(acc)
			idx, words := r.Run(2 + i)
			nidx, nwords := naive.Run(0)
			if !slices.Equal(idx, nidx) || !slices.Equal(words, nwords) {
				t.Fatalf("n=%d: source %d's words differ from the naive fill's", n, i)
			}
		}
		for h := range 2 {
			if got := runOf(t, &r, h); len(got) != 0 {
				t.Fatalf("n=%d: padded run %d = %v, want empty", n, h, got)
			}
		}
	}
}

// TestWordRunsTranspose: the transposed store holds (w, h) exactly when
// run h holds w, over a vertex space that is not a multiple of 64 and
// more runs than one block.
func TestWordRunsTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const numV, runs = 150, 130
	acc := NewRunAccumulator(numV)
	var r WordRuns
	in := make([][]graph.VID, runs)
	for h := range in {
		for range rng.Intn(20) {
			in[h] = append(in[h], graph.VID(rng.Intn(numV)))
		}
		acc.AddAll(in[h])
		r.Drain(acc)
	}
	want := make([][]graph.VID, numV)
	for h, run := range in {
		for _, w := range run {
			if !slices.Contains(want[w], graph.VID(h)) {
				want[w] = append(want[w], graph.VID(h))
			}
		}
	}
	tr := r.Transpose(numV)
	if tr.Len() != numV {
		t.Fatalf("%d transposed runs, want %d", tr.Len(), numV)
	}
	for w := range want {
		slices.Sort(want[w])
		if got := runOf(t, &tr, w); !slices.Equal(got, want[w]) {
			t.Fatalf("transposed run %d = %v, want %v", w, got, want[w])
		}
	}
}
