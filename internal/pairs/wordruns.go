package pairs

import (
	"math/bits"
	"slices"

	"rtcshare/internal/graph"
)

// WordRuns is an append-only store of runs in the word form
// RunAccumulator.DrainWords writes and OrWords reads: run h is
// idx/words[ends[h]:ends[h+1]], words[k] holding the vertices
// 64·idx[k] … 64·idx[k]+63, idx strictly ascending and no word zero.
// Its arrays grow by at least doubling (reserve). The zero value is an
// empty store.
type WordRuns struct {
	ends  []int32 // a leading 0, then one end per run
	idx   []int32
	words []uint64
}

// Len returns the number of runs stored.
func (r *WordRuns) Len() int { return max(len(r.ends)-1, 0) }

// Run returns run h. The caller must not modify the returned slices,
// which stay valid until the store is truncated below h or reset.
func (r *WordRuns) Run(h int) (idx []int32, words []uint64) {
	lo, hi := r.ends[h], r.ends[h+1]
	return r.idx[lo:hi], r.words[lo:hi]
}

// Count returns how many vertices run h holds.
func (r *WordRuns) Count(h int) int {
	n := 0
	for _, w := range r.words[r.ends[h]:r.ends[h+1]] {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendRun appends run h's vertices, ascending, to dst.
func (r *WordRuns) AppendRun(dst []graph.VID, h int) []graph.VID {
	idx, words := r.Run(h)
	for k, wi := range idx {
		dst = AppendWordBits(dst, wi, words[k])
	}
	return dst
}

// Equal reports whether two stores hold the same runs.
func (r *WordRuns) Equal(o *WordRuns) bool {
	return r.Len() == o.Len() && (r.Len() == 0 || slices.Equal(r.ends, o.ends)) &&
		slices.Equal(r.idx, o.idx) && slices.Equal(r.words, o.words)
}

// Drain appends acc's run (RunAccumulator.DrainWords), which empties
// acc, and returns its handle.
func (r *WordRuns) Drain(acc *RunAccumulator) int {
	r.idx, r.words = acc.DrainWords(r.idx, r.words)
	r.ends = append(r.open(1), int32(len(r.idx)))
	return len(r.ends) - 2
}

// open returns ends with room for n more runs, and its leading 0. A
// fresh store's start with room for minRuns runs (256 bytes): a join's
// few dozen rows then take one allocation, not six.
func (r *WordRuns) open(n int) []int32 {
	if len(r.ends) == 0 {
		return append(reserve(r.ends, max(n, minRuns)+1), 0)
	}
	return reserve(r.ends, n)
}

const minRuns = 63

// AppendBlocks appends n ≤ 64 runs from a batch's source words: run i
// holds masks[64·b+i] of every listed block b, ascending, zero words
// dropped; with no block, n empty runs. A first pass counts the words,
// so each array grows at most once.
func (r *WordRuns) AppendBlocks(masks []uint64, blocks []int32, n int) {
	words := 0
	for _, b := range blocks {
		for _, w := range masks[int(b)<<6:][:n] {
			if w != 0 {
				words++
			}
		}
	}
	// The appends go to locals, which fit, so the loop stores no slice
	// header through r.
	ends, idx, ws := r.open(n), reserve(r.idx, words), reserve(r.words, words)
	for i := range n {
		for _, b := range blocks {
			if w := masks[int(b)<<6|i]; w != 0 {
				idx, ws = append(idx, b), append(ws, w)
			}
		}
		ends = append(ends, int32(len(idx)))
	}
	r.ends, r.idx, r.words = ends, idx, ws
}

// Truncate drops run h and every run after it.
func (r *WordRuns) Truncate(h int) {
	if h < r.Len() {
		end := r.ends[h]
		r.ends, r.idx, r.words = r.ends[:h+1], r.idx[:end], r.words[:end]
	}
}

// Reset drops every run, keeping the arrays for reuse.
func (r *WordRuns) Reset() { r.Truncate(0) }

// Transpose returns the transposed store over n vertices: run w holds
// the handles of the runs that hold w. It takes 64 runs at a time and
// transposes each word index's 64 words (Transpose64); a first pass
// counts each transposed run's words and a second places them, in
// ascending word order, into arrays allocated once.
func (r *WordRuns) Transpose(n int) WordRuns {
	t := WordRuns{ends: make([]int32, n+1)}
	r.transposeBlocks(n, func(w graph.VID, _ int32, _ uint64) { t.ends[w+1]++ })
	for w := range n {
		t.ends[w+1] += t.ends[w]
	}
	t.idx, t.words = make([]int32, t.ends[n]), make([]uint64, t.ends[n])
	pos := slices.Clone(t.ends[:n])
	r.transposeBlocks(n, func(w graph.VID, hi int32, word uint64) {
		t.idx[pos[w]], t.words[pos[w]] = hi, word
		pos[w]++
	})
	return t
}

// transposeBlocks calls fn(w, hi, word) for every non-zero word of the
// transposed store: word holds the handles 64·hi … 64·hi+63 whose runs
// hold w.
func (r *WordRuns) transposeBlocks(n int, fn func(w graph.VID, hi int32, word uint64)) {
	nb := (n + 63) / 64
	block := make([]uint64, nb*64)
	touched := make([]uint64, (nb+63)/64)
	for hi := range int32((r.Len() + 63) / 64) {
		for k := range int32(min(64, r.Len()-int(hi)<<6)) {
			idx, words := r.Run(int(hi<<6 | k))
			for i, wi := range idx {
				block[wi<<6|k] = words[i]
				MarkBlock(touched, graph.VID(wi)<<6)
			}
		}
		DrainBlocks(touched, func(wi int) {
			m := (*[64]uint64)(block[wi<<6:])
			Transpose64(m)
			for col, word := range m {
				if word != 0 {
					fn(graph.VID(wi<<6|col), hi, word)
				}
			}
			*m = [64]uint64{}
		})
	}
}
