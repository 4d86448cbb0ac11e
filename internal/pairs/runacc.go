package pairs

import (
	"math/bits"
	"slices"

	"rtcshare/internal/graph"
)

// RunAccumulator is a reusable |V|-bit set that builds one source's
// destination run: Add ORs destinations in — the OR is the dedupe, so
// unions of overlapping inputs need no stamp set — and Drain pops them
// back out in ascending order, which is the sort. It remembers which
// 64-bit words it dirtied, so filling and draining a run costs time
// proportional to the run, not to |V|, and a drained accumulator is
// empty again without a clear pass. Not safe for concurrent use.
//
// A run is filled completely, then drained completely (over as many
// Drain calls as the caller's buffers need) before the next run is
// filled; Add must not be called between a partial Drain and the one
// that empties the accumulator.
type RunAccumulator struct {
	words []uint64
	// dirty lists the indexes of the non-zero words: in first-touch order
	// while filling, ascending from pos once a drain has begun. ordered
	// says dirty is already ascending, so a drain need not order it: set
	// by OrWords into an empty accumulator and by order, cleared by a fill
	// that appends a word to a non-empty list.
	dirty   []int32
	pos     int
	ordered bool
}

// scanShare is the dirty share of the word array from which ordering
// the dirty list by one pass over all words is cheaper than sorting it:
// a word visit costs about a tenth of a sorted element, and at 1/8
// dirty the pass still touches at most 8 words per dirty word, so it
// stays proportional to the run.
const scanShare = 8

// NewRunAccumulator returns an empty accumulator over the dense VID
// space [0, numVertices).
func NewRunAccumulator(numVertices int) *RunAccumulator {
	return &RunAccumulator{words: make([]uint64, (numVertices+63)/64)}
}

// Add inserts destination v.
func (a *RunAccumulator) Add(v graph.VID) {
	w := v >> 6
	if a.words[w] == 0 {
		a.dirty = append(a.dirty, w)
		a.ordered = false
	}
	a.words[w] |= 1 << (uint32(v) & 63)
}

// AddAll inserts every destination of vs.
func (a *RunAccumulator) AddAll(vs []graph.VID) {
	for _, v := range vs {
		a.Add(v)
	}
}

// OrWords ORs in a run held as words — the form DrainWords produces:
// words[i] holds destinations 64·idx[i] … 64·idx[i]+63, idx ascending.
// It costs one OR per word, however many destinations each word holds.
// Into an empty accumulator the dirty list it leaves is ascending, so
// the drain that follows does not order it again.
func (a *RunAccumulator) OrWords(idx []int32, words []uint64) {
	grew, empty := false, len(a.dirty) == 0
	for i, wi := range idx {
		w := words[i]
		if w == 0 {
			continue
		}
		if a.words[wi] == 0 {
			a.dirty = append(a.dirty, wi)
			grew = true
		}
		a.words[wi] |= w
	}
	if empty {
		a.ordered = true
	} else if grew {
		a.ordered = false
	}
}

// Empty reports whether no destination is waiting to be drained.
func (a *RunAccumulator) Empty() bool { return len(a.dirty) == 0 }

// Count returns how many destinations are waiting to be drained.
func (a *RunAccumulator) Count() int {
	n := 0
	for _, wi := range a.dirty[a.pos:] {
		n += bits.OnesCount64(a.words[wi])
	}
	return n
}

// Reset empties the accumulator without draining it.
func (a *RunAccumulator) Reset() {
	for _, wi := range a.dirty {
		a.words[wi] = 0
	}
	a.dirty, a.pos, a.ordered = a.dirty[:0], 0, false
}

// DrainWords appends the run's non-zero words in ascending word order to
// idx and words — a compact copy OrWords can OR back in — and empties
// the accumulator. It must not follow a partial Drain. An output that
// grows at least doubles: callers append run after run to one store, and
// append's 1.25x growth of large slices would allocate about five times
// its final size.
func (a *RunAccumulator) DrainWords(idx []int32, words []uint64) ([]int32, []uint64) {
	if !a.ordered {
		a.order()
	}
	idx, words = reserve(idx, len(a.dirty)), reserve(words, len(a.dirty))
	for _, wi := range a.dirty {
		if w := a.words[wi]; w != 0 {
			idx = append(idx, wi)
			words = append(words, w)
			a.words[wi] = 0
		}
	}
	a.dirty, a.pos, a.ordered = a.dirty[:0], 0, false
	return idx, words
}

// reserve makes room for n more elements, at least doubling the
// capacity when it grows. (slices.Grow would not: it grows a large
// slice whose new length is at most twice its capacity by 1.25x steps,
// up to 2.4x.)
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]T, len(s), max(len(s)+n, 2*cap(s)))
	copy(grown, s)
	return grown
}

// AppendWordBits appends the destinations word w holds at word index
// wi, ascending, to dst.
func AppendWordBits(dst []graph.VID, wi int32, w uint64) []graph.VID {
	base := graph.VID(wi) << 6
	for ; w != 0; w &= w - 1 {
		dst = append(dst, base+graph.VID(bits.TrailingZeros64(w)))
	}
	return dst
}

// Drain pops the smallest remaining destinations, ascending, into buf
// as pairs (src, dst) and returns how many it wrote — fewer than
// len(buf) only when the accumulator ran empty, after which it is ready
// for the next run.
func (a *RunAccumulator) Drain(src graph.VID, buf []Pair) int {
	if !a.ordered {
		a.order()
	}
	n := 0
	for a.pos < len(a.dirty) && n < len(buf) {
		wi := a.dirty[a.pos]
		w := a.words[wi]
		base := graph.VID(wi) << 6
		for w != 0 && n < len(buf) {
			buf[n] = Pair{src, base + graph.VID(bits.TrailingZeros64(w))}
			n++
			w &= w - 1
		}
		a.words[wi] = w
		if w == 0 {
			a.pos++
		}
	}
	if a.pos == len(a.dirty) {
		a.dirty, a.pos, a.ordered = a.dirty[:0], 0, false
	}
	return n
}

// scans reports whether the current fill is dense enough for order to
// pass over every word.
func (a *RunAccumulator) scans() bool { return len(a.dirty)*scanShare >= len(a.words) }

// order puts the dirty list in ascending word order: by sorting it (word
// indexes, never destinations) while it is a small share of the words,
// by re-collecting it in one pass over the words once it is not.
func (a *RunAccumulator) order() {
	a.ordered = true
	if !a.scans() {
		slices.Sort(a.dirty)
		return
	}
	a.dirty = a.dirty[:0]
	for i, w := range a.words {
		if w != 0 {
			a.dirty = append(a.dirty, int32(i))
		}
	}
}
