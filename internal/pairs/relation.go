package pairs

import (
	"math"
	"slices"
	"sort"
	"sync"

	"rtcshare/internal/graph"
)

// Relation is an immutable, columnar vertex-pair relation: the sealed
// counterpart of the mutable Set. Pairs are grouped by start vertex — the
// destinations of src v are one contiguous sorted run of the dsts column
// — so a batch-unit join probes a relation as cache-friendly column
// slices instead of iterating a hash map in random order and re-bucketing
// it per call. A dst-side transpose (the mirror CSR) is built lazily on
// first SrcsOf/EachDst and cached, so it is paid for once per relation.
//
// A relation has one of two forms, and (offsets, dsts) is a CSR in both:
//
//   - plain: run v is dsts[offsets[v]:offsets[v+1]], so offsets is the
//     prefix sum of the run lengths (len NumVertices+1) and Len and the
//     paging seek read it alone;
//   - row-shared (RelationFromSharedRuns): sources with equal runs hold
//     one stored copy. handles[v] names source v's stored run h,
//     dsts[offsets[h]:offsets[h+1]], run 0 being the empty run, and
//     blockStarts counts the pairs before each block of 64 sources but
//     the first, for the paging seek. A source costs 4 bytes for its
//     handle and 1/16 byte of block counts, where the plain form's
//     offset costs 4 bytes and its run is stored again for every source
//     that repeats it.
//
// Relations are safe for concurrent use: the columns never change after
// Seal, and the lazily built columns are guarded by Onces. Callers must
// not modify any returned slice.
type Relation struct {
	numVertices int
	numPairs    int
	offsets     []int32     // the CSR offsets: per source, or per stored run
	dsts        []graph.VID // sorted, duplicate-free within each run
	handles     []int32     // row-shared only: len numVertices
	blockStarts []int32     // row-shared only: len max(⌈numVertices/64⌉-1, 0)
	// borrowed marks columns the relation aliases but does not own
	// (RelationFromBorrowedRuns): they cost it no bytes.
	borrowed bool

	invOnce    sync.Once
	dstOffsets []int32
	srcs       []graph.VID

	flatOnce    sync.Once
	flatOffsets []int32     // a row-shared relation's offsets per source
	flat        []graph.VID // and its runs in source order
}

// emptyRelation backs every sealed relation over a zero-vertex space.
var emptyRelation = plainRelation(0, []int32{0}, nil)

// plainRelation wraps CSR columns whose runs tile dsts in source order.
func plainRelation(numVertices int, offsets []int32, dsts []graph.VID) *Relation {
	return &Relation{numVertices: numVertices, numPairs: int(offsets[numVertices]), offsets: offsets, dsts: dsts}
}

// NumVertices returns the size of the VID space the relation is defined
// over.
func (r *Relation) NumVertices() int { return r.numVertices }

// Len returns the number of pairs.
func (r *Relation) Len() int { return r.numPairs }

// ColumnBytes returns the bytes the relation's sealed columns hold: 4
// per entry of dsts and offsets and, for a row-shared relation, of
// handles and blockStarts — PlainColumnBytes or SharedColumnBytes of
// its shape. The lazily built transpose and, for a row-shared relation,
// the per-source offsets and flattened column that CSR builds are not
// counted, and borrowed columns (RelationFromBorrowedRuns) count 0:
// their owner holds them.
func (r *Relation) ColumnBytes() int64 {
	if r.borrowed {
		return 0
	}
	return 4 * int64(len(r.dsts)+len(r.offsets)+len(r.handles)+len(r.blockStarts))
}

// PlainColumnBytes is ColumnBytes of a plain relation over numVertices
// sources holding pairs pairs.
func PlainColumnBytes(numVertices, pairs int) int64 {
	return 4 * int64(numVertices+1+pairs)
}

// SharedColumnBytes is ColumnBytes of a row-shared relation over
// numVertices sources whose runs are runs distinct non-empty stored runs
// holding stored destinations in all.
func SharedColumnBytes(numVertices, runs, stored int) int64 {
	return 4 * int64(numVertices+numBlockStarts(numVertices)+runs+2+stored)
}

// numBlockStarts is the length of a row-shared relation's blockStarts.
func numBlockStarts(numVertices int) int { return max((numVertices+63)/64-1, 0) }

// run returns source v's stored run in the CSR: v itself in the plain
// form.
func (r *Relation) run(v int) int {
	if r.handles == nil {
		return v
	}
	return int(r.handles[v])
}

// DstsOf returns the end vertices paired with start vertex v, sorted
// ascending. O(1): it is a sub-slice of the dsts column.
func (r *Relation) DstsOf(v graph.VID) []graph.VID {
	h := r.run(int(v))
	return r.dsts[r.offsets[h]:r.offsets[h+1]]
}

// SrcsOf returns the start vertices paired with end vertex w, sorted
// ascending. O(1) after the first call builds the transpose.
func (r *Relation) SrcsOf(w graph.VID) []graph.VID {
	r.transpose()
	return r.srcs[r.dstOffsets[w]:r.dstOffsets[w+1]]
}

// transpose builds the dst-side CSR once, walking the runs: sources are
// visited ascending, so every transposed run comes out sorted.
func (r *Relation) transpose() {
	r.invOnce.Do(func() {
		n := r.numVertices
		offsets := make([]int32, n+1)
		r.EachSrc(func(_ graph.VID, dsts []graph.VID) bool {
			for _, w := range dsts {
				offsets[w+1]++
			}
			return true
		})
		for v := 0; v < n; v++ {
			offsets[v+1] += offsets[v]
		}
		srcs := make([]graph.VID, r.Len())
		cursor := slices.Clone(offsets[:n])
		r.EachSrc(func(src graph.VID, dsts []graph.VID) bool {
			for _, w := range dsts {
				srcs[cursor[w]] = src
				cursor[w]++
			}
			return true
		})
		r.dstOffsets, r.srcs = offsets, srcs
	})
}

// Contains reports whether (src, dst) is in the relation: one binary
// search over src's run.
func (r *Relation) Contains(src, dst graph.VID) bool {
	_, ok := slices.BinarySearch(r.DstsOf(src), dst)
	return ok
}

// Each calls fn for every pair in (src, dst) order, stopping early if
// fn returns false.
func (r *Relation) Each(fn func(src, dst graph.VID) bool) {
	r.EachSrc(func(src graph.VID, dsts []graph.VID) bool {
		for _, dst := range dsts {
			if !fn(src, dst) {
				return false
			}
		}
		return true
	})
}

// EachSrc calls fn once per start vertex with a non-empty run, in
// ascending src order, passing the sorted destination run. fn must not
// modify the run; returning false stops the iteration.
func (r *Relation) EachSrc(fn func(src graph.VID, dsts []graph.VID) bool) {
	for v := 0; v < r.numVertices; v++ {
		h := r.run(v)
		lo, hi := r.offsets[h], r.offsets[h+1]
		if lo == hi {
			continue
		}
		if !fn(graph.VID(v), r.dsts[lo:hi]) {
			return
		}
	}
}

// EachDst is EachSrc through the transpose: fn runs once per end vertex
// with a non-empty run, in ascending dst order, with the sorted start
// vertices pairing to it.
func (r *Relation) EachDst(fn func(dst graph.VID, srcs []graph.VID) bool) {
	r.transpose()
	for v := 0; v+1 < len(r.dstOffsets); v++ {
		if r.dstOffsets[v] == r.dstOffsets[v+1] {
			continue
		}
		if !fn(graph.VID(v), r.srcs[r.dstOffsets[v]:r.dstOffsets[v+1]]) {
			return
		}
	}
}

// Srcs returns the sorted distinct start vertices.
func (r *Relation) Srcs() []graph.VID {
	var out []graph.VID
	r.EachSrc(func(src graph.VID, _ []graph.VID) bool {
		out = append(out, src)
		return true
	})
	return out
}

// Dsts returns the sorted distinct end vertices.
func (r *Relation) Dsts() []graph.VID {
	var out []graph.VID
	r.EachDst(func(dst graph.VID, _ []graph.VID) bool {
		out = append(out, dst)
		return true
	})
	return out
}

// CSR exposes the relation as plain src-side CSR columns: offsets (len
// NumVertices+1) and the destination column, runs in source order. Both
// alias internal storage and must not be modified; the edge-level
// reduction builds G_R directly from them. A row-shared relation builds
// both columns on the first call and keeps them.
func (r *Relation) CSR() (offsets []int32, dsts []graph.VID) {
	if r.handles == nil {
		return r.offsets, r.dsts
	}
	r.flatOnce.Do(func() {
		offsets := make([]int32, r.numVertices+1)
		flat := make([]graph.VID, 0, r.Len())
		for v, h := range r.handles {
			flat = append(flat, r.dsts[r.offsets[h]:r.offsets[h+1]]...)
			offsets[v+1] = int32(len(flat))
		}
		r.flatOffsets, r.flat = offsets, flat
	})
	return r.flatOffsets, r.flat
}

// Page returns the pairs at positions [offset, offset+limit) of the
// relation's global (src, dst) order — the paging primitive of the
// query service. A limit <= 0 means "through the end"; an offset at or
// past the end returns an empty page. Cost is O(log |V|) to locate the
// starting run plus O(len(page)) to copy it, so paging a huge sealed
// result never touches the pairs outside the page.
func (r *Relation) Page(offset, limit int) []Pair {
	n := r.Len()
	if offset < 0 {
		offset = 0
	}
	if offset >= n {
		return nil
	}
	count := n - offset
	// Compare by subtraction from the bounded side: offset+limit would
	// overflow for huge limits.
	if limit > 0 && limit < count {
		count = limit
	}
	out := make([]Pair, count)
	return out[:r.PageInto(offset, out)]
}

// PageInto is Page writing into a caller-owned buffer: it fills buf
// with the pairs at positions [offset, offset+len(buf)) of the global
// (src, dst) order and returns how many were written — fewer than
// len(buf) only when the relation ends first. Streaming delivery and
// cursor paging reuse one buffer across calls instead of allocating a
// page per response chunk. A negative offset is clamped to 0; an offset
// at or past the end writes nothing.
func (r *Relation) PageInto(offset int, buf []Pair) int {
	n := r.Len()
	if offset < 0 {
		offset = 0
	}
	if offset >= n || len(buf) == 0 {
		return 0
	}
	if len(buf) > n-offset {
		buf = buf[:n-offset]
	}
	v, skip := r.seek(offset)
	written := 0
	for ; written < len(buf); v++ {
		run := r.DstsOf(graph.VID(v))[skip:]
		skip = 0
		run = run[:min(len(run), len(buf)-written)]
		for i, d := range run {
			buf[written+i] = Pair{graph.VID(v), d}
		}
		written += len(run)
	}
	return written
}

// seek returns the first source whose run overlaps position offset <
// Len of the global (src, dst) order, and how many of its pairs come
// before offset: a binary search over the plain offsets, or over the
// row-shared blockStarts and then along at most 64 runs.
func (r *Relation) seek(offset int) (v, skip int) {
	if r.handles == nil {
		v = sort.Search(r.numVertices, func(v int) bool { return int(r.offsets[v+1]) > offset })
		return v, offset - int(r.offsets[v])
	}
	// b blocks start at or before offset: block b overlaps it.
	b := sort.Search(len(r.blockStarts), func(b int) bool { return int(r.blockStarts[b]) > offset })
	skip = offset
	if b > 0 {
		skip -= int(r.blockStarts[b-1])
	}
	for v = b << 6; ; v++ {
		h := r.handles[v]
		size := int(r.offsets[h+1] - r.offsets[h])
		if skip < size {
			return v, skip
		}
		skip -= size
	}
}

// Sorted returns the pairs in (src, dst) order.
func (r *Relation) Sorted() []Pair {
	out := make([]Pair, 0, r.Len())
	r.Each(func(src, dst graph.VID) bool {
		out = append(out, Pair{src, dst})
		return true
	})
	return out
}

// Equal reports whether two relations over the same VID space hold
// exactly the same pairs.
func (r *Relation) Equal(other *Relation) bool {
	if r.numVertices != other.numVertices || r.Len() != other.Len() {
		return false
	}
	equal := true
	r.EachSrc(func(src graph.VID, dsts []graph.VID) bool {
		orun := other.DstsOf(src)
		if len(orun) != len(dsts) {
			equal = false
			return false
		}
		for j := range dsts {
			if dsts[j] != orun[j] {
				equal = false
				return false
			}
		}
		return true
	})
	return equal
}

// EqualSet reports whether the relation holds exactly the pairs of s.
func (r *Relation) EqualSet(s *Set) bool {
	if r.Len() != s.Len() {
		return false
	}
	ok := true
	r.Each(func(src, dst graph.VID) bool {
		if !s.Contains(src, dst) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// Builder accumulates pairs and seals them into an immutable Relation.
// Duplicates are collapsed at Seal time. A Builder is reusable: Seal
// leaves it empty, and the engine pools builders so steady-state
// evaluation reuses the same scratch columns. Not safe for concurrent
// use.
type Builder struct {
	numVertices int
	srcs        []graph.VID
	dsts        []graph.VID

	// scatter buffers reused across Seals.
	counts []int32
	tmp    []graph.VID
}

// NewBuilder returns a builder over the dense VID space
// [0, numVertices).
func NewBuilder(numVertices int) *Builder {
	return &Builder{numVertices: numVertices}
}

// NumVertices returns the VID space size the builder was created with.
func (b *Builder) NumVertices() int { return b.numVertices }

// Add records the pair (src, dst).
func (b *Builder) Add(src, dst graph.VID) {
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
}

// AddPair records p.
func (b *Builder) AddPair(p Pair) { b.Add(p.Src, p.Dst) }

// AddRelation records every pair of r.
func (b *Builder) AddRelation(r *Relation) {
	r.Each(func(src, dst graph.VID) bool {
		b.Add(src, dst)
		return true
	})
}

// Len returns the number of pairs recorded so far (before dedup).
func (b *Builder) Len() int { return len(b.srcs) }

// Reset drops the recorded pairs, keeping capacity for reuse.
func (b *Builder) Reset() {
	b.srcs = b.srcs[:0]
	b.dsts = b.dsts[:0]
}

// Seal freezes the recorded pairs into a Relation — counting sort by
// src into pooled scratch, an insertion/quick sort per run, one dedup
// pass — and resets the builder for reuse. The sealed columns are
// exactly sized and independent of the builder. Its counts and offsets
// are int32: a caller that may record more than math.MaxInt32 pairs
// checks Len first.
func (b *Builder) Seal() *Relation {
	n := b.numVertices
	if len(b.srcs) == 0 {
		if n == 0 {
			return emptyRelation
		}
		return plainRelation(n, make([]int32, n+1), nil)
	}

	if cap(b.counts) < n+1 {
		b.counts = make([]int32, n+1)
	}
	counts := b.counts[:n+1]
	for i := range counts {
		counts[i] = 0
	}
	for _, s := range b.srcs {
		counts[s+1]++
	}
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
	}
	if cap(b.tmp) < len(b.dsts) {
		b.tmp = make([]graph.VID, len(b.dsts))
	}
	tmp := b.tmp[:len(b.dsts)]
	// counts now holds the run start of each src; scatter dsts, walking
	// the cursor forward. Afterwards counts[v] is the end of run v, i.e.
	// the start of run v+1.
	for i, s := range b.srcs {
		tmp[counts[s]] = b.dsts[i]
		counts[s]++
	}

	// Sort and dedup each run in tmp, compacting into the final column.
	dsts := make([]graph.VID, 0, len(tmp))
	offsets := make([]int32, n+1)
	start := int32(0)
	for v := 0; v < n; v++ {
		end := counts[v]
		run := tmp[start:end]
		start = end
		slices.Sort(run)
		for i, d := range run {
			if i == 0 || d != run[i-1] {
				dsts = append(dsts, d)
			}
		}
		offsets[v+1] = int32(len(dsts))
	}
	if len(dsts) < cap(dsts) {
		// Duplicates were dropped: shed the pre-dedup capacity.
		dsts = append(make([]graph.VID, 0, len(dsts)), dsts...)
	}
	b.Reset()
	return plainRelation(n, offsets, dsts)
}

// RelationFromSortedRuns adopts CSR columns a producer wrote already
// sealed — offsets exact, every run strictly ascending, every
// destination in range — as a plain Relation, with no validation and no
// copy, as graph.DiGraphFromCSR does for a DiGraph. The caller must not
// modify the columns afterwards.
func RelationFromSortedRuns(numVertices int, offsets []int32, dsts []graph.VID) *Relation {
	if len(offsets) != numVertices+1 || len(dsts) != int(offsets[numVertices]) {
		panic("pairs: CSR column length mismatch")
	}
	return plainRelation(numVertices, offsets, dsts)
}

// RelationFromBorrowedRuns is RelationFromSortedRuns over columns that
// another immutable structure owns and keeps alive — a graph label's
// CSR (graph.Graph.LabelCSR). The relation reads, counts, pages and
// exposes them exactly as RelationFromSortedRuns would, but ColumnBytes
// reports 0, so a cache that budgets relations by their columns is not
// charged for memory it does not hold.
func RelationFromBorrowedRuns(numVertices int, offsets []int32, dsts []graph.VID) *Relation {
	r := RelationFromSortedRuns(numVertices, offsets, dsts)
	r.borrowed = true
	return r
}

// RelationFromSharedRuns adopts the columns of a producer that stores
// an equal run once for all the sources that have it, as a row-shared
// Relation: runOffsets and dsts are the CSR of the stored runs — run h
// is dsts[runOffsets[h]:runOffsets[h+1]], each strictly ascending, and
// run 0 is empty — and handles[v] is source v's run, 0 for a source
// with no pair. It adds the per-64-source counts in one pass over
// handles, and takes the columns as RelationFromSortedRuns does. The
// relation must hold at most math.MaxInt32 pairs. A producer picks this
// form when it is the smaller (SharedColumnBytes against
// PlainColumnBytes).
func RelationFromSharedRuns(numVertices int, handles, runOffsets []int32, dsts []graph.VID) *Relation {
	runs := len(runOffsets) - 1
	if len(handles) != numVertices || runs < 1 || runOffsets[0] != 0 || runOffsets[1] != 0 || int(runOffsets[runs]) != len(dsts) {
		panic("pairs: shared-run column length mismatch")
	}
	blockStarts := make([]int32, numBlockStarts(numVertices))
	total := 0
	for v, h := range handles {
		if v&63 == 0 && v > 0 {
			blockStarts[v>>6-1] = int32(total)
		}
		if uint(h) >= uint(runs) {
			panic("pairs: shared-run handle out of range")
		}
		total += int(runOffsets[h+1] - runOffsets[h])
		if total > math.MaxInt32 {
			panic("pairs: shared-run relation past math.MaxInt32 pairs")
		}
	}
	return &Relation{numVertices: numVertices, numPairs: total, offsets: runOffsets, dsts: dsts, handles: handles, blockStarts: blockStarts}
}

// RelationFromPairs seals a pair list into a Relation.
func RelationFromPairs(numVertices int, ps ...Pair) *Relation {
	b := NewBuilder(numVertices)
	for _, p := range ps {
		b.AddPair(p)
	}
	return b.Seal()
}
