package pairs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"rtcshare/internal/graph"
)

// randomPairs draws a pair multiset (duplicates deliberately likely) over
// n vertices.
func randomPairs(rng *rand.Rand, n, m int) []Pair {
	ps := make([]Pair, m)
	for i := range ps {
		ps[i] = Pair{Src: graph.VID(rng.Intn(n)), Dst: graph.VID(rng.Intn(n))}
	}
	return ps
}

// Property: sealing a random pair multiset is equivalent to inserting it
// into a Set — same length (dedup), same membership, same sorted pairs —
// and the round trip Set→Relation is an identity.
func TestRelationSetEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		ps := randomPairs(rng, n, rng.Intn(120))

		set := FromPairs(ps...)
		b := NewBuilder(n)
		for _, p := range ps {
			b.AddPair(p)
		}
		rel := b.Seal()

		if rel.Len() != set.Len() || !rel.EqualSet(set) {
			return false
		}
		// Membership agrees on present and absent pairs.
		for i := 0; i < 40; i++ {
			src, dst := graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n))
			if rel.Contains(src, dst) != set.Contains(src, dst) {
				return false
			}
		}
		// Sorted enumerations agree pair for pair.
		rp, sp := rel.Sorted(), set.Sorted()
		for i := range rp {
			if rp[i] != sp[i] {
				return false
			}
		}
		roundTrip := NewBuilder(n)
		set.Each(func(src, dst graph.VID) bool {
			roundTrip.Add(src, dst)
			return true
		})
		return roundTrip.Seal().Equal(rel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: DstsOf/SrcsOf return exactly the Set's per-vertex partners,
// sorted and duplicate-free, and Srcs/Dsts match the Set's endpoint
// projections.
func TestRelationColumnsMatchSetProjections(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(25)
		ps := randomPairs(rng, n, rng.Intn(100))
		set := FromPairs(ps...)
		b := NewBuilder(n)
		for _, p := range ps {
			b.Add(p.Src, p.Dst)
		}
		rel := b.Seal()

		for v := graph.VID(0); int(v) < n; v++ {
			var wantDsts, wantSrcs []graph.VID
			set.Each(func(src, dst graph.VID) bool {
				if src == v {
					wantDsts = append(wantDsts, dst)
				}
				if dst == v {
					wantSrcs = append(wantSrcs, src)
				}
				return true
			})
			if len(rel.DstsOf(v)) != len(wantDsts) || len(rel.SrcsOf(v)) != len(wantSrcs) {
				return false
			}
			for _, run := range [][]graph.VID{rel.DstsOf(v), rel.SrcsOf(v)} {
				for i := 1; i < len(run); i++ {
					if run[i] <= run[i-1] {
						return false
					}
				}
			}
		}
		srcs, dsts := rel.Srcs(), rel.Dsts()
		wantSrcs, wantDsts := set.Srcs(), set.Dsts()
		if len(srcs) != len(wantSrcs) || len(dsts) != len(wantDsts) {
			return false
		}
		for i := range srcs {
			if srcs[i] != wantSrcs[i] {
				return false
			}
		}
		for i := range dsts {
			if dsts[i] != wantDsts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: EachSrc and EachDst visit exactly the non-empty runs in
// ascending order, and their runs tile the whole relation.
func TestRelationRunIteration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		rel := RelationFromPairs(n, randomPairs(rng, n, rng.Intn(80))...)

		total, lastSrc := 0, graph.VID(-1)
		ok := true
		rel.EachSrc(func(src graph.VID, dsts []graph.VID) bool {
			if src <= lastSrc || len(dsts) == 0 {
				ok = false
				return false
			}
			lastSrc = src
			total += len(dsts)
			return true
		})
		if !ok || total != rel.Len() {
			return false
		}
		total, lastDst := 0, graph.VID(-1)
		rel.EachDst(func(dst graph.VID, srcs []graph.VID) bool {
			if dst <= lastDst || len(srcs) == 0 {
				ok = false
				return false
			}
			lastDst = dst
			total += len(srcs)
			return true
		})
		return ok && total == rel.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// A builder is reusable after Seal: the second relation is independent
// of the first and of the builder's recycled scratch.
func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(8)
	b.Add(1, 2)
	b.Add(1, 2) // duplicate collapses
	b.Add(3, 0)
	first := b.Seal()
	if first.Len() != 2 || !first.Contains(1, 2) || !first.Contains(3, 0) {
		t.Fatalf("first seal = %v", first.Sorted())
	}
	if b.Len() != 0 {
		t.Fatalf("builder not reset after Seal: %d pending", b.Len())
	}
	b.Add(7, 7)
	second := b.Seal()
	if second.Len() != 1 || !second.Contains(7, 7) {
		t.Fatalf("second seal = %v", second.Sorted())
	}
	// The first relation is untouched by the reuse.
	if first.Len() != 2 || !first.Contains(1, 2) {
		t.Fatal("first relation corrupted by builder reuse")
	}
}

// Long runs exercise the quicksort path of Seal.
func TestSealLongRuns(t *testing.T) {
	const n = 300
	b := NewBuilder(n)
	for i := n - 1; i >= 0; i-- {
		b.Add(0, graph.VID(i))
		b.Add(0, graph.VID(i)) // every pair duplicated
	}
	rel := b.Seal()
	if rel.Len() != n {
		t.Fatalf("Len = %d, want %d", rel.Len(), n)
	}
	run := rel.DstsOf(0)
	for i := range run {
		if run[i] != graph.VID(i) {
			t.Fatalf("run[%d] = %d", i, run[i])
		}
	}
}

// Seal's columns are exactly sized even when it drops duplicates: the
// cache charges a memoised relation its Len, so spare capacity behind it
// would be resident memory nobody accounts for.
func TestSealExactlySizedAfterDedup(t *testing.T) {
	b := NewBuilder(64)
	for i := 0; i < 1000; i++ {
		b.Add(graph.VID(i%64), graph.VID(i%7))
	}
	rel := b.Seal()
	if rel.Len() != 64*7 {
		t.Fatalf("Len = %d, want %d", rel.Len(), 64*7)
	}
	if _, dsts := rel.CSR(); cap(dsts) != len(dsts) {
		t.Fatalf("dsts column has cap %d for %d pairs", cap(dsts), len(dsts))
	}
}

func TestEmptyRelation(t *testing.T) {
	rel := NewBuilder(5).Seal()
	if rel.Len() != 0 || rel.NumVertices() != 5 {
		t.Fatalf("empty relation: len=%d n=%d", rel.Len(), rel.NumVertices())
	}
	if got := rel.DstsOf(3); len(got) != 0 {
		t.Fatalf("DstsOf on empty = %v", got)
	}
	if got := rel.SrcsOf(3); len(got) != 0 {
		t.Fatalf("SrcsOf on empty = %v", got)
	}
	if !rel.EqualSet(NewSet()) {
		t.Fatal("empty relation != empty set")
	}
	zero := NewBuilder(0).Seal()
	if zero.Len() != 0 {
		t.Fatal("zero-vertex relation not empty")
	}
}

// Property: Page(offset, limit) is exactly the corresponding slice of
// Sorted(), for any offset/limit including the degenerate ones.
func TestRelationPage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := NewBuilder(n)
		for _, p := range randomPairs(rng, n, rng.Intn(120)) {
			b.AddPair(p)
		}
		rel := b.Seal()
		sorted := rel.Sorted()

		offsets := []int{0, 1, len(sorted) / 2, len(sorted) - 1, len(sorted), len(sorted) + 3, -2}
		limits := []int{0, -1, 1, 2, len(sorted) / 3, len(sorted), len(sorted) + 5}
		for _, off := range offsets {
			for _, lim := range limits {
				got := rel.Page(off, lim)
				start := max(off, 0)
				if start > len(sorted) {
					start = len(sorted)
				}
				end := len(sorted)
				if lim > 0 && start+lim < end {
					end = start + lim
				}
				want := sorted[start:end]
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRelationPageEmpty(t *testing.T) {
	rel := NewBuilder(0).Seal()
	if got := rel.Page(0, 10); len(got) != 0 {
		t.Fatalf("empty relation paged %d pairs", len(got))
	}
}

func TestRelationPageHugeLimit(t *testing.T) {
	rel := RelationFromPairs(4, Pair{Src: 0, Dst: 1}, Pair{Src: 1, Dst: 2}, Pair{Src: 3, Dst: 0})
	// offset+limit must not overflow into a negative slice capacity.
	got := rel.Page(1, math.MaxInt)
	if len(got) != 2 || got[0] != (Pair{Src: 1, Dst: 2}) || got[1] != (Pair{Src: 3, Dst: 0}) {
		t.Fatalf("Page(1, MaxInt) = %v", got)
	}
	if got := rel.Page(math.MaxInt, math.MaxInt); len(got) != 0 {
		t.Fatalf("Page(MaxInt, MaxInt) = %v", got)
	}
}

// Property: PageInto(offset, buf) writes exactly what Page(offset,
// len(buf)) returns, for any offset and buffer size — the streaming
// layer leans on the two staying interchangeable.
func TestRelationPageIntoMatchesPage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := NewBuilder(n)
		for _, p := range randomPairs(rng, n, rng.Intn(120)) {
			b.AddPair(p)
		}
		rel := b.Seal()
		for _, off := range []int{-1, 0, 1, rel.Len() / 2, rel.Len() - 1, rel.Len(), rel.Len() + 4} {
			for _, size := range []int{0, 1, 2, 7, rel.Len(), rel.Len() + 3} {
				buf := make([]Pair, size)
				got := buf[:rel.PageInto(off, buf)]
				want := rel.Page(off, size)
				if size == 0 {
					// Page(off, 0) means "to the end"; PageInto with an
					// empty buffer writes nothing. Only the count contract
					// applies here.
					if len(got) != 0 {
						return false
					}
					continue
				}
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRelationPageIntoEdgeCases(t *testing.T) {
	rel := RelationFromPairs(4,
		Pair{Src: 0, Dst: 1}, Pair{Src: 0, Dst: 2}, Pair{Src: 0, Dst: 3},
		Pair{Src: 2, Dst: 0},
		Pair{Src: 3, Dst: 1}, Pair{Src: 3, Dst: 2},
	)
	buf := make([]Pair, 4)
	if n := rel.PageInto(rel.Len(), buf); n != 0 {
		t.Fatalf("PageInto(len) = %d, want 0", n)
	}
	if n := rel.PageInto(rel.Len()+5, buf); n != 0 {
		t.Fatalf("PageInto(past end) = %d, want 0", n)
	}
	if n := rel.PageInto(0, nil); n != 0 {
		t.Fatalf("PageInto(0, nil) = %d, want 0", n)
	}
	if n := rel.PageInto(-2, buf[:2]); n != 2 || buf[0] != (Pair{Src: 0, Dst: 1}) {
		t.Fatalf("negative offset: n=%d buf=%v, want clamp to start", n, buf[:2])
	}
	// Page starting inside the last run.
	if n := rel.PageInto(5, buf); n != 1 || buf[0] != (Pair{Src: 3, Dst: 2}) {
		t.Fatalf("PageInto(5) = %d %v, want the final pair", n, buf[:n])
	}
	empty := NewBuilder(0).Seal()
	if n := empty.PageInto(0, buf); n != 0 {
		t.Fatalf("empty PageInto = %d, want 0", n)
	}
	single := RelationFromPairs(2, Pair{Src: 1, Dst: 0})
	if n := single.PageInto(0, buf); n != 1 || buf[0] != (Pair{Src: 1, Dst: 0}) {
		t.Fatalf("singleton PageInto = %d %v", n, buf[:n])
	}
	if n := single.PageInto(1, buf); n != 0 {
		t.Fatalf("singleton PageInto(1) = %d, want 0", n)
	}
}

// TestRelationPageEdgeCases pins the documented paging semantics on a
// relation whose CSR rows have uneven run lengths, so pages cross row
// boundaries mid-run:
//
//	src 0: (0,1) (0,2) (0,3)   src 2: (2,0)   src 3: (3,1) (3,2)
func TestRelationPageEdgeCases(t *testing.T) {
	rel := RelationFromPairs(4,
		Pair{Src: 0, Dst: 1}, Pair{Src: 0, Dst: 2}, Pair{Src: 0, Dst: 3},
		Pair{Src: 2, Dst: 0},
		Pair{Src: 3, Dst: 1}, Pair{Src: 3, Dst: 2},
	)
	sorted := rel.Sorted()
	cases := []struct {
		name          string
		offset, limit int
		want          []Pair
	}{
		{"offset at end", rel.Len(), 5, nil},
		{"offset past end", rel.Len() + 10, 5, nil},
		{"negative offset clamps to start", -3, 2, sorted[:2]},
		{"zero limit means to the end", 1, 0, sorted[1:]},
		{"negative limit means to the end", 2, -1, sorted[2:]},
		{"page spans row 0 into row 2", 2, 2, []Pair{{Src: 0, Dst: 3}, {Src: 2, Dst: 0}}},
		{"page spans three rows", 1, 5, sorted[1:]},
		{"page starts mid-row 3", 5, 3, []Pair{{Src: 3, Dst: 2}}},
	}
	for _, c := range cases {
		got := rel.Page(c.offset, c.limit)
		if len(got) != len(c.want) {
			t.Errorf("%s: Page(%d, %d) = %v, want %v", c.name, c.offset, c.limit, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: Page(%d, %d) = %v, want %v", c.name, c.offset, c.limit, got, c.want)
				break
			}
		}
	}
}

// sharedForm stores each distinct run of rel once, in first-use order,
// and points every source with that run at the copy.
func sharedForm(rel *Relation) *Relation {
	n := rel.NumVertices()
	handles := make([]int32, n)
	runOffsets := []int32{0, 0}
	var dsts []graph.VID
	at := make(map[string]int32)
	for v := 0; v < n; v++ {
		run := rel.DstsOf(graph.VID(v))
		if len(run) == 0 {
			continue
		}
		key := fmt.Sprint(run)
		h, ok := at[key]
		if !ok {
			h = int32(len(runOffsets) - 1)
			at[key] = h
			dsts = append(dsts, run...)
			runOffsets = append(runOffsets, int32(len(dsts)))
		}
		handles[v] = h
	}
	return RelationFromSharedRuns(n, handles, runOffsets, dsts)
}

// repeatedRuns draws a relation over n vertices whose sources take one
// of a few random rows or none, so runs repeat — sources 0 and 1 always
// share a non-empty row.
func repeatedRuns(rng *rand.Rand, n int) *Relation {
	rows := make([][]graph.VID, 1+rng.Intn(4))
	for i := range rows {
		for len(rows[i]) == 0 {
			for w := 0; w < n; w++ {
				if rng.Intn(3) == 0 {
					rows[i] = append(rows[i], graph.VID(w))
				}
			}
		}
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		row := rows[0]
		if v > 1 {
			if i := rng.Intn(len(rows) + 1); i < len(rows) {
				row = rows[i]
			} else {
				row = nil
			}
		}
		for _, w := range row {
			b.Add(graph.VID(v), w)
		}
	}
	return b.Seal()
}

// Property: a row-shared relation and the plain CSR of the same pairs
// agree on every accessor — counts, runs, both iteration orders,
// membership, paging from every offset and run boundary, equality both
// ways and against a Set, the flattened CSR and the sorted pairs — while
// the shared form holds fewer column bytes.
func TestSharedRunsMatchPlain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		plain := repeatedRuns(rng, n)
		shared := sharedForm(plain)
		if shared.Len() != plain.Len() || shared.ColumnBytes() >= plain.ColumnBytes()+4*int64(n) {
			return false
		}
		for v := graph.VID(0); int(v) < n; v++ {
			if !slices.Equal(shared.DstsOf(v), plain.DstsOf(v)) || !slices.Equal(shared.SrcsOf(v), plain.SrcsOf(v)) {
				return false
			}
			for w := graph.VID(0); int(w) < n; w++ {
				if shared.Contains(v, w) != plain.Contains(v, w) {
					return false
				}
			}
		}
		type run struct {
			v    graph.VID
			list []graph.VID
		}
		collect := func(each func(func(graph.VID, []graph.VID) bool)) []run {
			var out []run
			each(func(v graph.VID, list []graph.VID) bool {
				out = append(out, run{v, slices.Clone(list)})
				return true
			})
			return out
		}
		sameRuns := func(a, b []run) bool {
			return slices.EqualFunc(a, b, func(x, y run) bool { return x.v == y.v && slices.Equal(x.list, y.list) })
		}
		if !sameRuns(collect(shared.EachSrc), collect(plain.EachSrc)) || !sameRuns(collect(shared.EachDst), collect(plain.EachDst)) {
			return false
		}
		var each []Pair
		shared.Each(func(src, dst graph.VID) bool {
			each = append(each, Pair{src, dst})
			return true
		})
		sorted := plain.Sorted()
		if !slices.Equal(each, sorted) || !slices.Equal(shared.Sorted(), sorted) {
			return false
		}
		// Every offset covers every run boundary; sizes straddle them.
		for off := -1; off <= plain.Len()+1; off++ {
			for _, size := range []int{1, 2, 5, plain.Len()} {
				if !slices.Equal(shared.Page(off, size), plain.Page(off, size)) {
					return false
				}
				buf := make([]Pair, size)
				if got := buf[:shared.PageInto(off, buf)]; !slices.Equal(got, plain.Page(off, size)) {
					return false
				}
			}
		}
		so, sd := shared.CSR()
		po, pd := plain.CSR()
		return shared.Equal(plain) && plain.Equal(shared) && shared.EqualSet(FromPairs(sorted...)) &&
			slices.Equal(so, po) && slices.Equal(sd, pd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sharedRowOf is source v's run over n vertices in
// TestSharedRelationMatchesPlain: every seventh source empty, one run
// for every fifth (non-adjacent sources), one run for sources 62–66,
// which straddle the first block boundary, one for the even sources of a
// partial last block of 64, and a run of its own otherwise.
func sharedRowOf(v, n int) []graph.VID {
	last := n &^ 63
	switch {
	case v%7 == 3:
		return nil
	case v >= 62 && v <= 66:
		return []graph.VID{1, 2, 3}
	case n%64 != 0 && v >= last && v%2 == 0:
		return []graph.VID{graph.VID(n / 2)}
	case v%5 == 0:
		return slices.Compact([]graph.VID{0, graph.VID(n - 1)})
	}
	run := []graph.VID{graph.VID(v), graph.VID(v * 7 % n)}
	slices.Sort(run)
	return slices.Compact(run)
}

// TestSharedRelationMatchesPlain: a row-shared relation, built from its
// columns, agrees with the same pairs sealed by Builder on every
// accessor, pages alike from every offset at limits across a block of
// 64 sources, and holds exactly its column bytes: its stored runs, a
// handle per source, a count per block of 64 sources but the first, and
// an offset per stored run plus two for the empty run.
func TestSharedRelationMatchesPlain(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		b := NewBuilder(n)
		distinct := map[string]bool{}
		stored := 0
		for v := range n {
			run := sharedRowOf(v, n)
			for _, w := range run {
				b.Add(graph.VID(v), w)
			}
			if key := fmt.Sprint(run); len(run) > 0 && !distinct[key] {
				distinct[key] = true
				stored += len(run)
			}
		}
		plain := b.Seal()
		shared := sharedForm(plain)
		ctx := fmt.Sprintf("n=%d", n)
		if want := int64(4 * (stored + n + max((n+63)/64-1, 0) + len(distinct) + 2)); shared.ColumnBytes() != want {
			t.Errorf("%s: %d column bytes, want %d", ctx, shared.ColumnBytes(), want)
		}
		if shared.Len() != plain.Len() || !shared.Equal(plain) || !plain.Equal(shared) {
			t.Fatalf("%s: %d pairs, plain %d, or unequal", ctx, shared.Len(), plain.Len())
		}
		for v := range graph.VID(n) {
			if !slices.Equal(shared.DstsOf(v), plain.DstsOf(v)) || !slices.Equal(shared.SrcsOf(v), plain.SrcsOf(v)) {
				t.Fatalf("%s: vertex %d: DstsOf %v SrcsOf %v, want %v and %v", ctx, v, shared.DstsOf(v), shared.SrcsOf(v), plain.DstsOf(v), plain.SrcsOf(v))
			}
			for w := range graph.VID(n) {
				if shared.Contains(v, w) != plain.Contains(v, w) {
					t.Fatalf("%s: Contains(%d, %d) = %v", ctx, v, w, shared.Contains(v, w))
				}
			}
		}
		type run struct {
			v    graph.VID
			list []graph.VID
		}
		collect := func(each func(func(graph.VID, []graph.VID) bool)) []run {
			var out []run
			each(func(v graph.VID, list []graph.VID) bool {
				out = append(out, run{v, slices.Clone(list)})
				return true
			})
			return out
		}
		sameRuns := func(a, b []run) bool {
			return slices.EqualFunc(a, b, func(x, y run) bool { return x.v == y.v && slices.Equal(x.list, y.list) })
		}
		if !sameRuns(collect(shared.EachSrc), collect(plain.EachSrc)) || !sameRuns(collect(shared.EachDst), collect(plain.EachDst)) {
			t.Fatalf("%s: EachSrc or EachDst differs", ctx)
		}
		var each []Pair
		shared.Each(func(src, dst graph.VID) bool {
			each = append(each, Pair{src, dst})
			return true
		})
		sorted := plain.Sorted()
		if !slices.Equal(each, sorted) || !slices.Equal(shared.Sorted(), sorted) {
			t.Fatalf("%s: Each or Sorted differs", ctx)
		}
		so, sd := shared.CSR()
		po, pd := plain.CSR()
		if !slices.Equal(so, po) || !slices.Equal(sd, pd) {
			t.Fatalf("%s: CSR differs", ctx)
		}
		for off := 0; off <= plain.Len(); off++ {
			for _, limit := range []int{1, 63, 64, 65, 0} {
				want := plain.Page(off, limit)
				if got := shared.Page(off, limit); !slices.Equal(got, want) {
					t.Fatalf("%s: Page(%d, %d) = %v, want %v", ctx, off, limit, got, want)
				}
				buf := make([]Pair, limit)
				if limit == 0 {
					buf = make([]Pair, plain.Len()+1)
				}
				if got := buf[:shared.PageInto(off, buf)]; !slices.Equal(got, want) {
					t.Fatalf("%s: PageInto(%d, %d) = %v, want %v", ctx, off, len(buf), got, want)
				}
			}
		}
	}
}

// A shared relation differing from a plain one in a single pair is
// unequal both ways.
func TestSharedRunsEqualDetectsDifference(t *testing.T) {
	plain := RelationFromPairs(3, Pair{0, 1}, Pair{0, 2}, Pair{1, 1}, Pair{1, 2}, Pair{2, 1}, Pair{2, 0})
	shared := RelationFromSharedRuns(3, []int32{1, 1, 1}, []int32{0, 0, 2}, []graph.VID{1, 2})
	if shared.Equal(plain) || plain.Equal(shared) {
		t.Fatal("relations differing in source 2's run compare equal")
	}
	if want := RelationFromPairs(3, Pair{0, 1}, Pair{0, 2}, Pair{1, 1}, Pair{1, 2}, Pair{2, 1}, Pair{2, 2}); !shared.Equal(want) {
		t.Fatalf("shared = %v", shared.Sorted())
	}
}

// RelationFromSharedRuns refuses columns that do not describe a shared
// relation: wrong lengths, a non-empty run 0, or a handle past the
// stored runs.
func TestRelationFromSharedRunsRejectsBadColumns(t *testing.T) {
	for _, c := range []struct {
		name                string
		handles, runOffsets []int32
		dsts                []graph.VID
	}{
		{"short handles", []int32{1}, []int32{0, 0, 1}, []graph.VID{0}},
		{"offsets past dsts", []int32{1, 1}, []int32{0, 0, 2}, []graph.VID{0}},
		{"no empty run", []int32{1, 1}, []int32{0}, nil},
		{"run 0 not empty", []int32{0, 0}, []int32{0, 1}, []graph.VID{0}},
		{"handle out of range", []int32{1, 2}, []int32{0, 0, 1}, []graph.VID{0}},
		{"negative handle", []int32{1, -1}, []int32{0, 0, 1}, []graph.VID{0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			RelationFromSharedRuns(2, c.handles, c.runOffsets, c.dsts)
		}()
	}
}

// The lazily built columns of a shared relation — the transpose and the
// flattened CSR — are safe to build from several goroutines at once, and
// every caller sees the finished column.
func TestSharedRunsConcurrentLazyColumns(t *testing.T) {
	plain := repeatedRuns(rand.New(rand.NewSource(5)), 64)
	shared := sharedForm(plain)
	_, wantDsts := plain.CSR()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(w graph.VID) {
			defer wg.Done()
			if _, dsts := shared.CSR(); !slices.Equal(dsts, wantDsts) {
				t.Error("flattened CSR differs from the plain form")
			}
			if !slices.Equal(shared.SrcsOf(w), plain.SrcsOf(w)) {
				t.Errorf("SrcsOf(%d) differs from the plain form", w)
			}
		}(graph.VID(i))
	}
	wg.Wait()
}

// A relation over borrowed columns reads, pages and exposes them exactly
// as the owned form does, aliasing them rather than copying, and charges
// them 0 bytes.
func TestBorrowedRunsMatchPlain(t *testing.T) {
	plain := RelationFromPairs(5, Pair{0, 1}, Pair{0, 4}, Pair{2, 2}, Pair{3, 0}, Pair{3, 1}, Pair{3, 4})
	offsets, dsts := plain.CSR()
	borrowed := RelationFromBorrowedRuns(5, offsets, dsts)
	if borrowed.ColumnBytes() != 0 || plain.ColumnBytes() == 0 {
		t.Fatalf("ColumnBytes: borrowed %d, plain %d", borrowed.ColumnBytes(), plain.ColumnBytes())
	}
	if borrowed.Len() != plain.Len() || !borrowed.Equal(plain) {
		t.Fatalf("borrowed relation %v != plain %v", borrowed.Sorted(), plain.Sorted())
	}
	for off := 0; off <= plain.Len(); off++ {
		if !slices.Equal(borrowed.Page(off, 2), plain.Page(off, 2)) {
			t.Fatalf("Page(%d, 2) differs", off)
		}
	}
	for w := graph.VID(0); w < 5; w++ {
		if !slices.Equal(borrowed.SrcsOf(w), plain.SrcsOf(w)) {
			t.Fatalf("SrcsOf(%d) differs", w)
		}
	}
	if bo, bd := borrowed.CSR(); &bo[0] != &offsets[0] || &bd[0] != &dsts[0] {
		t.Fatal("borrowed relation copied its columns")
	}
}
