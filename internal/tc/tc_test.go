package tc

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
)

func digraph(n int, edges [][2]graph.VID) *graph.DiGraph {
	b := graph.NewDiBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// TestPaperExample4 reproduces Example 4: TC(G_{b·c}).
func TestPaperExample4(t *testing.T) {
	gbc := digraph(10, [][2]graph.VID{{2, 4}, {2, 6}, {3, 5}, {4, 2}, {5, 3}})
	want := pairs.FromPairs(
		pairs.Pair{Src: 2, Dst: 2}, pairs.Pair{Src: 2, Dst: 4}, pairs.Pair{Src: 2, Dst: 6},
		pairs.Pair{Src: 3, Dst: 3}, pairs.Pair{Src: 3, Dst: 5},
		pairs.Pair{Src: 4, Dst: 2}, pairs.Pair{Src: 4, Dst: 4}, pairs.Pair{Src: 4, Dst: 6},
		pairs.Pair{Src: 5, Dst: 3}, pairs.Pair{Src: 5, Dst: 5},
	)
	got := BFS(gbc)
	if !got.ToPairs().Equal(want) {
		t.Errorf("TC = %v, want %v", got.ToPairs().Sorted(), want.Sorted())
	}
	if got.NumPairs() != 10 {
		t.Errorf("NumPairs = %d, want 10", got.NumPairs())
	}
}

func TestSelfLoopSemantics(t *testing.T) {
	// (u,u) ∈ TC only via a cycle: path length ≥ 1.
	c := BFS(digraph(3, [][2]graph.VID{{0, 1}}))
	if c.Reachable(0, 0) {
		t.Error("(0,0) reachable without a cycle")
	}
	if !c.Reachable(0, 1) {
		t.Error("(0,1) missing")
	}
	if c.Reachable(1, 0) {
		t.Error("(1,0) present, edges are directed")
	}
	if !BFS(digraph(2, [][2]graph.VID{{0, 0}})).Reachable(0, 0) {
		t.Error("self-loop lost")
	}
}

func TestChain(t *testing.T) {
	c := BFS(digraph(4, [][2]graph.VID{{0, 1}, {1, 2}, {2, 3}}))
	if c.NumPairs() != 6 { // 0→{1,2,3}, 1→{2,3}, 2→{3}
		t.Errorf("NumPairs = %d, want 6", c.NumPairs())
	}
	if got := c.From(0); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("From(0) = %v", got)
	}
	if got := c.From(3); len(got) != 0 {
		t.Errorf("From(3) = %v, want empty", got)
	}
}

func TestCycleIsComplete(t *testing.T) {
	c := BFS(digraph(3, [][2]graph.VID{{0, 1}, {1, 2}, {2, 0}}))
	if c.NumPairs() != 9 {
		t.Errorf("NumPairs = %d, want 9 (complete relation on a cycle)", c.NumPairs())
	}
}

func TestEmptyGraph(t *testing.T) {
	if c := BFS(digraph(5, nil)); c.NumPairs() != 0 {
		t.Errorf("NumPairs = %d, want 0", c.NumPairs())
	}
}

func TestEachOrderAndEarlyStop(t *testing.T) {
	d := digraph(3, [][2]graph.VID{{1, 2}, {0, 1}})
	c := BFS(d)
	var got []pairs.Pair
	c.Each(func(u, w graph.VID) bool {
		got = append(got, pairs.Pair{Src: u, Dst: w})
		return true
	})
	want := []pairs.Pair{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	if len(got) != len(want) {
		t.Fatalf("Each = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each = %v, want %v", got, want)
		}
	}
	n := 0
	c.Each(func(u, w graph.VID) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

// closureOf builds a closure from rows listed by hand, one run per
// vertex, as bfs stores its rows.
func closureOf(n int, rows [][]graph.VID) *Closure {
	c := &Closure{numVertices: n}
	acc := pairs.NewRunAccumulator(n)
	for u := range n {
		if u < len(rows) {
			acc.AddAll(rows[u])
			c.numPairs += len(rows[u])
		}
		c.rows.Drain(acc)
	}
	return c
}

func TestClosureEqual(t *testing.T) {
	a := BFS(digraph(3, [][2]graph.VID{{0, 1}, {1, 2}}))
	byHand := closureOf(3, [][]graph.VID{{1, 2}, {2}, nil})
	if !a.Equal(byHand) {
		t.Error("Equal false negative")
	}
	c := BFS(digraph(3, [][2]graph.VID{{0, 1}}))
	if a.Equal(c) {
		t.Error("Equal false positive")
	}
	if a.Equal(closureOf(3, [][]graph.VID{{1}, {2}, {0}})) {
		t.Error("Equal false positive on equal pair counts")
	}
}

// floydWarshall is the oracle for property tests: the closure of d,
// restricted to the pairs whose both ends keep marks (nil keeps all).
func floydWarshall(d *graph.DiGraph, keep []bool) *pairs.Set {
	n := d.NumVertices()
	reach := make([][]bool, n)
	for i := range reach {
		reach[i] = make([]bool, n)
	}
	d.Edges(func(src, dst graph.VID) bool {
		reach[src][dst] = true
		return true
	})
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	kept := func(v int) bool { return keep == nil || keep[v] }
	out := pairs.NewSet()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if reach[i][j] && kept(i) && kept(j) {
				out.Add(graph.VID(i), graph.VID(j))
			}
		}
	}
	return out
}

// batchSizes are vertex counts around the 64-source batch: one short of
// a full batch, exactly one, one over, and two and three full batches
// with a partial one after them.
var batchSizes = []int{63, 64, 65, 130, 200}

// randomDigraph draws up to 200 vertices, so a graph's sources span up
// to four 64-source batches with a partial last one. Half the graphs
// are sparse, up to 3|V| edges, so some vertices have no out-edge or no
// edge at all. The other half are dense, up to |V|²/2 edges, so that
// levels run bottom-up; half of those take a size from batchSizes, so
// bottom-up levels are reached in full and in partial batches.
func randomDigraph(rng *rand.Rand) *graph.DiGraph {
	n := 1 + rng.Intn(200)
	m := rng.Intn(3*n + 1)
	if rng.Intn(2) == 0 {
		if rng.Intn(2) == 0 {
			n = batchSizes[rng.Intn(len(batchSizes))]
		}
		m = rng.Intn(n*n/2 + 1)
	}
	b := graph.NewDiBuilder(n)
	for ; m > 0; m-- {
		b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)))
	}
	return b.Build()
}

// checkAgainstFloydWarshall reports how c, built over d with filter
// keep, departs from the Floyd-Warshall closure: a pair set that
// differs, a row that is unsorted or holds a duplicate, or a NumPairs
// that is not the rows' total.
func checkAgainstFloydWarshall(d *graph.DiGraph, keep []bool, c *Closure) string {
	if !c.ToPairs().Equal(floydWarshall(d, keep)) {
		return "pairs differ from Floyd-Warshall"
	}
	total := 0
	for v := 0; v < d.NumVertices(); v++ {
		s := c.From(graph.VID(v))
		total += len(s)
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return fmt.Sprintf("row %d unsorted or duplicated: %v", v, s)
			}
		}
	}
	if total != c.NumPairs() {
		return fmt.Sprintf("NumPairs = %d, rows hold %d", c.NumPairs(), total)
	}
	return checkWordRows(c, keep)
}

// checkWordRows reports how c's word rows depart from their form: a
// word index not strictly above the one before it, a zero word, a bit
// at or past NumVertices, popcounts that do not sum to NumPairs, or,
// under a keep filter, an unkept vertex with a row or in one.
func checkWordRows(c *Closure, keep []bool) string {
	n := c.NumVertices()
	kept := func(v int) bool { return keep == nil || keep[v] }
	total := 0
	for u := range n {
		idx, words := c.Row(graph.VID(u))
		if len(idx) > 0 && !kept(u) {
			return fmt.Sprintf("unkept vertex %d has a row", u)
		}
		for k, wi := range idx {
			if k > 0 && wi <= idx[k-1] {
				return fmt.Sprintf("row %d: word index %d after %d", u, wi, idx[k-1])
			}
			w := words[k]
			if w == 0 {
				return fmt.Sprintf("row %d: zero word at index %d", u, wi)
			}
			total += bits.OnesCount64(w)
			for ; w != 0; w &= w - 1 {
				v := int(wi)<<6 + bits.TrailingZeros64(w)
				if v >= n {
					return fmt.Sprintf("row %d: bit %d at or past NumVertices %d", u, v, n)
				}
				if !kept(v) {
					return fmt.Sprintf("row %d holds unkept vertex %d", u, v)
				}
			}
		}
	}
	if total != c.NumPairs() {
		return fmt.Sprintf("NumPairs = %d, row popcounts sum to %d", c.NumPairs(), total)
	}
	return ""
}

// Property: BFS agrees with Floyd-Warshall.
func TestAlgorithmsAgainstFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDigraph(rand.New(rand.NewSource(seed)))
		if msg := checkAgainstFloydWarshall(d, nil, BFS(d)); msg != "" {
			t.Logf("BFS, n=%d: %s", d.NumVertices(), msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFSAmong agrees with Floyd-Warshall filtered by keep, for a
// keep mask drawn per vertex.
func TestBFSAmongAgainstFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDigraph(rng)
		keep := make([]bool, d.NumVertices())
		for v := range keep {
			keep[v] = rng.Intn(3) > 0
		}
		if msg := checkAgainstFloydWarshall(d, keep, BFSAmong(d, keep)); msg != "" {
			t.Logf("BFSAmong, n=%d: %s", d.NumVertices(), msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: From slices are sorted and duplicate-free, NumPairs is
// consistent with them, and a vertex without an out-edge has no row.
// The word rows hold their form (checkWordRows) under BFS and under
// BFSAmong with a keep mask drawn per vertex.
func TestClosureInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randomDigraph(rng)
		c := BFS(d)
		keep := make([]bool, d.NumVertices())
		for v := range keep {
			keep[v] = rng.Intn(3) > 0
		}
		for _, check := range []struct {
			c    *Closure
			keep []bool
		}{{c, nil}, {BFSAmong(d, keep), keep}} {
			if msg := checkWordRows(check.c, check.keep); msg != "" {
				t.Logf("n=%d, keep %v: %s", d.NumVertices(), check.keep != nil, msg)
				return false
			}
		}
		total := 0
		for v := 0; v < d.NumVertices(); v++ {
			s := c.From(graph.VID(v))
			if d.OutDegree(graph.VID(v)) == 0 && len(s) > 0 {
				return false
			}
			total += len(s)
			for i := 1; i < len(s); i++ {
				if s[i] <= s[i-1] {
					return false
				}
			}
		}
		return total == c.NumPairs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// FuzzClosure checks BFS and BFSAmong against Floyd-Warshall, and
// their word rows against their form (checkWordRows), over decoded
// inputs: the first byte sizes the graph (at most 200
// vertices), every further two bytes are one edge, and bit v%64 of keep
// marks vertex v for BFSAmong. An odd count of bytes after the first
// selects the dense mode: the second byte is then a flag byte whose
// value sets a density, and before the byte pairs add theirs a PRNG
// seeded by keep draws density/255 · |V|²/2 edges, so that levels run
// bottom-up.
func FuzzClosure(f *testing.F) {
	f.Add(uint64(0xffff_0000_ffff_0000), []byte{4, 0, 1, 1, 2, 2, 0, 3, 3})
	f.Add(uint64(0x5555_5555_5555_5555), []byte{199, 0, 70, 70, 140, 140, 0, 64, 65, 198, 63})
	f.Add(uint64(1), []byte{0})
	// Dense mode, at sizes around the 64-source batch.
	f.Add(uint64(0xdead_beef_0bad_f00d), []byte{62, 255})
	f.Add(uint64(0x0123_4567_89ab_cdef), []byte{63, 128})
	f.Add(uint64(0xffff_ffff_ffff_ffff), []byte{64, 40, 0, 64, 64, 0})
	f.Add(uint64(0x5555_5555_5555_5555), []byte{129, 200})
	f.Add(uint64(7), []byte{199, 16, 198, 199})
	f.Fuzz(func(t *testing.T, keepBits uint64, data []byte) {
		n := 1
		if len(data) > 0 {
			n += int(data[0]) % 200
			data = data[1:]
		}
		b := graph.NewDiBuilder(n)
		if len(data)%2 == 1 {
			rng := rand.New(rand.NewSource(int64(keepBits)))
			for m := int(data[0]) * (n * n / 2) / 255; m > 0; m-- {
				b.AddEdge(graph.VID(rng.Intn(n)), graph.VID(rng.Intn(n)))
			}
			data = data[1:]
		}
		for ; len(data) >= 2; data = data[2:] {
			b.AddEdge(graph.VID(int(data[0])%n), graph.VID(int(data[1])%n))
		}
		d := b.Build()
		keep := make([]bool, n)
		for v := range keep {
			keep[v] = keepBits>>(v%64)&1 != 0
		}
		if msg := checkAgainstFloydWarshall(d, nil, BFS(d)); msg != "" {
			t.Fatalf("BFS: %s", msg)
		}
		if msg := checkAgainstFloydWarshall(d, keep, BFSAmong(d, keep)); msg != "" {
			t.Fatalf("BFSAmong: %s", msg)
		}
	})
}

// ring is the directed cycle 0 → 1 → … → n-1 → 0, whose closure is
// complete: n² pairs.
func ring(n int) *graph.DiGraph {
	b := graph.NewDiBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VID(i), graph.VID((i+1)%n))
	}
	return b.Build()
}

// TestBFSCheckPollsInsideBatch: on a 2^14-vertex ring every search of
// the first batch walks the whole ring, 2^14 levels. A checkpoint that
// fails on its second call, the first inside the batch, must abort
// there, having allocated no more than the search's own state, and
// less than an abort after the batch, which has written the batch's
// rows too. Uncancelled, the rows charged to the checkpoint cover at
// least every pair the closure holds.
func TestBFSCheckPollsInsideBatch(t *testing.T) {
	const n = 1 << 14
	d := ring(n)
	stop := errors.New("stop")
	abortAt := func(call int) (calls int, bytes uint64, err error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := BFSCheck(d, func(int) error {
			if calls++; calls == call {
				return stop
			}
			return nil
		})
		runtime.ReadMemStats(&after)
		if c != nil {
			t.Fatalf("BFSCheck returned a closure with error %v", err)
		}
		return calls, after.TotalAlloc - before.TotalAlloc, err
	}
	// The state takes at most 36 bytes a vertex: 8 for the seen masks and
	// an eighth for the queued bits, 4 for the row offsets and at most 20
	// for the source list, whose appends allocate about five times its
	// final 4. The first batch's rows add 12 more: 64 rows of 2^14/64
	// words, each word 8 bytes and its index 4.
	const bound = 36 * n
	calls, bytes, err := abortAt(2)
	if err != stop || calls != 2 {
		t.Fatalf("BFSCheck = %v after %d calls; want the checkpoint's error after 2", err, calls)
	}
	if bytes > bound {
		t.Fatalf("an abort inside the first batch allocated %d bytes, want at most %d", bytes, bound)
	}
	// The first batch polls before it starts and after each of its n+1
	// levels, so call n+3 is the second batch's first.
	if calls, bytes, err := abortAt(n + 3); err != stop || calls != n+3 || bytes <= bound {
		t.Fatalf("an abort after the first batch: %v after %d calls, %d bytes; want the checkpoint's error after %d, more than %d bytes", err, calls, bytes, n+3, bound)
	}

	small := ring(1000)
	charged := 0
	c, err := BFSCheck(small, func(rows int) error {
		charged += rows
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPairs() != 1000*1000 || charged < c.NumPairs() {
		t.Fatalf("NumPairs = %d with %d rows charged; want 10^6 pairs, all charged", c.NumPairs(), charged)
	}
}

// complete is the complete digraph on n vertices, self-loops included:
// every vertex reaches every vertex in one step.
func complete(n int) *graph.DiGraph {
	b := graph.NewDiBuilder(n)
	for u := 0; u < n; u++ {
		for w := 0; w < n; w++ {
			b.AddEdge(graph.VID(u), graph.VID(w))
		}
	}
	return b.Build()
}

// TestBFSCheckPollsBottomUp: on the complete digraph of 128 vertices,
// two full batches, each batch's frontier covers every edge after its
// first step, so both of its levels run bottom-up. The checkpoint is
// polled six times — before each batch and after each of its two
// levels — and one failing on any of those calls, among them the two
// right after a first bottom-up level, stops the build with its error.
// Uncancelled, the weight charged covers every pair and stays within
// the sources, the pairs and one sweep of the edges per batch: the
// first level reads at most each vertex's in-edges, and the second,
// finding every vertex finished, reads none. A top-down second level
// walks all |E| edges again and exceeds that bound.
func TestBFSCheckPollsBottomUp(t *testing.T) {
	const n = 128
	d := complete(n)
	stop := errors.New("stop")
	const polls = 6
	for k := 1; k <= polls; k++ {
		calls := 0
		c, err := BFSCheck(d, func(int) error {
			if calls++; calls == k {
				return stop
			}
			return nil
		})
		if err != stop || c != nil || calls != k {
			t.Fatalf("BFSCheck failing at call %d = %v, %v after %d calls; want nil and the checkpoint's error", k, c, err, calls)
		}
	}

	calls, charged := 0, 0
	c, err := BFSCheck(d, func(rows int) error {
		calls++
		charged += rows
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPairs() != n*n || calls != polls {
		t.Fatalf("NumPairs = %d after %d polls; want %d after %d", c.NumPairs(), calls, n*n, polls)
	}
	const batches = n / batchBits
	if bound := n + c.NumPairs() + batches*d.NumEdges(); charged < c.NumPairs() || charged > bound {
		t.Fatalf("charged %d rows; want between NumPairs %d and %d", charged, c.NumPairs(), bound)
	}
}
