// Package fixtures provides the worked example graph of the paper
// (Fig. 1) and small helpers shared by tests and examples.
package fixtures

import (
	"math/rand"

	"rtcshare/internal/graph"
)

// Figure1 builds the running example graph of the paper (Fig. 1): an
// edge-labeled directed multigraph on vertices v0..v9 with labels
// a..f. The edge set is reconstructed from the worked examples:
//
//   - Example 1/2 (query d·(b·c)+·c): result {(v7,v5), (v7,v3)} via the
//     paths p(v7,d,v4,b,v1,c,v2,c,v5) and
//     p(v7,d,v4,b,v1,c,v2,b,v5,c,v6,c,v3); the dead-end e(v3,b,v2) and
//     the revisit p(...,v5,c,v4,b,v1).
//   - Example 3 (edge-level reduction for b·c):
//     E_{b·c} = {(v2,v4),(v2,v6),(v3,v5),(v4,v2),(v5,v3)}.
//   - Example 4: TC(G_{b·c}) = {(v2,v2),(v2,v4),(v2,v6),(v3,v3),(v3,v5),
//     (v4,v2),(v4,v4),(v4,v6),(v5,v3),(v5,v5)}.
//   - Example 5: SCCs of G_{b·c} are s0={v2,v4}, s1={v6}, s2={v3,v5} and
//     Ē_{b·c} = {(v̄0,v̄0),(v̄0,v̄1),(v̄2,v̄2)}.
//
// All of those worked results are asserted by tests across the repo.
func Figure1() *graph.Graph {
	b := graph.NewBuilder(10)
	// Core subgraph exercised by the worked examples.
	b.MustAddEdge(7, "d", 4)
	b.MustAddEdge(4, "b", 1)
	b.MustAddEdge(1, "c", 2)
	b.MustAddEdge(2, "c", 5)
	b.MustAddEdge(2, "b", 5)
	b.MustAddEdge(2, "b", 3)
	b.MustAddEdge(3, "b", 2)
	b.MustAddEdge(5, "b", 6)
	b.MustAddEdge(5, "c", 6)
	b.MustAddEdge(5, "c", 4)
	b.MustAddEdge(6, "c", 3)
	// Periphery: v0, v8, v9 and labels a, e, f. These vertices take part
	// in no b·c path, matching Example 3.
	b.MustAddEdge(0, "a", 1)
	b.MustAddEdge(7, "a", 8)
	b.MustAddEdge(8, "e", 9)
	b.MustAddEdge(9, "f", 8)
	return b.Build()
}

// SparseChains builds a graph over numVertices vertices of which only a
// few hundred have edges, spread evenly across the VID space: each of
// the sources source vertices has an "a" edge to the head of its own
// "b" chain of chainLen vertices, and every chain vertex has one "c"
// edge to a target of its own. a.b+.c therefore has
// sources·(chainLen−1) pairs and a.b*.c sources·chainLen, however large
// the space — the shape that tells a join whose memory follows its
// output from one that allocates per vertex or per row of |V| bits.
// numVertices must be at least sources·(2·chainLen+1).
func SparseChains(numVertices, sources, chainLen int) *graph.Graph {
	b := graph.NewBuilder(numVertices)
	stride := numVertices / sources
	for i := 0; i < sources; i++ {
		src := i * stride
		head := src + 1
		b.MustAddEdge(graph.VID(src), "a", graph.VID(head))
		for j := 0; j < chainLen; j++ {
			v := head + j
			if j+1 < chainLen {
				b.MustAddEdge(graph.VID(v), "b", graph.VID(v+1))
			}
			b.MustAddEdge(graph.VID(v), "c", graph.VID(head+chainLen+j))
		}
	}
	return b.Build()
}

// RandomGraph draws a uniform random edge-labeled multigraph with n
// vertices, m edge attempts (duplicates collapse) and the given label
// alphabet. It is shared by property tests across the repository.
func RandomGraph(rng *rand.Rand, n, m int, labels []string) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, l := range labels {
		b.Dict().Intern(l)
	}
	for i := 0; i < m; i++ {
		b.MustAddEdge(
			graph.VID(rng.Intn(n)),
			labels[rng.Intn(len(labels))],
			graph.VID(rng.Intn(n)),
		)
	}
	return b.Build()
}

// RingFans builds a graph whose a.b+.c result holds exactly
// math.MaxInt32 + extra pairs (extra is 0 or 1), while a row-shared seal
// of it stores under 100k destinations: 2^16 sources have an "a" edge
// into one two-vertex "b" ring whose members both have the same 2^15−1
// "c" targets, and one more source has an "a" edge into a second ring
// with 2^16−1+extra c-targets. So 2^16·(2^15−1) + 2^16−1 + extra pairs.
// It reaches the sealed-count bound in milliseconds and a few MB; a
// join that writes every pair, or that does not share rows, cannot.
func RingFans(extra int) *graph.Graph {
	const sources = 1 << 16
	lone, x, y, u, w := sources, sources+1, sources+2, sources+3, sources+4
	target := func(i int) graph.VID { return graph.VID(sources + 5 + i) }
	b := graph.NewBuilder(sources + 5 + sources)
	for s := 0; s < sources; s++ {
		b.MustAddEdge(graph.VID(s), "a", graph.VID(x))
	}
	b.MustAddEdge(graph.VID(lone), "a", graph.VID(u))
	for _, ring := range [][2]int{{x, y}, {u, w}} {
		b.MustAddEdge(graph.VID(ring[0]), "b", graph.VID(ring[1]))
		b.MustAddEdge(graph.VID(ring[1]), "b", graph.VID(ring[0]))
	}
	for i := 0; i < sources/2-1; i++ {
		b.MustAddEdge(graph.VID(x), "c", target(i))
		b.MustAddEdge(graph.VID(y), "c", target(i))
	}
	for i := 0; i < sources-1+extra; i++ {
		b.MustAddEdge(graph.VID(u), "c", target(i))
	}
	return b.Build()
}
