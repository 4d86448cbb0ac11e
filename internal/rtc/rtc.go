// Package rtc implements the paper's central data structure: the reduced
// transitive closure (Section III-C).
//
// Given the evaluation result R_G of a sub-query R, the edge-level
// reduction (Section III-A) turns the pairs of R_G into the edges of the
// unlabeled simple digraph G_R; Lemma 1 states R+_G = TC(G_R). The
// vertex-level reduction (Section III-B) collapses each SCC of G_R into
// one vertex of Ḡ_R; Theorem 1 states that R+_G is the SCC-wise Cartesian
// expansion of TC(Ḡ_R). The RTC stores TC(Ḡ_R) together with the SCC
// membership tables — lightweight to compute, small to keep, and
// sufficient to answer or enumerate R+_G on demand.
package rtc

import (
	"fmt"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// TCAlgorithm selects how the transitive closure of the condensation is
// computed. BFSClosure is the default; the alternatives exist for the
// related-work comparison and the ablation benchmarks.
type TCAlgorithm int

const (
	// BFSClosure runs a per-vertex BFS over Ḡ_R (Table III's
	// O(|V̄_R|·|Ē_R|) computation).
	BFSClosure TCAlgorithm = iota
	// PurdomClosure runs Purdom's SCC-based algorithm [12].
	PurdomClosure
	// NuutilaClosure runs Nuutila's interleaved algorithm [13].
	NuutilaClosure
	// BitsetClosure runs the density-selected hybrid of tc.Bitset: a
	// word-parallel flat-slab bitset DP in reverse topological order for
	// dense condensations, a worker-parallel per-source frontier BFS for
	// sparse ones.
	BitsetClosure
)

func (a TCAlgorithm) String() string {
	switch a {
	case BFSClosure:
		return "bfs"
	case PurdomClosure:
		return "purdom"
	case NuutilaClosure:
		return "nuutila"
	case BitsetClosure:
		return "bitset"
	}
	return "unknown"
}

// closureFunc returns the tc implementation for the algorithm. The
// bitset hybrid gets the topo-aware entry point: Compute always hands
// it a condensation whose SIDs are already in reverse topological
// order, so the second Tarjan pass tc.Bitset would run is skipped.
func (a TCAlgorithm) closureFunc() func(*graph.DiGraph) *tc.Closure {
	switch a {
	case PurdomClosure:
		return tc.Purdom
	case NuutilaClosure:
		return tc.Nuutila
	case BitsetClosure:
		return tc.BitsetTopo
	default:
		return tc.BFS
	}
}

// closureCheckFunc is closureFunc for the checkpointed variants: the
// same algorithm selection, with a cancellation checkpoint threaded
// into the closure build.
func (a TCAlgorithm) closureCheckFunc() func(*graph.DiGraph, tc.Checkpoint) (*tc.Closure, error) {
	switch a {
	case PurdomClosure:
		return tc.PurdomCheck
	case NuutilaClosure:
		return tc.NuutilaCheck
	case BitsetClosure:
		return tc.BitsetTopoCheck
	default:
		return tc.BFSCheck
	}
}

// EdgeReduce performs the edge-level reduction G → G_R: every vertex pair
// of R_G becomes one unlabeled edge (Section III-A). numVertices is |V|
// of the original graph, so G_R shares G's VID space.
func EdgeReduce(numVertices int, rg *pairs.Set) *graph.DiGraph {
	b := graph.NewDiBuilder(numVertices)
	rg.Each(func(src, dst graph.VID) bool {
		b.AddEdge(src, dst)
		return true
	})
	return b.Build()
}

// RTC is the reduced transitive closure of some sub-query R on a graph G:
// the SCC decomposition of G_R plus TC(Ḡ_R).
type RTC struct {
	comps        *scc.Components
	condensation *graph.DiGraph
	closure      *tc.Closure
}

// Compute builds the RTC from the edge-level reduced graph G_R:
// Tarjan's SCCs [14], the condensation Ḡ_R, and TC(Ḡ_R).
func Compute(gr *graph.DiGraph, algo TCAlgorithm) *RTC {
	comps := scc.Tarjan(gr)
	cond := scc.Condense(gr, comps)
	return &RTC{
		comps:        comps,
		condensation: cond,
		closure:      algo.closureFunc()(cond),
	}
}

// ComputeCheck is Compute with a cancellation checkpoint threaded into
// the closure build — the dominant cost of an RTC on large reductions.
// The Tarjan and condensation passes run to completion regardless; a
// checkpoint abort surfaces as the checkpoint's error with a nil RTC.
func ComputeCheck(gr *graph.DiGraph, algo TCAlgorithm, check tc.Checkpoint) (*RTC, error) {
	comps := scc.Tarjan(gr)
	cond := scc.Condense(gr, comps)
	closure, err := algo.closureCheckFunc()(cond, check)
	if err != nil {
		return nil, err
	}
	return &RTC{comps: comps, condensation: cond, closure: closure}, nil
}

// FromParts assembles an RTC from its three structures — the SCC
// decomposition of G_R, the condensation Ḡ_R, and TC(Ḡ_R) — built by
// the caller, checking only that the three agree on the SID space.
// Nothing else is validated: parts that Compute would never produce (a
// condensation with a cycle, say) are accepted, which is how tests hand
// the join deliberately malformed structures. The condensation is
// required because the join walks it and InsertEdges remaps its edges
// through SCC merges.
func FromParts(comps *scc.Components, condensation *graph.DiGraph, closure *tc.Closure) (*RTC, error) {
	k := comps.NumComponents()
	if condensation.NumVertices() != k {
		return nil, fmt.Errorf("rtc: condensation has %d vertices, want %d components", condensation.NumVertices(), k)
	}
	if closure.NumVertices() != k {
		return nil, fmt.Errorf("rtc: closure has %d vertices, want %d components", closure.NumVertices(), k)
	}
	return &RTC{comps: comps, condensation: condensation, closure: closure}, nil
}

// EdgeReduceRel is EdgeReduce for a sealed columnar relation. A sealed
// Relation is already a src-grouped CSR with sorted duplicate-free runs
// — exactly a DiGraph's forward adjacency — so G_R aliases the
// relation's frozen columns and only the reverse adjacency is computed
// (one counting-sort pass, no global edge sort).
func EdgeReduceRel(numVertices int, rg *pairs.Relation) *graph.DiGraph {
	offsets, dsts := rg.CSR()
	return graph.DiGraphFromCSR(numVertices, offsets, dsts)
}

// ComputeFromResult builds the RTC directly from an evaluation result
// R_G, performing the edge-level reduction first.
func ComputeFromResult(numVertices int, rg *pairs.Set, algo TCAlgorithm) *RTC {
	return Compute(EdgeReduce(numVertices, rg), algo)
}

// Components exposes the SCC decomposition (the SCC(V, S) relation of
// Theorem 2).
func (r *RTC) Components() *scc.Components { return r.comps }

// Condensation exposes the vertex-level reduced graph Ḡ_R.
func (r *RTC) Condensation() *graph.DiGraph { return r.condensation }

// Closure exposes TC(Ḡ_R), the R̄+_Ḡ relation of Theorem 2, over SID space.
func (r *RTC) Closure() *tc.Closure { return r.closure }

// CompOf returns the SID of the SCC containing v, or -1 when v ∉ V_R.
func (r *RTC) CompOf(v graph.VID) int32 { return r.comps.CompOf[v] }

// Members returns the vertices of the SCC with the given SID, sorted.
// The caller must not modify the returned slice.
func (r *RTC) Members(sid int32) []graph.VID { return r.comps.Members[sid] }

// NumReducedVertices returns |V̄_R̄| — the vertex count the paper plots in
// Fig. 13 for RTCSharing.
func (r *RTC) NumReducedVertices() int { return r.comps.NumComponents() }

// NumSharedPairs returns |TC(Ḡ_R)| — the shared data size the paper
// plots in Fig. 12 for RTCSharing.
func (r *RTC) NumSharedPairs() int { return r.closure.NumPairs() }

// ReachableFrom returns the SIDs reachable from sid by a path of length
// ≥ 1 in Ḡ_R, sorted. The caller must not modify the returned slice.
func (r *RTC) ReachableFrom(sid int32) []graph.VID { return r.closure.From(sid) }

// ReachableInto returns the SIDs that reach sid by a path of length ≥ 1
// in Ḡ_R, sorted — the reverse selection σ_{END_S=sid} R̄+_Ḡ that the
// backward batch-unit join drives from. The transposed closure is built
// lazily on first use and shared. The caller must not modify the
// returned slice.
func (r *RTC) ReachableInto(sid int32) []graph.VID { return r.closure.Into(sid) }

// Reachable reports whether (u, w) ∈ R+_G using Theorem 1: the SCC of u
// must reach the SCC of w in TC(Ḡ_R).
func (r *RTC) Reachable(u, w graph.VID) bool {
	su, sw := r.CompOf(u), r.CompOf(w)
	if su < 0 || sw < 0 {
		return false
	}
	return r.closure.Reachable(su, sw)
}

// Expand materialises R+_G from the RTC (Theorem 1): the union over
// (s̄_k, s̄_l) ∈ TC(Ḡ_R) of the Cartesian products s_k × s_l.
func (r *RTC) Expand() *pairs.Set {
	out := pairs.NewSet()
	r.closure.Each(func(sk, sl graph.VID) bool {
		for _, u := range r.comps.Members[sk] {
			for _, w := range r.comps.Members[sl] {
				out.Add(u, w)
			}
		}
		return true
	})
	return out
}

// ExpandedSize returns |R+_G| without materialising it: the sum over
// closure pairs of |s_k|·|s_l|.
func (r *RTC) ExpandedSize() int {
	total := 0
	r.closure.Each(func(sk, sl graph.VID) bool {
		total += len(r.comps.Members[sk]) * len(r.comps.Members[sl])
		return true
	})
	return total
}
