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
	"slices"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// TCAlgorithm names the transitive-closure algorithm of the
// condensation; BFSClosure is the only one. The type survives because
// the benchmark replay pins the Compute(gr, 0) signature.
type TCAlgorithm int

// BFSClosure runs a per-vertex BFS over Ḡ_R (Table III's
// O(|V̄_R|·|Ē_R|) computation).
const BFSClosure TCAlgorithm = 0

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
func Compute(gr *graph.DiGraph, _ TCAlgorithm) *RTC {
	r, _ := ComputeCheck(gr, nil)
	return r
}

// ComputeCheck is Compute with a cancellation checkpoint threaded into
// the closure build — the dominant cost of an RTC on large reductions.
// The Tarjan and condensation passes run to completion regardless; a
// checkpoint abort surfaces as the checkpoint's error with a nil RTC.
func ComputeCheck(gr *graph.DiGraph, check tc.Checkpoint) (*RTC, error) {
	comps := scc.Tarjan(gr)
	cond := scc.Condense(gr, comps)
	closure, err := tc.BFSCheck(cond, check)
	if err != nil {
		return nil, err
	}
	return &RTC{comps: comps, condensation: cond, closure: closure}, nil
}

// InsertEdges returns the RTC of G_R with the given edges added; the
// receiver is never modified. It applies the vertex-level reduction to
// Ḡ_R + Δ instead of G_R + Δ: every old SCC stays strongly connected,
// so the SCCs of G_R + Δ are unions of old SCCs, and the quotient graph
// — the old condensation plus the delta mapped through CompOf, a vertex
// outside V_R entering as a fresh singleton — has the same reachability
// between them (Theorem 1). Tarjan, Condense and BFS over the quotient
// cost what Compute pays for Ḡ_R; CompOf and Members are then composed
// through the quotient's SCCs, whose SIDs come out in Tarjan's reverse
// topological order as Compute's do.
func (r *RTC) InsertEdges(edges []pairs.Pair) *RTC {
	old := r.comps
	k := int32(old.NumComponents())
	// qOf maps each vertex to its quotient vertex: its old SID, or a
	// fresh SID past k for an endpoint outside V_R.
	qOf := slices.Clone(old.CompOf)
	var fresh []graph.VID
	quot := func(v graph.VID) graph.VID {
		if qOf[v] < 0 {
			qOf[v] = k + int32(len(fresh))
			fresh = append(fresh, v)
		}
		return qOf[v]
	}
	delta := make([]pairs.Pair, len(edges))
	for i, e := range edges {
		delta[i] = pairs.Pair{Src: quot(e.Src), Dst: quot(e.Dst)}
	}
	b := graph.NewDiBuilderCap(int(k)+len(fresh), r.condensation.NumEdges()+len(delta))
	r.condensation.Edges(func(s, t graph.VID) bool {
		b.AddEdge(s, t)
		return true
	})
	for _, d := range delta {
		b.AddEdge(d.Src, d.Dst)
	}
	quotient := b.Build()
	qc := scc.Tarjan(quotient)
	cond := scc.Condense(quotient, qc)

	// Compose: qOf becomes the new CompOf in place, and a component's
	// members are the union of its quotient vertices' members (an
	// unmerged old SCC keeps its immutable Members row).
	for v, q := range qOf {
		if q >= 0 {
			qOf[v] = qc.CompOf[q]
		}
	}
	members := make([][]graph.VID, qc.NumComponents())
	for s, qs := range qc.Members {
		if len(qs) == 1 && qs[0] < k {
			members[s] = old.Members[qs[0]]
			continue
		}
		for _, q := range qs {
			if q < k {
				members[s] = append(members[s], old.Members[q]...)
			} else {
				members[s] = append(members[s], fresh[q-k])
			}
		}
		slices.Sort(members[s])
	}
	return &RTC{
		comps:        &scc.Components{CompOf: qOf, Members: members},
		condensation: cond,
		closure:      tc.BFS(cond),
	}
}

// FromParts assembles an RTC from its three structures — the SCC
// decomposition of G_R, the condensation Ḡ_R, and TC(Ḡ_R) — built by
// the caller, checking only that the three agree on the SID space.
// Nothing else is validated: parts that Compute would never produce (a
// condensation with a cycle, or SIDs in no topological order) are
// accepted, which is how tests hand the join deliberately malformed or
// SID-permuted structures. The condensation is required because the
// join walks it and InsertEdges reduces it again.
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

// NumActiveVertices returns |V_R|: the vertices assigned to some SCC.
func (r *RTC) NumActiveVertices() int { return r.comps.NumActiveVertices() }

// NumSharedPairs returns |TC(Ḡ_R)| — the shared data size the paper
// plots in Fig. 12 for RTCSharing.
func (r *RTC) NumSharedPairs() int { return r.closure.NumPairs() }

// ReachableFrom returns the SIDs reachable from sid by a path of length
// ≥ 1 in Ḡ_R, sorted. The caller must not modify the returned slice.
func (r *RTC) ReachableFrom(sid int32) []graph.VID { return r.closure.From(sid) }

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
