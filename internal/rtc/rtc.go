// Package rtc implements the paper's central data structure: the reduced
// transitive closure (Section III-C).
//
// Given the evaluation result R_G of a sub-query R, the edge-level
// reduction (Section III-A) turns the pairs of R_G into the edges of the
// unlabeled simple digraph G_R; Lemma 1 states R+_G = TC(G_R). The
// vertex-level reduction (Section III-B) collapses each SCC of G_R into
// one vertex of Ḡ_R; Theorem 1 states that R+_G is the SCC-wise Cartesian
// expansion of TC(Ḡ_R).
//
// An RTC holds the SCC membership tables, the condensation and a bounded
// reach table — all a join needs. TC(Ḡ_R) itself, which the paper shares,
// is built lazily and only for the size accessors that report it. The
// engine builds an RTC from R's product graph (FromProduct) and never
// materialises R_G; Compute builds the same structure from G_R.
package rtc

import (
	"slices"
	"sync"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// TCAlgorithm names the transitive-closure algorithm of the
// condensation; BFSClosure is the only one. The type survives because
// the benchmark replay pins the Compute(gr, 0) signature.
type TCAlgorithm int

// BFSClosure runs tc's BFS, one search per source, over Ḡ_R (Table
// III's O(|V̄_R|·|Ē_R|) computation).
const BFSClosure TCAlgorithm = 0

// LightReach bounds the reach table: a component that reaches at most
// this many member-bearing components lists them, and one that reaches
// more is heavy.
const LightReach = 8

// RTC is the reduced transitive closure of some sub-query R on a graph G:
// the SCC decomposition of G_R, a condensation whose reachability between
// member-bearing components is Ḡ_R's, and the bounded reach table. A
// condensation built from R's product graph also has intermediate
// components, which have no members.
type RTC struct {
	comps        *scc.Components
	condensation *graph.DiGraph
	reach        reachTable

	// closureOnce guards closure, TC(Ḡ_R), built on first use by a size
	// accessor. RTCs are shared immutably across goroutines.
	closureOnce sync.Once
	closure     *tc.Closure
}

// Compute builds the RTC from the edge-level reduced graph G_R: Tarjan's
// SCCs [14], the condensation Ḡ_R and the reach table.
func Compute(gr *graph.DiGraph, _ TCAlgorithm) *RTC {
	comps := scc.Tarjan(gr)
	return assemble(comps, scc.Condense(gr, comps))
}

// InsertEdges returns the RTC of G_R with the given edges added; the
// receiver is never modified. It applies the vertex-level reduction to
// Ḡ_R + Δ instead of G_R + Δ: every old SCC stays strongly connected,
// so the SCCs of G_R + Δ are unions of old SCCs, and the quotient graph
// — the old condensation plus the delta mapped through CompOf, a vertex
// outside V_R entering as a fresh singleton — has the same reachability
// between them (Theorem 1). Tarjan and Condense over the quotient cost
// what Compute pays for Ḡ_R; CompOf and Members are then composed
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
	return assemble(&scc.Components{CompOf: qOf, Members: members}, cond)
}

// assemble is the shared tail of Compute and InsertEdges: it drops the
// memberless components that cannot matter to a join, then builds the
// reach table. comps and cond must be in Tarjan's SID order, and comps
// is reused. A condensation of G_R has no memberless component and is
// kept as is.
func assemble(comps *scc.Components, cond *graph.DiGraph) *RTC {
	if slices.ContainsFunc(comps.Members, func(m []graph.VID) bool { return len(m) == 0 }) {
		offsets, succ := cond.CSR()
		cond = compact(comps, offsets, succ)
	}
	return &RTC{comps: comps, condensation: cond, reach: newReachTable(cond, comps.Members)}
}

// compact removes the memberless components a join gains nothing from,
// renumbering comps in place and returning the new condensation:
//
//   - a dead end, which reaches no member-bearing component, goes with
//     its edges;
//   - a pass-through, whose edges all lead (after splicing) to one
//     component, goes too, and its predecessors point at that component;
//   - a memberless component loses its self-loop: it has no PostEnds for
//     the cycle to contribute.
//
// Reachability between member-bearing components, and so Ḡ_R, is
// unchanged, and the SIDs stay in Tarjan's reverse topological order.
// The condensation comes in as CSR runs: the successors of s are
// succ[offsets[s]:offsets[s+1]], duplicate-free in any order.
func compact(comps *scc.Components, offsets []int32, succ []graph.VID) *graph.DiGraph {
	k := len(offsets) - 1
	// to[s] is where an edge into s leads once compacted: s itself when
	// it is kept, the kept component a pass-through forwards to, or -1
	// for a dead end. Successors have lower SIDs, so they are settled
	// first.
	to := make([]int32, k)
	newSID := make([]int32, k)
	kept := int32(0)
	for s := int32(0); int(s) < k; s++ {
		if len(comps.Members[s]) == 0 {
			fwd, branches := int32(-1), false
			for _, t := range succ[offsets[s]:offsets[s+1]] {
				if t == s || to[t] < 0 {
					continue
				}
				if fwd < 0 {
					fwd = to[t]
				} else if to[t] != fwd {
					branches = true
					break
				}
			}
			if !branches {
				to[s] = fwd
				continue
			}
		}
		to[s], newSID[s] = s, kept
		kept++
	}

	keptOffsets := make([]int32, kept+1)
	var targets []graph.VID
	// stamp[t] == s+1 once kept component s has an edge to t.
	stamp := make([]int32, kept)
	for s := int32(0); int(s) < k; s++ {
		if to[s] != s {
			continue
		}
		ns := newSID[s]
		for _, t := range succ[offsets[s]:offsets[s+1]] {
			if (t == s && len(comps.Members[s]) == 0) || to[t] < 0 {
				continue
			}
			if nt := newSID[to[t]]; stamp[nt] != ns+1 {
				stamp[nt] = ns + 1
				targets = append(targets, nt)
			}
		}
		keptOffsets[ns+1] = int32(len(targets))
		comps.Members[ns] = comps.Members[s]
	}
	comps.Members = comps.Members[:kept]
	for v, s := range comps.CompOf {
		if s >= 0 {
			comps.CompOf[v] = newSID[s]
		}
	}
	return graph.DiGraphFromRuns(int(kept), keptOffsets, targets)
}

// reachTable holds, per component, the member-bearing components it
// reaches by a non-empty path when there are at most LightReach of them.
type reachTable struct {
	span []reachSpan // per SID
	sids []int32
}

// reachSpan addresses one component's list in reachTable.sids; n < 0
// marks a heavy component.
type reachSpan struct{ lo, n int32 }

// newReachTable fills the table in reverse topological order (Kahn's
// algorithm on the condensation without its self-loops), so a
// component's list is the union of its successors'. It relies on no SID
// order; a component on or above a cycle between distinct components is
// never settled and stays heavy.
func newReachTable(cond *graph.DiGraph, members [][]graph.VID) reachTable {
	k := cond.NumVertices()
	rt := reachTable{span: make([]reachSpan, k)}
	// pending[s] counts s's successors other than itself not yet settled.
	pending := make([]int32, k)
	order := make([]int32, 0, k)
	for s := int32(0); int(s) < k; s++ {
		rt.span[s].n = -1
		for _, t := range cond.Successors(s) {
			if t != s {
				pending[s]++
			}
		}
		if pending[s] == 0 {
			order = append(order, s)
		}
	}
	var list []int32
	add := func(t int32) {
		if !slices.Contains(list, t) {
			list = append(list, t)
		}
	}
	for i := 0; i < len(order); i++ {
		s := order[i]
		list = list[:0]
		heavy := false
		for _, t := range cond.Successors(s) {
			if t != s {
				if rt.span[t].n < 0 {
					heavy = true
					break
				}
				lo := rt.span[t].lo
				for _, u := range rt.sids[lo : lo+rt.span[t].n] {
					add(u)
				}
			}
			if len(members[t]) > 0 {
				add(t)
			}
			if len(list) > LightReach {
				heavy = true
				break
			}
		}
		if !heavy {
			rt.span[s] = reachSpan{lo: int32(len(rt.sids)), n: int32(len(list))}
			rt.sids = append(rt.sids, list...)
		}
		for _, p := range cond.Predecessors(s) {
			if p != s {
				if pending[p]--; pending[p] == 0 {
					order = append(order, p)
				}
			}
		}
	}
	return rt
}

// EdgeReduceRel performs the edge-level reduction G → G_R: every vertex
// pair of the sealed relation R_G becomes one unlabeled edge (Section
// III-A). numVertices is |V| of the original graph, so G_R shares G's VID
// space. A sealed Relation is already a src-grouped CSR with sorted
// duplicate-free runs — exactly a DiGraph's forward adjacency — so G_R
// aliases the relation's frozen columns and only the reverse adjacency
// is computed (one counting-sort pass, no global edge sort).
func EdgeReduceRel(numVertices int, rg *pairs.Relation) *graph.DiGraph {
	offsets, dsts := rg.CSR()
	return graph.DiGraphFromCSR(numVertices, offsets, dsts)
}

// Components exposes the SCC decomposition (the SCC(V, S) relation of
// Theorem 2). An intermediate component of a product-built RTC has no
// members.
func (r *RTC) Components() *scc.Components { return r.comps }

// Condensation exposes the vertex-level reduced graph the join walks:
// Ḡ_R, or for a product-built RTC a graph whose reachability between
// member-bearing components is Ḡ_R's.
func (r *RTC) Condensation() *graph.DiGraph { return r.condensation }

// Closure returns TC(Ḡ_R), the R̄+_Ḡ relation of Theorem 2, over SID
// space: a row per member-bearing component, holding the member-bearing
// components it reaches. It is built on first use, by a BFS from the
// member-bearing components only.
func (r *RTC) Closure() *tc.Closure {
	r.closureOnce.Do(func() {
		keep := make([]bool, len(r.comps.Members))
		for s, m := range r.comps.Members {
			keep[s] = len(m) > 0
		}
		r.closure = tc.BFSAmong(r.condensation, keep)
	})
	return r.closure
}

// BoundedReach returns the member-bearing components sid reaches by a
// non-empty path, when there are at most LightReach of them; ok is false
// for a heavy component. The caller must not modify the returned slice.
func (r *RTC) BoundedReach(sid int32) (sids []int32, ok bool) {
	sp := r.reach.span[sid]
	if sp.n < 0 {
		return nil, false
	}
	return r.reach.sids[sp.lo : sp.lo+sp.n], true
}

// CompOf returns the SID of the SCC containing v, or -1 when v ∉ V_R.
func (r *RTC) CompOf(v graph.VID) int32 { return r.comps.CompOf[v] }

// Members returns the vertices of the SCC with the given SID, sorted.
// The caller must not modify the returned slice.
func (r *RTC) Members(sid int32) []graph.VID { return r.comps.Members[sid] }

// NumReducedVertices returns |V̄_R̄| — the vertex count the paper plots in
// Fig. 13 for RTCSharing: the member-bearing components.
func (r *RTC) NumReducedVertices() int {
	n := 0
	for _, m := range r.comps.Members {
		if len(m) > 0 {
			n++
		}
	}
	return n
}

// NumActiveVertices returns |V_R|: the vertices assigned to some SCC.
func (r *RTC) NumActiveVertices() int { return r.comps.NumActiveVertices() }

// NumSharedPairs returns |TC(Ḡ_R)| — the shared data size the paper
// plots in Fig. 12 for RTCSharing.
func (r *RTC) NumSharedPairs() int { return r.Closure().NumPairs() }

// Reachable reports whether (u, w) ∈ R+_G using Theorem 1: the SCC of u
// must reach the SCC of w in TC(Ḡ_R).
func (r *RTC) Reachable(u, w graph.VID) bool {
	su, sw := r.CompOf(u), r.CompOf(w)
	if su < 0 || sw < 0 {
		return false
	}
	return r.Closure().Reachable(su, sw)
}

// Expand materialises R+_G from the RTC (Theorem 1): the union over
// (s̄_k, s̄_l) ∈ TC(Ḡ_R) of the Cartesian products s_k × s_l.
func (r *RTC) Expand() *pairs.Set {
	out := pairs.NewSet()
	r.Closure().Each(func(sk, sl graph.VID) bool {
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
	r.Closure().Each(func(sk, sl graph.VID) bool {
		total += len(r.comps.Members[sk]) * len(r.comps.Members[sl])
		return true
	})
	return total
}
