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
// An RTC holds the SCC membership column, the condensation's forward
// runs and a bounded reach table — all a join needs. TC(Ḡ_R) itself,
// which the paper shares, is built lazily and only for the size
// accessors that report it. The
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
//
// It holds only what a join reads, each column exactly sized: the SID of
// every vertex, one flat member column, the condensation's forward runs
// and the reach table, all over the components compaction keeps. The
// SCC(V, S) table with a row per component (Components), the
// condensation as a graph.DiGraph with its reverse adjacency
// (Condensation) and TC(Ḡ_R) (Closure) are built on first use. RTCs are
// shared immutably across goroutines.
type RTC struct {
	compOf  []int32 // per vertex: its SID, -1 outside V_R
	members runs    // per SID: its vertices, sorted
	cond    runs    // per SID: its condensation successors, sorted
	reach   reachTable

	compsOnce   sync.Once
	comps       *scc.Components
	condOnce    sync.Once
	condGraph   *graph.DiGraph
	closureOnce sync.Once
	closure     *tc.Closure
}

// runs is a column of runs over SIDs: run s is at[off[s]:off[s+1]].
type runs struct {
	off []int32 // len NumComponents+1
	at  []graph.VID
}

// run returns run s, capped so that no caller's append can spill into
// run s+1.
func (c runs) run(s int32) []graph.VID {
	lo, hi := c.off[s], c.off[s+1]
	return c.at[lo:hi:hi]
}

// empty reports whether run s is empty.
func (c runs) empty(s int32) bool { return c.off[s] == c.off[s+1] }

// Compute builds the RTC from the edge-level reduced graph G_R: Tarjan's
// SCCs [14], the condensation Ḡ_R and the reach table.
func Compute(gr *graph.DiGraph, _ TCAlgorithm) *RTC {
	comps := scc.Tarjan(gr)
	off, succ := scc.Condense(gr, comps).CSR()
	members := runs{off: make([]int32, len(comps.Members)+1), at: make([]graph.VID, 0, comps.NumActiveVertices())}
	for s, m := range comps.Members {
		members.at = append(members.at, m...)
		members.off[s+1] = int32(len(members.at))
	}
	return assemble(comps.CompOf, members, runs{off, succ})
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
	k := int32(r.NumComponents())
	// qOf maps each vertex to its quotient vertex: its old SID, or a
	// fresh SID past k for an endpoint outside V_R.
	qOf := slices.Clone(r.compOf)
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
	b := graph.NewDiBuilderCap(int(k)+len(fresh), len(r.cond.at)+len(delta))
	for s := range k {
		for _, t := range r.cond.run(s) {
			b.AddEdge(s, t)
		}
	}
	for _, d := range delta {
		b.AddEdge(d.Src, d.Dst)
	}
	quotient := b.Build()
	qc := scc.Tarjan(quotient)
	off, succ := scc.Condense(quotient, qc).CSR()

	// Compose: qOf becomes the new CompOf in place, and a component's
	// members are the union of its quotient vertices' members.
	for v, q := range qOf {
		if q >= 0 {
			qOf[v] = qc.CompOf[q]
		}
	}
	members := runs{off: make([]int32, qc.NumComponents()+1), at: make([]graph.VID, 0, len(r.members.at)+len(fresh))}
	for s, qs := range qc.Members {
		lo := len(members.at)
		for _, q := range qs {
			if q < k {
				members.at = append(members.at, r.Members(q)...)
			} else {
				members.at = append(members.at, fresh[q-k])
			}
		}
		if len(qs) > 1 {
			slices.Sort(members.at[lo:])
		}
		members.off[s+1] = int32(len(members.at))
	}
	return assemble(qOf, members, runs{off, succ})
}

// assemble is the shared tail of Compute and InsertEdges: it drops the
// memberless components that cannot matter to a join (compact), then
// builds the RTC. compOf, members and cond must be in Tarjan's SID
// order, and compOf is reused. A condensation of G_R has no memberless
// component and is kept as is, so its runs must be sorted.
func assemble(compOf []int32, members, cond runs) *RTC {
	for s := range int32(len(members.off) - 1) {
		if members.empty(s) {
			members, cond = compact(compOf, members, cond)
			break
		}
	}
	return newRTC(compOf, members, cond)
}

// newRTC adds the reach table to the columns of an RTC.
func newRTC(compOf []int32, members, cond runs) *RTC {
	return &RTC{compOf: compOf, members: members, cond: cond, reach: newReachTable(members, cond)}
}

// compact removes the memberless components a join gains nothing from,
// renumbering compOf in place and returning the kept components' member
// runs, over the unchanged member column, and their condensation runs,
// sorted:
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
// The condensation comes in as runs duplicate-free in any order; the
// offsets and runs it returns are exactly sized.
func compact(compOf []int32, members, cond runs) (keptMembers, kept runs) {
	k := int32(len(cond.off) - 1)
	// to[s] is where an edge into s leads once compacted: s itself when
	// it is kept, the kept component a pass-through forwards to, or -1
	// for a dead end. Successors have lower SIDs, so they are settled
	// first. newSID[s] is a kept component's new SID, -1 for the rest.
	to := make([]int32, k)
	newSID := make([]int32, k)
	numKept := int32(0)
	for s := range k {
		newSID[s] = -1
		if members.empty(s) {
			fwd, branches := int32(-1), false
			for _, t := range cond.run(s) {
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
		to[s], newSID[s] = s, numKept
		numKept++
	}

	keptMembers = runs{off: make([]int32, numKept+1), at: members.at}
	kept.off = make([]int32, numKept+1)
	var targets []graph.VID
	// stamp[t] == s+1 once kept component s has an edge to t.
	stamp := make([]int32, numKept)
	for s := range k {
		ns := newSID[s]
		if ns < 0 {
			continue
		}
		lo := len(targets)
		for _, t := range cond.run(s) {
			if (t == s && members.empty(s)) || to[t] < 0 {
				continue
			}
			if nt := newSID[to[t]]; stamp[nt] != ns+1 {
				stamp[nt] = ns + 1
				targets = append(targets, nt)
			}
		}
		slices.Sort(targets[lo:])
		kept.off[ns+1] = int32(len(targets))
		keptMembers.off[ns+1] = keptMembers.off[ns] + int32(len(members.run(s)))
	}
	kept.at = slices.Clone(targets)
	for v, s := range compOf {
		if s >= 0 {
			compOf[v] = newSID[s]
		}
	}
	return keptMembers, kept
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

// newReachTable fills the table in SID order, which is Tarjan's reverse
// topological order: every successor of a component other than itself
// has a lower SID and is settled first, so a component's list is the
// union of its successors'. A successor with a higher SID, which a
// condensation in that order never has, would make the component heavy.
func newReachTable(members, cond runs) reachTable {
	k := int32(len(cond.off) - 1)
	rt := reachTable{span: make([]reachSpan, k)}
	var list, sids []int32
	add := func(t int32) {
		if !slices.Contains(list, t) {
			list = append(list, t)
		}
	}
	for s := range k {
		list = list[:0]
		heavy := false
		for _, t := range cond.run(s) {
			if t != s {
				if t > s || rt.span[t].n < 0 {
					heavy = true
					break
				}
				lo := rt.span[t].lo
				for _, u := range sids[lo : lo+rt.span[t].n] {
					add(u)
				}
			}
			if !members.empty(t) {
				add(t)
			}
			if len(list) > LightReach {
				heavy = true
				break
			}
		}
		if heavy {
			rt.span[s].n = -1
			continue
		}
		rt.span[s] = reachSpan{lo: int32(len(sids)), n: int32(len(list))}
		sids = append(sids, list...)
	}
	rt.sids = slices.Clone(sids)
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
// Theorem 2), built on first use: CompOf is the RTC's own column, and
// each Members row a capped slice of its member column. An intermediate
// component of a product-built RTC has no members.
func (r *RTC) Components() *scc.Components {
	r.compsOnce.Do(func() {
		rows := make([][]graph.VID, r.NumComponents())
		for s := range rows {
			rows[s] = r.Members(int32(s))
		}
		r.comps = &scc.Components{CompOf: r.compOf, Members: rows}
	})
	return r.comps
}

// Condensation exposes the vertex-level reduced graph the join walks:
// Ḡ_R, or for a product-built RTC a graph whose reachability between
// member-bearing components is Ḡ_R's. It is built on first use, over
// the RTC's forward runs, with a reverse adjacency the join never reads.
func (r *RTC) Condensation() *graph.DiGraph {
	r.condOnce.Do(func() { r.condGraph = r.digraph() })
	return r.condGraph
}

// digraph returns the condensation as a new graph.DiGraph.
func (r *RTC) digraph() *graph.DiGraph {
	return graph.DiGraphFromCSR(r.NumComponents(), r.cond.off, r.cond.at)
}

// NumComponents returns the number of components the condensation
// keeps: the member-bearing ones and, for a product-built RTC, the
// intermediate ones compaction keeps.
func (r *RTC) NumComponents() int { return len(r.cond.off) - 1 }

// NumVertices returns |V|, the size of the vertex space CompOf covers.
func (r *RTC) NumVertices() int { return len(r.compOf) }

// Successors returns the components s has a condensation edge to,
// sorted ascending. The caller must not modify the returned slice.
func (r *RTC) Successors(s int32) []graph.VID { return r.cond.run(s) }

// HasEdge reports whether the condensation has the edge (s, t).
func (r *RTC) HasEdge(s, t int32) bool {
	_, ok := slices.BinarySearch(r.cond.run(s), t)
	return ok
}

// Closure returns TC(Ḡ_R), the R̄+_Ḡ relation of Theorem 2, over SID
// space: a row per member-bearing component, holding the member-bearing
// components it reaches. It is built on first use, by a BFS from the
// member-bearing components only, over a condensation graph it does not
// keep.
func (r *RTC) Closure() *tc.Closure {
	r.closureOnce.Do(func() {
		keep := make([]bool, r.NumComponents())
		for s := range keep {
			keep[s] = !r.members.empty(int32(s))
		}
		r.closure = tc.BFSAmong(r.digraph(), keep)
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
func (r *RTC) CompOf(v graph.VID) int32 { return r.compOf[v] }

// Members returns the vertices of the SCC with the given SID, sorted.
// The caller must not modify the returned slice.
func (r *RTC) Members(sid int32) []graph.VID { return r.members.run(sid) }

// NumReducedVertices returns |V̄_R̄| — the vertex count the paper plots in
// Fig. 13 for RTCSharing: the member-bearing components.
func (r *RTC) NumReducedVertices() int {
	n := 0
	for s := range int32(r.NumComponents()) {
		if !r.members.empty(s) {
			n++
		}
	}
	return n
}

// NumActiveVertices returns |V_R|: the vertices assigned to some SCC.
func (r *RTC) NumActiveVertices() int { return len(r.members.at) }

// AverageSCCSize is Components().AverageSize() without building the
// per-component rows: |V_R| over the member-bearing components, 0 when
// there are none.
func (r *RTC) AverageSCCSize() float64 {
	comps := r.NumReducedVertices()
	if comps == 0 {
		return 0
	}
	return float64(len(r.members.at)) / float64(comps)
}

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
		for _, u := range r.Members(sk) {
			for _, w := range r.Members(sl) {
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
		total += len(r.Members(sk)) * len(r.Members(sl))
		return true
	})
	return total
}
