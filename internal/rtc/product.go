package rtc

import (
	"rtcshare/internal/automata"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// FromProduct builds the RTC of R on g without evaluating R_G. Lemma 1
// and Theorem 1 need only the SCCs of G_R and the reachability between
// them, and both can be read off the product of g with R's automaton:
// add an edge from every accepting copy (q_f, w) back to the start copy
// (q₀, w), and (u, w) ∈ R+_G exactly when (q₀, u) reaches (q₀, w) by a
// non-empty path. So the SCCs of G_R are the product's SCCs restricted
// to start copies, and a product SCC holding no start copy of V_R is an
// intermediate component without members. For a concatenation of k
// labels the product is k layers of label edges, Σ|E_lᵢ| edges, where
// G_R has |R_G|.
//
// The product covers the copies reachable from start copies. A vertex u
// is in V_R when (q₀, u) has an in-edge (some R path ends at u) or
// reaches a start copy by a non-empty path (some R path starts at u).
// check is polled while the product is built; on abort FromProduct
// returns its error and a nil RTC.
func FromProduct(g *graph.Graph, r rpq.Expr, check tc.Checkpoint) (*RTC, error) {
	n := g.NumVertices()
	prod, err := productGraph(g, automata.Compile(r, g.Dict()), check)
	if err != nil {
		return nil, err
	}
	pc := scc.Tarjan(prod)
	cond := scc.Condense(prod, pc)

	// toStart[s]: component s reaches a start copy by a non-empty path.
	// Start copies have the product IDs below n, and Members are sorted,
	// so a component holds one exactly when its first member is below n.
	// Successors have lower SIDs than s, except s itself.
	k := cond.NumVertices()
	toStart := make([]bool, k)
	for s := int32(0); int(s) < k; s++ {
		for _, t := range cond.Successors(s) {
			if pc.Members[t][0] < graph.VID(n) || (t != s && toStart[t]) {
				toStart[s] = true
				break
			}
		}
	}
	comps := &scc.Components{CompOf: make([]int32, n), Members: pc.Members}
	for u := range comps.CompOf {
		s := pc.CompOf[u]
		if s < 0 || (prod.InDegree(graph.VID(u)) == 0 && !toStart[s]) {
			s = -1
		}
		comps.CompOf[u] = s
	}
	for s, vs := range comps.Members {
		m := vs[:0]
		for _, v := range vs {
			if v >= graph.VID(n) {
				break
			}
			if comps.CompOf[v] >= 0 {
				m = append(m, v)
			}
		}
		if len(m) == 0 {
			m = nil
		}
		comps.Members[s] = m
	}
	return assemble(comps, cond), nil
}

// productGraph builds the product of g with nfa over the copies
// reachable from start copies, plus a back edge from every accepting
// copy to the start copy of its vertex. The start copy (q₀, v) has
// product ID v; every other copy gets the next ID when first reached,
// and copies are expanded in ID order, so the CSR is appended source by
// source. Compile's start state has no incoming arc, so a start copy is
// entered by back edges only.
func productGraph(g *graph.Graph, nfa *automata.NFA, check tc.Checkpoint) (*graph.DiGraph, error) {
	n, states := g.NumVertices(), nfa.NumStates()
	// id[q*n+v] is the product ID of (q, v) for q ≥ 1, 0 until reached
	// (ID 0 is a start copy).
	id := make([]int32, states*n)
	type prodCopy struct {
		state int32
		v     graph.VID
	}
	var copies []prodCopy // the copies with IDs n, n+1, ...
	idOf := func(q int, v graph.VID) graph.VID {
		if q == 0 {
			return v
		}
		key := q*n + int(v)
		if id[key] == 0 {
			id[key] = int32(n + len(copies))
			copies = append(copies, prodCopy{int32(q), v})
		}
		return id[key]
	}

	offsets := make([]int32, 1, n+1)
	var targets []graph.VID
	// stamp[t] == p+1 once copy p has an edge to t: two arcs can reach
	// the same copy.
	stamp := make([]int32, states*n)
	add := func(p int, t graph.VID) {
		if stamp[t] != int32(p)+1 {
			stamp[t] = int32(p) + 1
			targets = append(targets, t)
		}
	}
	for p := 0; p < n+len(copies); p++ {
		q, v := 0, graph.VID(p)
		if p >= n {
			q, v = int(copies[p-n].state), copies[p-n].v
		}
		lo := len(targets)
		arcs := nfa.Arcs(q)
		for i := 0; i < len(arcs); {
			label, inverse := arcs[i].Label, arcs[i].Inverse
			var neigh []graph.VID
			switch {
			case label < 0: // a label absent from the graph
			case inverse:
				neigh = g.Predecessors(v, label)
			default:
				neigh = g.Successors(v, label)
			}
			for ; i < len(arcs) && arcs[i].Label == label && arcs[i].Inverse == inverse; i++ {
				for _, w := range neigh {
					add(p, idOf(arcs[i].To, w))
				}
			}
		}
		if nfa.IsAccept(q) {
			add(p, v)
		}
		offsets = append(offsets, int32(len(targets)))
		if check != nil {
			if err := check(len(targets) - lo + 1); err != nil {
				return nil, err
			}
		}
	}
	return graph.DiGraphFromRuns(len(offsets)-1, offsets, targets), nil
}
