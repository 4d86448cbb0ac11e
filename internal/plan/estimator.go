package plan

import (
	"math"

	"rtcshare/internal/automata"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// Card is an estimated relation cardinality: the number of (src, dst)
// pairs plus the distinct-source and distinct-sink counts, which the
// join and closure formulas need.
type Card struct {
	Pairs, Srcs, Dsts float64
}

// Estimator predicts RPQ result cardinalities from the per-label
// statistics the graph computed at Build time. All estimates are coarse
// — uniformity and independence assumptions throughout — and EXPLAIN
// ANALYZE reports them beside the actual sizes. An Estimator is
// immutable and safe for concurrent use.
type Estimator struct {
	v      float64 // |V|
	avgDeg float64 // |E| / |V|: the adjacency-scan factor of traversals
	dict   *graph.Dict
	stats  []graph.LabelStats // indexed by LID
}

// NewEstimator snapshots g's label statistics.
func NewEstimator(g *graph.Graph) *Estimator {
	est := &Estimator{
		v:     float64(g.NumVertices()),
		dict:  g.Dict(),
		stats: make([]graph.LabelStats, g.NumLabels()),
	}
	totalEdges := 0
	for l := range est.stats {
		est.stats[l] = g.LabelStats(graph.LID(l))
		totalEdges += est.stats[l].Edges
	}
	if est.v > 0 {
		est.avgDeg = float64(totalEdges) / est.v
	}
	return est
}

// NumVertices returns |V| as used by the estimates.
func (est *Estimator) NumVertices() float64 { return est.v }

// Expr estimates the cardinality of e's evaluation result R_G.
func (est *Estimator) Expr(e rpq.Expr) Card {
	switch e := e.(type) {
	case rpq.Label:
		lid, ok := est.dict.Lookup(e.Name)
		if !ok {
			return Card{} // label absent from the graph: empty relation
		}
		s := est.stats[lid]
		c := Card{Pairs: float64(s.Edges), Srcs: float64(s.DistinctSrcs), Dsts: float64(s.DistinctDsts)}
		if e.Inverse {
			c.Srcs, c.Dsts = c.Dsts, c.Srcs
		}
		return c
	case rpq.Epsilon:
		return est.identity()
	case rpq.Concat:
		if len(e.Parts) == 0 {
			return est.identity()
		}
		acc := est.Expr(e.Parts[0])
		for _, p := range e.Parts[1:] {
			acc = est.join(acc, est.Expr(p))
		}
		return acc
	case rpq.Alt:
		var acc Card
		for _, a := range e.Alts {
			c := est.Expr(a)
			acc.Pairs += c.Pairs
			acc.Srcs += c.Srcs
			acc.Dsts += c.Dsts
		}
		return est.clamp(acc)
	case rpq.Plus:
		return est.closure(est.Expr(e.Sub))
	case rpq.Star:
		return est.withIdentity(est.closure(est.Expr(e.Sub)))
	case rpq.Opt:
		return est.withIdentity(est.Expr(e.Sub))
	}
	panic("plan: unknown expression type")
}

// identity is the ε relation {(v, v)}.
func (est *Estimator) identity() Card {
	return Card{Pairs: est.v, Srcs: est.v, Dsts: est.v}
}

// join estimates a ⋈ b with the classical equi-join formula
// |a|·|b| / max(V(a.dst), V(b.src)) under the containment assumption.
func (est *Estimator) join(a, b Card) Card {
	denom := math.Max(math.Max(a.Dsts, b.Srcs), 1)
	pairs := a.Pairs * b.Pairs / denom
	return est.clamp(Card{
		Pairs: pairs,
		Srcs:  math.Min(a.Srcs, pairs),
		Dsts:  math.Min(b.Dsts, pairs),
	})
}

// closure estimates R+ from R. Sources and sinks are exactly R's — a
// closure path starts with an R path — while the pair count amplifies
// with path chaining, up to the Srcs×Dsts rectangle. The amplification
// factor log₂(|V|) stands in for the expected reachability depth; like
// every estimate here it is coarse but monotone in the input size.
func (est *Estimator) closure(c Card) Card {
	if c.Pairs == 0 {
		return Card{}
	}
	amp := math.Max(1, math.Log2(est.v+1))
	return est.clamp(Card{
		Pairs: math.Min(c.Srcs*c.Dsts, c.Pairs*amp),
		Srcs:  c.Srcs,
		Dsts:  c.Dsts,
	})
}

// withIdentity unions the ε relation in (for R* and R?).
func (est *Estimator) withIdentity(c Card) Card {
	return est.clamp(Card{Pairs: c.Pairs + est.v, Srcs: est.v, Dsts: est.v})
}

// scanFactor is the per-tuple cost multiplier of automaton traversal:
// expanding one (vertex, state) pair scans its adjacency lists, so
// traversal work scales with the average degree on top of the frontier
// size. Join operators iterate precomputed lists and never pay it.
func (est *Estimator) scanFactor() float64 { return 1 + est.avgDeg }

// clamp bounds a Card to the graph: at most |V| distinct endpoints and
// at most Srcs×Dsts pairs.
func (est *Estimator) clamp(c Card) Card {
	c.Srcs = math.Min(c.Srcs, est.v)
	c.Dsts = math.Min(c.Dsts, est.v)
	c.Pairs = math.Min(c.Pairs, math.Max(c.Srcs, 1)*math.Max(c.Dsts, 1))
	return c
}

// productEdges is the size of e's product graph, which rtc.FromProduct
// walks without building it: the sum, over the arcs of e's automaton,
// of the arc label's edge count (a label absent from the graph has
// none).
func (est *Estimator) productEdges(e rpq.Expr) float64 {
	nfa := automata.Compile(e, est.dict)
	edges := 0
	for q := 0; q < nfa.NumStates(); q++ {
		for _, a := range nfa.Arcs(q) {
			if a.Label >= 0 {
				edges += est.stats[a.Label].Edges
			}
		}
	}
	return float64(edges)
}

// evalCost estimates the work of materialising e's full relation by
// automaton-product traversal: every vertex starts a traversal, and each
// concatenation step costs about the intermediate frontier it expands —
// times the graph's average degree, because expanding one (vertex,
// state) pair scans its adjacency lists, which join operators (that
// iterate precomputed closure lists instead) never pay. Kleene parts
// count their frontier twice — cyclic closures re-walk their cycles once
// per start vertex, which a single materialisation estimate would miss.
func (est *Estimator) evalCost(e rpq.Expr) float64 {
	parts := []rpq.Expr{e}
	if c, ok := e.(rpq.Concat); ok {
		parts = c.Parts
	}
	scan := est.scanFactor()
	cost := est.v
	cur := est.identity()
	for _, p := range parts {
		cur = est.join(cur, est.Expr(p))
		cost += cur.Pairs * scan
		if rpq.HasKleene(p) {
			cost += cur.Pairs * scan
		}
	}
	return cost
}
