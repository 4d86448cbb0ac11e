package eval

import (
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// This file implements first-step seeding: restricting an all-pairs
// product traversal to the vertices that can actually take the first
// step of the expression. For selective queries — a rare first label —
// this skips almost every start vertex. The engine's producer of a
// closure-free clause traverses from these candidates only.

// firstStep is one admissible opening move of an expression: follow an
// edge with this label, backwards when Inverse is set.
type firstStep struct {
	Name    string
	Inverse bool
}

// firstSteps computes the set of admissible opening moves of e and
// whether e is nullable (matches the empty word). The analysis is the
// standard FIRST-set recursion over the regular expression.
func firstSteps(e rpq.Expr, into map[firstStep]bool) (nullable bool) {
	switch e := e.(type) {
	case rpq.Label:
		into[firstStep{Name: e.Name, Inverse: e.Inverse}] = true
		return false
	case rpq.Epsilon:
		return true
	case rpq.Plus:
		return firstSteps(e.Sub, into)
	case rpq.Star:
		firstSteps(e.Sub, into)
		return true
	case rpq.Opt:
		firstSteps(e.Sub, into)
		return true
	case rpq.Concat:
		for _, p := range e.Parts {
			if !firstSteps(p, into) {
				return false
			}
		}
		return true
	case rpq.Alt:
		nullable := false
		for _, a := range e.Alts {
			if firstSteps(a, into) {
				nullable = true
			}
		}
		return nullable
	}
	panic("eval: unknown expression type")
}

// CandidateStarts returns the vertices that can start a match of e on g:
// those with at least one edge admissible as the first step. ok is false
// when the analysis cannot restrict the start set — e is nullable, so
// every vertex matches (v, v) — in which case callers must traverse from
// every vertex.
func CandidateStarts(g *graph.Graph, e rpq.Expr) (starts []graph.VID, ok bool) {
	steps := make(map[firstStep]bool)
	if firstSteps(e, steps) {
		return nil, false
	}
	// Resolve the step labels once; unknown labels admit no start.
	type lidStep struct {
		lid     graph.LID
		inverse bool
	}
	var resolved []lidStep
	for s := range steps {
		if lid, found := g.Dict().Lookup(s.Name); found {
			resolved = append(resolved, lidStep{lid: lid, inverse: s.Inverse})
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, s := range resolved {
			var deg int
			if s.inverse {
				deg = len(g.Predecessors(graph.VID(v), s.lid))
			} else {
				deg = g.OutDegree(graph.VID(v), s.lid)
			}
			if deg > 0 {
				starts = append(starts, graph.VID(v))
				break
			}
		}
	}
	return starts, true
}
