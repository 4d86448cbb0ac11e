package eval

import (
	"slices"

	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
	"rtcshare/internal/tc"
)

// This file implements first-step seeding: restricting an all-pairs
// product search to the vertices that can actually take the first step
// of the expression. For selective queries — a rare first label — this
// skips almost every start vertex. The engine's producer of a
// closure-free clause batches these candidates only.

// CandidateStarts returns the vertices that can start a match of e on g:
// those with an edge on an arc out of the automaton's start state, which
// after ε-elimination are exactly e's admissible first steps (its FIRST
// set). ok is false when the analysis cannot restrict the start set — e
// is nullable, so every vertex matches (v, v) — in which case callers
// must search from every vertex.
func CandidateStarts(g *graph.Graph, e rpq.Expr) (starts []graph.VID, ok bool) {
	ev := New(g, e, Options{})
	if ev.product.Empty {
		return nil, false
	}
	return ev.starts(), true
}

// starts returns the candidate start vertices, ascending: every vertex
// when the start state accepts.
func (ev *Evaluator) starts() []graph.VID {
	var starts []graph.VID
	for v := range graph.VID(ev.g.NumVertices()) {
		if ev.product.Empty || slices.ContainsFunc(ev.product.States[0].Arcs, func(a tc.Arc) bool { return a.Fwd.Offsets[v+1] > a.Fwd.Offsets[v] }) {
			starts = append(starts, v)
		}
	}
	return starts
}
