package eval

import (
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// This file adds the two enumeration-support probes of the streaming
// delivery layer: AnyFrom, the early-exit existence traversal behind
// ASK, and Witness, the shortest label-path reconstruction behind
// /query?witness=1. Both run over the same (vertex, automaton-state)
// product space as the normal traversal; neither builds any new shared
// structure.

// AnyFrom reports whether any path satisfying the query starts at
// start — the traversal of ReachFrom, stopped at the first accepting
// product state. It shares the evaluator's stamp scratch, so like every
// traversal it requires exclusive use of the evaluator.
func (ev *Evaluator) AnyFrom(start graph.VID) bool {
	ev.generation++
	if ev.generation == 0 {
		for i := range ev.stamp {
			ev.stamp[i] = 0
		}
		ev.generation = 1
	}
	gen := ev.generation
	n := ev.g.NumVertices()

	mark := func(state int32, v graph.VID) bool {
		idx := int(state)*n + int(v)
		if ev.stamp[idx] == gen {
			return false
		}
		ev.stamp[idx] = gen
		return true
	}

	ev.stack = ev.stack[:0]
	mark(0, start)
	ev.stack = append(ev.stack, prodState{v: start, state: 0})

	for len(ev.stack) > 0 {
		top := ev.stack[len(ev.stack)-1]
		ev.stack = ev.stack[:len(ev.stack)-1]
		if ev.nfa.IsAccept(int(top.state)) {
			return true
		}
		arcs := ev.nfa.Arcs(int(top.state))
		for i := 0; i < len(arcs); {
			label, inverse := arcs[i].Label, arcs[i].Inverse
			if label < 0 {
				i++
				continue
			}
			neigh := ev.neighbors(top.v, label, inverse)
			for ; i < len(arcs) && arcs[i].Label == label && arcs[i].Inverse == inverse; i++ {
				for _, w := range neigh {
					if mark(int32(arcs[i].To), w) {
						ev.stack = append(ev.stack, prodState{v: w, state: int32(arcs[i].To)})
					}
				}
			}
		}
	}
	return false
}

// Witness returns one shortest (by edge count) label path witnessing
// that (src, dst) is in the query's result, or ok=false when the pair
// is not in the result. The path is a sequence of label steps — each
// forward or inverse — such that following them from src along graph
// edges reaches dst while driving the query automaton from its start
// state into an accepting state; a zero-length path (src == dst with
// the automaton accepting the empty word) returns an empty, valid
// witness.
//
// The search is a BFS over the (vertex, NFA-state) product with parent
// tracking, so the first accepting (dst, ·) dequeued is reached by a
// minimal number of edges. It allocates two int32 columns over the
// product space per call and builds no new shared structures.
func (ev *Evaluator) Witness(src, dst graph.VID) (path []rpq.Label, ok bool) {
	n := ev.g.NumVertices()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return nil, false
	}
	if ev.nfa.IsAccept(0) && src == dst {
		return []rpq.Label{}, true
	}

	numStates := ev.nfa.NumStates()
	// parent[i] is the product index this state was first reached from
	// (-1 unvisited, -2 the BFS root); step[i] encodes the arc taken as
	// lid<<1|inverse.
	parent := make([]int32, numStates*n)
	step := make([]int32, numStates*n)
	for i := range parent {
		parent[i] = -1
	}
	idx := func(state int32, v graph.VID) int32 { return state*int32(n) + int32(v) }

	root := idx(0, src)
	parent[root] = -2
	queue := []int32{root}
	goal := int32(-1)

	for len(queue) > 0 && goal < 0 {
		cur := queue[0]
		queue = queue[1:]
		curState := cur / int32(n)
		curV := graph.VID(cur % int32(n))
		arcs := ev.nfa.Arcs(int(curState))
		for i := 0; i < len(arcs) && goal < 0; {
			label, inverse := arcs[i].Label, arcs[i].Inverse
			if label < 0 {
				i++
				continue
			}
			neigh := ev.neighbors(curV, label, inverse)
			code := int32(label) << 1
			if inverse {
				code |= 1
			}
			for ; i < len(arcs) && arcs[i].Label == label && arcs[i].Inverse == inverse; i++ {
				for _, w := range neigh {
					ni := idx(int32(arcs[i].To), w)
					if parent[ni] != -1 {
						continue
					}
					parent[ni] = cur
					step[ni] = code
					if w == dst && ev.nfa.IsAccept(arcs[i].To) {
						goal = ni
						break
					}
					queue = append(queue, ni)
				}
				if goal >= 0 {
					break
				}
			}
		}
	}
	if goal < 0 {
		return nil, false
	}

	// Walk the parent chain back to the root, then reverse.
	for at := goal; parent[at] != -2; at = parent[at] {
		code := step[at]
		path = append(path, rpq.Label{
			Name:    ev.g.Dict().Name(graph.LID(code >> 1)),
			Inverse: code&1 == 1,
		})
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}
