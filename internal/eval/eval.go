// Package eval implements automaton-product RPQ evaluation over a graph —
// the single-query method of Yakovets et al. [5] that the paper uses both
// as the NoSharing baseline and as the building block EvalRPQwithoutKC /
// EvalRestrictedRPQ inside Algorithms 1 and 2.
//
// Evaluation traverses the product of the graph and the query automaton:
// a traversal is a pair (vertex, automaton state), extended along edges
// whose label transitions the state. Following Example 2, a traversal
// terminates when its (vertex, state) pair was already visited from the
// same start vertex, which prevents duplicate results on cyclic graphs.
package eval

import (
	"rtcshare/internal/automata"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// Options configure evaluation. There are none; the struct survives
// because the benchmark replay pins the New(g, e, Options{}) signature.
type Options struct{}

// Evaluator evaluates one compiled query over one graph, possibly from
// many different start-vertex sets. It reuses traversal scratch space
// across calls and is not safe for concurrent use.
type Evaluator struct {
	g    *graph.Graph
	expr rpq.Expr
	nfa  *automata.NFA

	// label is set when the expression is one label, l or ^l: a
	// traversal from v is then row v of the label's CSR (labelOffsets/
	// labelTargets, nil for a label the graph does not have), read with
	// no product state and no stamps.
	label        bool
	labelOffsets []int32
	labelTargets []graph.VID

	numStates int
	// stamp[state*|V|+v] == generation marks (v, state) visited for the
	// current start vertex; bumping generation clears in O(1). A label
	// evaluator never allocates it.
	stamp      []uint32
	generation uint32
	stack      []prodState

	// reach temporarily holds AppendReachFrom's output buffer. Keeping
	// it on the evaluator (exclusively owned during a call) lets the
	// emit closure capture only the receiver, so it never forces a heap
	// cell for the buffer variable.
	reach []graph.VID
}

type prodState struct {
	v     graph.VID
	state int32
}

// New compiles e against g's label dictionary and returns an Evaluator.
func New(g *graph.Graph, e rpq.Expr, _ Options) *Evaluator {
	ev := &Evaluator{g: g, expr: e}
	ev.nfa = automata.Compile(e, g.Dict())
	ev.numStates = ev.nfa.NumStates()
	if l, ok := e.(rpq.Label); ok {
		ev.label = true
		if lid, found := g.Dict().Lookup(l.Name); found {
			ev.labelOffsets, ev.labelTargets = g.LabelCSR(lid, l.Inverse)
		}
		return ev
	}
	ev.stamp = make([]uint32, ev.numStates*g.NumVertices())
	return ev
}

// LabelCSR hands out the columns a label evaluator reads: ok reports
// whether the expression is one label, and row v of offsets/targets is
// then what AppendReachFrom(v) appends. The columns are nil for a label
// the graph does not have, and alias the graph's storage.
func (ev *Evaluator) LabelCSR() (offsets []int32, targets []graph.VID, ok bool) {
	return ev.labelOffsets, ev.labelTargets, ev.label
}

// Evaluate computes R_G for e on g from every vertex (Definition 2).
func Evaluate(g *graph.Graph, e rpq.Expr) *pairs.Set {
	return New(g, e, Options{}).EvaluateAll()
}

// EvaluateAll runs the traversal from every vertex of the graph.
func (ev *Evaluator) EvaluateAll() *pairs.Set {
	out := pairs.NewSet()
	for v := 0; v < ev.g.NumVertices(); v++ {
		ev.fromVertex(graph.VID(v), out)
	}
	return out
}

// AppendAll emits R_G into a relation builder instead of a set: every
// (start, end) the traversal finds is appended raw. The traversal's
// per-start visited stamps already guarantee each pair is emitted once,
// so the builder receives a duplicate-free stream and Seal's dedup pass
// is a no-op. (The engine evaluates per source with AppendReachFrom;
// AppendAll seals R_G whole for the benchmark replay and the tests.)
func (ev *Evaluator) AppendAll(out *pairs.Builder) {
	for v := 0; v < ev.g.NumVertices(); v++ {
		ev.appendVertex(graph.VID(v), out)
	}
}

func (ev *Evaluator) appendVertex(start graph.VID, out *pairs.Builder) {
	ev.traverse(start, func(end graph.VID) {
		out.Add(start, end)
	})
}

// AppendReachFrom appends the end vertices of paths satisfying the query
// that start at v — EvalRestrictedRPQ(Post, v) of Algorithm 2 line 14 —
// to buf and returns the extended buffer. The engine's per-source
// producers keep one pooled buffer per join (the pair-level join records
// (offset, end) spans into it), so a traversal allocates nothing once
// the buffer is warm.
func (ev *Evaluator) AppendReachFrom(v graph.VID, buf []graph.VID) []graph.VID {
	ev.reach = buf
	ev.traverse(v, func(end graph.VID) {
		ev.reach = append(ev.reach, end)
	})
	buf = ev.reach
	ev.reach = nil
	return buf
}

func (ev *Evaluator) fromVertex(start graph.VID, out *pairs.Set) {
	ev.traverse(start, func(end graph.VID) {
		out.Add(start, end)
	})
}

// traverse walks the product space from (start, q0), invoking emit for
// every vertex reached in an accepting state. Each (vertex, state) pair
// is expanded at most once per start vertex. A label evaluator emits
// start's row of the label's CSR instead: the product of one edge step
// reaches exactly those vertices, each once.
func (ev *Evaluator) traverse(start graph.VID, emit func(graph.VID)) {
	if ev.label {
		if ev.labelOffsets != nil {
			for _, w := range ev.labelTargets[ev.labelOffsets[start]:ev.labelOffsets[start+1]] {
				emit(w)
			}
		}
		return
	}
	ev.generation++
	if ev.generation == 0 { // uint32 wrap: clear and restart
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
			emit(top.v)
		}
		arcs := ev.nfa.Arcs(int(top.state))
		for i := 0; i < len(arcs); {
			label, inverse := arcs[i].Label, arcs[i].Inverse
			if label < 0 {
				i++
				continue // dead transition: label absent from the graph
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
}

// neighbors resolves a traversal step: forward arcs follow Successors,
// inverse arcs (the ^label operator) follow Predecessors.
func (ev *Evaluator) neighbors(v graph.VID, label graph.LID, inverse bool) []graph.VID {
	if inverse {
		return ev.g.Predecessors(v, label)
	}
	return ev.g.Successors(v, label)
}
