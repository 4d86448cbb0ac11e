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
	"runtime"
	"sync"

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

	numStates int
	// stamp[state*|V|+v] == generation marks (v, state) visited for the
	// current start vertex; bumping generation clears in O(1).
	stamp      []uint32
	generation uint32
	stack      []prodState

	// seeds caches the first-step candidate start set for
	// EvaluateAllSeeded; seedsOK records whether seeding is admissible.
	seeds     []graph.VID
	seedsOK   bool
	seedsInit bool

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
	ev.stamp = make([]uint32, ev.numStates*g.NumVertices())
	return ev
}

// Evaluate computes R_G for e on g from every vertex (Definition 2).
func Evaluate(g *graph.Graph, e rpq.Expr) *pairs.Set {
	return New(g, e, Options{}).EvaluateAll()
}

// EvaluateFrom computes the subset of R_G whose start vertex is in starts.
func EvaluateFrom(g *graph.Graph, e rpq.Expr, starts []graph.VID) *pairs.Set {
	return New(g, e, Options{}).evaluate(starts)
}

// EvaluateAll runs the traversal from every vertex of the graph.
func (ev *Evaluator) EvaluateAll() *pairs.Set {
	out := pairs.NewSet()
	for v := 0; v < ev.g.NumVertices(); v++ {
		ev.fromVertex(graph.VID(v), out)
	}
	return out
}

// EvaluateFrom runs the traversal from the given start vertices only.
func (ev *Evaluator) EvaluateFrom(starts []graph.VID) *pairs.Set {
	return ev.evaluate(starts)
}

// EvaluateAllParallel is EvaluateAll fanned out over worker goroutines:
// start vertices are evaluated independently (the traversal state is
// per-start), so the work partitions perfectly. workers ≤ 1 or a
// single-vertex graph falls back to the serial path. The receiving
// Evaluator's scratch space is untouched; each worker builds its own.
func (ev *Evaluator) EvaluateAllParallel(workers int) *pairs.Set {
	n := ev.g.NumVertices()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return ev.EvaluateAll()
	}

	results := make([]*pairs.Set, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker := New(ev.g, ev.expr, Options{})
			out := pairs.NewSet()
			for v := w; v < n; v += workers {
				worker.fromVertex(graph.VID(v), out)
			}
			results[w] = out
		}(w)
	}
	wg.Wait()

	merged := results[0]
	for _, r := range results[1:] {
		merged.Union(r)
	}
	return merged
}

// AppendAll emits R_G into a relation builder instead of a set: every
// (start, end) the traversal finds is appended raw. The traversal's
// per-start visited stamps already guarantee each pair is emitted once,
// so the builder receives a duplicate-free stream and Seal's dedup pass
// is a no-op — the engine's columnar path evaluates a whole sub-query
// with one sealed allocation and zero hashing.
func (ev *Evaluator) AppendAll(out *pairs.Builder) {
	for v := 0; v < ev.g.NumVertices(); v++ {
		ev.appendVertex(graph.VID(v), out)
	}
}

// AppendFrom is AppendAll restricted to the given start vertices.
func (ev *Evaluator) AppendFrom(starts []graph.VID, out *pairs.Builder) {
	for _, v := range starts {
		ev.appendVertex(v, out)
	}
}

func (ev *Evaluator) appendVertex(start graph.VID, out *pairs.Builder) {
	ev.traverse(start, func(end graph.VID) {
		out.Add(start, end)
	})
}

// ReachFrom returns the end vertices of paths satisfying the query that
// start at v — EvalRestrictedRPQ(Post, v) of Algorithm 2 line 14.
func (ev *Evaluator) ReachFrom(v graph.VID) []graph.VID {
	var ends []graph.VID
	ev.traverse(v, func(end graph.VID) {
		ends = append(ends, end)
	})
	return ends
}

// AppendReachFrom is ReachFrom appending into a caller-owned buffer and
// returning the extended buffer: the columnar joinPost keeps one pooled
// buffer per batch unit and records (offset, end) spans into it, so the
// per-vertex Post traversals allocate nothing once the buffer is warm.
func (ev *Evaluator) AppendReachFrom(v graph.VID, buf []graph.VID) []graph.VID {
	ev.reach = buf
	ev.traverse(v, func(end graph.VID) {
		ev.reach = append(ev.reach, end)
	})
	buf = ev.reach
	ev.reach = nil
	return buf
}

func (ev *Evaluator) evaluate(starts []graph.VID) *pairs.Set {
	out := pairs.NewSet()
	for _, v := range starts {
		ev.fromVertex(v, out)
	}
	return out
}

func (ev *Evaluator) fromVertex(start graph.VID, out *pairs.Set) {
	ev.traverse(start, func(end graph.VID) {
		out.Add(start, end)
	})
}

// traverse walks the product space from (start, q0), invoking emit for
// every vertex reached in an accepting state. Each (vertex, state) pair
// is expanded at most once per start vertex.
func (ev *Evaluator) traverse(start graph.VID, emit func(graph.VID)) {
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
