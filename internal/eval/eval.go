// Package eval implements automaton-product RPQ evaluation over a graph —
// the single-query method of Yakovets et al. [5] that the paper uses both
// as the NoSharing baseline and as the building block EvalRPQwithoutKC /
// EvalRestrictedRPQ inside Algorithms 1 and 2.
//
// Evaluation searches the product of the graph and the query automaton,
// whose arcs are the graph's label CSRs: a copy (vertex, automaton
// state) is reached from a start vertex when a path from it spells a
// word that drives the automaton from its start state to that state,
// and the ends are the vertices reached in an accepting state. A copy is
// expanded at most once per start vertex, which prevents duplicate
// results on cyclic graphs (Example 2). Batches of start vertices go
// through tc's word-parallel kernel (tc.Search), 64 at a time, one bit
// of a mask per copy each; a single start vertex is traversed depth
// first over per-copy stamps, which a batch of one loses to.
package eval

import (
	"rtcshare/internal/automata"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/tc"
)

// Options configure evaluation. There are none; the struct survives
// because the benchmark replay pins the New(g, e, Options{}) signature.
type Options struct{}

// Evaluator evaluates one compiled query over one graph, possibly from
// many different start-vertex sets. It reuses its search state across
// calls and is not safe for concurrent use.
type Evaluator struct {
	g    *graph.Graph
	expr rpq.Expr
	nfa  *automata.NFA

	// label is set when the expression is one label, l or ^l: the ends
	// from v are then row v of the label's CSR (labelOffsets/
	// labelTargets, nil for a label the graph does not have), read with
	// no search.
	label        bool
	labelOffsets []int32
	labelTargets []graph.VID

	product tc.Product  // built on first use (walk)
	starts  []graph.VID // the candidate starts, on the first Starts
	search  *tc.Search  // built on the first batch

	// One start vertex is traversed depth-first instead: stamp[state*|V|
	// +v] == generation marks (v, state) visited for the current start
	// vertex, allocated on the first traversal; bumping generation
	// clears it in O(1).
	stamp      []uint32
	generation uint32
	stack      []prodState
	reach      []graph.VID // AppendReachFrom's buffer during a traversal
}

type prodState struct {
	v     graph.VID
	state int32
}

// New compiles e against g's label dictionary and returns an Evaluator.
func New(g *graph.Graph, e rpq.Expr, _ Options) *Evaluator {
	ev := &Evaluator{g: g, expr: e, nfa: automata.Compile(e, g.Dict())}
	if l, ok := e.(rpq.Label); ok {
		ev.label = true
		if lid, found := g.Dict().Lookup(l.Name); found {
			ev.labelOffsets, ev.labelTargets = g.LabelCSR(lid, l.Inverse)
		}
	}
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

// EvaluateAll evaluates from every vertex of the graph.
func (ev *Evaluator) EvaluateAll() *pairs.Set {
	out := pairs.NewSet()
	ev.each(func(src, dst graph.VID) { out.Add(src, dst) })
	return out
}

// AppendAll emits R_G into a relation builder instead of a set: every
// (start, end) the search finds is appended raw, each once, so the
// builder receives a duplicate-free stream and Seal's dedup pass is a
// no-op. (The engine evaluates a clause in batches with Reach;
// AppendAll seals R_G whole for the benchmark replay and the tests.)
func (ev *Evaluator) AppendAll(out *pairs.Builder) {
	ev.each(out.Add)
}

// each calls fn for every pair of R_G: a label's CSR rows, or the
// product searched from 64 candidate start vertices at a time.
func (ev *Evaluator) each(fn func(src, dst graph.VID)) {
	if ev.label {
		for v := range graph.VID(ev.g.NumVertices()) {
			for _, w := range ev.labelRow(v) {
				fn(v, w)
			}
		}
		return
	}
	var runs pairs.WordRuns
	var ends []graph.VID
	for starts := ev.Starts(); len(starts) > 0; {
		srcs := starts[:min(64, len(starts))]
		starts = starts[len(srcs):]
		runs.Reset()
		ev.Reach(srcs, nil, &runs)
		for i, u := range srcs {
			ends = runs.AppendRun(ends[:0], i)
			for _, w := range ends {
				fn(u, w)
			}
		}
	}
}

// labelRow returns a label evaluator's ends from v, aliasing the
// graph's storage; nil for any other evaluator.
func (ev *Evaluator) labelRow(v graph.VID) []graph.VID {
	if ev.labelOffsets == nil {
		return nil
	}
	return ev.labelTargets[ev.labelOffsets[v]:ev.labelOffsets[v+1]]
}

// Reach searches the product from up to 64 start vertices at once and
// appends to out one run per source, in source order: its ends,
// EvalRestrictedRPQ from it. check is polled after every level of the
// search, weighted by the edges walked plus the ends found; a search it
// stops returns its error with nothing appended.
func (ev *Evaluator) Reach(sources []graph.VID, check tc.Checkpoint, out *pairs.WordRuns) error {
	if ev.search == nil {
		ev.search = tc.NewSearch(ev.walk())
	}
	return ev.search.Reach(sources, check, out)
}

// Starts returns the vertices at which a match can start
// (tc.Product.Start), ascending, computed on the first call; the caller
// must not modify it.
func (ev *Evaluator) Starts() []graph.VID {
	if ev.starts == nil {
		p := ev.walk()
		ev.starts = []graph.VID{}
		for v := range graph.VID(p.N) {
			if p.Start(v) {
				ev.starts = append(ev.starts, v)
			}
		}
	}
	return ev.starts
}

// walk returns the product the evaluator searches, built on first use:
// a label evaluator reads its CSR, and the sealed path never walks it.
func (ev *Evaluator) walk() *tc.Product {
	if ev.product.States == nil {
		ev.product = tc.NewProduct(ev.g, ev.nfa)
	}
	return &ev.product
}

// AppendReachFrom appends the end vertices of paths satisfying the query
// that start at v — EvalRestrictedRPQ(Post, v) of Algorithm 2 line 14 —
// to buf and returns the extended buffer: a label's CSR row, or a
// depth-first traversal of the product from (v, q0), which for one start
// vertex costs a stamp per copy it visits where a batch of one would
// pay the batch's blocks. The engine's per-vertex Post producers keep
// one pooled buffer per join, so a traversal allocates nothing once the
// buffer is warm.
func (ev *Evaluator) AppendReachFrom(v graph.VID, buf []graph.VID) []graph.VID {
	if ev.label {
		return append(buf, ev.labelRow(v)...)
	}
	ev.reach = buf
	ev.traverse(v)
	buf, ev.reach = ev.reach, nil
	return buf
}

// traverse walks the product space from (start, q0), appending to reach
// every vertex reached in an accepting state. Each (vertex, state) pair
// is expanded at most once per start vertex.
func (ev *Evaluator) traverse(start graph.VID) {
	n, p := ev.g.NumVertices(), ev.walk()
	if ev.stamp == nil {
		ev.stamp = make([]uint32, ev.nfa.NumStates()*n)
	}
	if ev.generation++; ev.generation == 0 { // uint32 wrap: clear and restart
		clear(ev.stamp)
		ev.generation = 1
	}
	ev.stamp[start] = ev.generation
	ev.stack = append(ev.stack[:0], prodState{v: start})
	for len(ev.stack) > 0 {
		top := ev.stack[len(ev.stack)-1]
		ev.stack = ev.stack[:len(ev.stack)-1]
		if p.States[top.state].Accept {
			ev.reach = append(ev.reach, top.v)
		}
		arcs := p.States[top.state].Arcs
		for ai := range arcs {
			a := &arcs[ai]
			for _, w := range a.Fwd.Targets[a.Fwd.Offsets[top.v]:a.Fwd.Offsets[top.v+1]] {
				if idx := a.To*n + int(w); ev.stamp[idx] != ev.generation {
					ev.stamp[idx] = ev.generation
					ev.stack = append(ev.stack, prodState{v: w, state: int32(a.To)})
				}
			}
		}
	}
}

// Idle reports whether the evaluator's search state holds nothing, as
// between searches.
func (ev *Evaluator) Idle() bool { return ev.search == nil || ev.search.Idle() }
