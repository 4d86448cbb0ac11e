// Package automata compiles RPQ expressions to finite automata for the
// pattern-matching half of RPQ evaluation (Section II-B). Queries compile
// to a Thompson NFA whose ε-transitions are eliminated at construction.
//
// Automaton transitions are keyed by graph label IDs (graph.LID): a query
// label that does not occur in the target graph's dictionary compiles to
// a dead transition that can never fire during traversal.
package automata

import (
	"sort"

	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// deadLabel marks a transition on a label absent from the graph
// dictionary. Graph LIDs are non-negative, so it never matches an edge.
const deadLabel graph.LID = -1

// Arc is one labeled transition of an ε-free NFA. Inverse arcs traverse
// graph edges backwards (the ^label operator); during word matching they
// never fire, since a word carries no direction.
type Arc struct {
	Label   graph.LID
	Inverse bool
	To      int
}

// NFA is an ε-free nondeterministic finite automaton over graph label IDs.
// State 0 is always the start state.
type NFA struct {
	arcs   [][]Arc
	accept []bool
}

// Compile builds the ε-free NFA of e. Labels are resolved against dict
// without mutating it; unknown labels become dead transitions.
func Compile(e rpq.Expr, dict *graph.Dict) *NFA {
	tb := &thompsonBuilder{dict: dict}
	frag := tb.build(e)
	return eliminateEpsilon(tb, frag)
}

// NumStates returns the number of automaton states.
func (n *NFA) NumStates() int { return len(n.arcs) }

// Start returns the start state (always 0).
func (n *NFA) Start() int { return 0 }

// IsAccept reports whether s is an accepting state.
func (n *NFA) IsAccept(s int) bool { return n.accept[s] }

// Arcs returns the outgoing transitions of s, sorted by (Label, To).
// The caller must not modify the returned slice.
func (n *NFA) Arcs(s int) []Arc { return n.arcs[s] }

// MatchesEmpty reports whether the automaton accepts the empty word.
func (n *NFA) MatchesEmpty() bool { return n.accept[0] }

// Match reports whether the automaton accepts the word. It is a
// reference-style simulation used by tests; evaluation over graphs lives
// in package eval.
func (n *NFA) Match(word []graph.LID) bool {
	cur := map[int]bool{0: true}
	for _, l := range word {
		next := make(map[int]bool)
		for s := range cur {
			for _, a := range n.arcs[s] {
				if a.Label == l && !a.Inverse {
					next[a.To] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	for s := range cur {
		if n.accept[s] {
			return true
		}
	}
	return false
}

// thompsonBuilder constructs a classical Thompson automaton with
// ε-transitions; eliminateEpsilon then compacts it.
type thompsonBuilder struct {
	dict *graph.Dict
	eps  [][]int
	arcs [][]Arc
}

// frag is a Thompson fragment with one entry and one exit state.
type frag struct {
	start, end int
}

func (tb *thompsonBuilder) newState() int {
	tb.eps = append(tb.eps, nil)
	tb.arcs = append(tb.arcs, nil)
	return len(tb.eps) - 1
}

func (tb *thompsonBuilder) addEps(from, to int) {
	tb.eps[from] = append(tb.eps[from], to)
}

func (tb *thompsonBuilder) addArc(from int, label graph.LID, inverse bool, to int) {
	tb.arcs[from] = append(tb.arcs[from], Arc{Label: label, Inverse: inverse, To: to})
}

func (tb *thompsonBuilder) build(e rpq.Expr) frag {
	switch e := e.(type) {
	case rpq.Label:
		s, t := tb.newState(), tb.newState()
		lid, ok := tb.dict.Lookup(e.Name)
		if !ok {
			lid = deadLabel
		}
		tb.addArc(s, lid, e.Inverse, t)
		return frag{s, t}
	case rpq.Epsilon:
		s, t := tb.newState(), tb.newState()
		tb.addEps(s, t)
		return frag{s, t}
	case rpq.Concat:
		if len(e.Parts) == 0 {
			return tb.build(rpq.Epsilon{})
		}
		f := tb.build(e.Parts[0])
		for _, p := range e.Parts[1:] {
			g := tb.build(p)
			tb.addEps(f.end, g.start)
			f = frag{f.start, g.end}
		}
		return f
	case rpq.Alt:
		s, t := tb.newState(), tb.newState()
		for _, a := range e.Alts {
			g := tb.build(a)
			tb.addEps(s, g.start)
			tb.addEps(g.end, t)
		}
		return frag{s, t}
	case rpq.Plus:
		g := tb.build(e.Sub)
		s, t := tb.newState(), tb.newState()
		tb.addEps(s, g.start)
		tb.addEps(g.end, t)
		tb.addEps(g.end, g.start) // loop back: one or more
		return frag{s, t}
	case rpq.Star:
		g := tb.build(e.Sub)
		s, t := tb.newState(), tb.newState()
		tb.addEps(s, g.start)
		tb.addEps(g.end, t)
		tb.addEps(g.end, g.start)
		tb.addEps(s, t) // skip: zero repetitions
		return frag{s, t}
	case rpq.Opt:
		g := tb.build(e.Sub)
		s, t := tb.newState(), tb.newState()
		tb.addEps(s, g.start)
		tb.addEps(g.end, t)
		tb.addEps(s, t)
		return frag{s, t}
	}
	panic("automata: unknown expression type")
}

// eliminateEpsilon converts the Thompson automaton into an ε-free NFA
// whose states are the Thompson states reachable by a non-ε arc (plus the
// start). Each retained state's arcs are the union of raw arcs leaving
// its ε-closure; it accepts when its ε-closure contains the Thompson
// accept state. Unreachable states are dropped and arcs are sorted.
func eliminateEpsilon(tb *thompsonBuilder, f frag) *NFA {
	nStates := len(tb.eps)
	closure := func(s int) []int {
		seen := make([]bool, nStates)
		stack := []int{s}
		seen[s] = true
		var out []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out = append(out, v)
			for _, w := range tb.eps[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return out
	}

	// BFS from the start over "closure then arc" steps, renumbering the
	// retained states densely.
	id := make(map[int]int)
	order := []int{f.start}
	id[f.start] = 0
	arcs := [][]Arc{}
	accept := []bool{}
	for i := 0; i < len(order); i++ {
		src := order[i]
		acc := false
		var out []Arc
		for _, c := range closure(src) {
			if c == f.end {
				acc = true
			}
			for _, a := range tb.arcs[c] {
				to, ok := id[a.To]
				if !ok {
					to = len(order)
					id[a.To] = to
					order = append(order, a.To)
				}
				out = append(out, Arc{Label: a.Label, Inverse: a.Inverse, To: to})
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Label != out[j].Label {
				return out[i].Label < out[j].Label
			}
			if out[i].Inverse != out[j].Inverse {
				return !out[i].Inverse
			}
			return out[i].To < out[j].To
		})
		out = dedupArcs(out)
		arcs = append(arcs, out)
		accept = append(accept, acc)
	}
	return &NFA{arcs: arcs, accept: accept}
}

func dedupArcs(as []Arc) []Arc {
	if len(as) == 0 {
		return as
	}
	out := as[:1]
	for _, a := range as[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}
