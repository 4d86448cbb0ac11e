package rtc

import (
	"slices"

	"rtcshare/internal/automata"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
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
// The product's edges are never materialised. One iterative Tarjan
// walks it (tc.NewProduct, the product the searches walk) from the
// start copies that have an out-edge, reading a copy's successors from
// its state's arcs, each a label CSR of g, so it covers exactly the
// copies reachable from start copies. Components close in reverse
// topological order, so each one's condensation run is emitted as it
// closes; its start copies go to one flat array, which becomes the
// member column. A vertex u is in V_R when (q₀, u) has an in-edge (some
// R path ends at u) or reaches a start copy by a non-empty path (some R
// path starts at u). check is polled as each copy is entered,
// weighted by that copy and the edges walked since the previous poll,
// so polls keep pace with the walk even while it descends through a
// single giant component; on abort FromProduct returns its error and a
// nil RTC.
func FromProduct(g *graph.Graph, r rpq.Expr, check tc.Checkpoint) (*RTC, error) {
	p := tc.NewProduct(g, automata.Compile(r, g.Dict()))
	n := p.N
	// num[c] for the copy c = q·n+v is 0 until visited, its DFS number
	// (from 1) while on Tarjan's stack, and -(SID+1) once its component
	// has closed.
	num := make([]int32, len(p.States)*n)
	type component struct {
		end            int32 // its start copies are flat[end of the previous:end]
		stamp          int32 // the SID+1 of the last component to emit an edge to it
		start, toStart bool  // it holds a start copy; it reaches one by a non-empty path
	}
	type frame struct {
		cursor
		low  int32 // Tarjan's lowlink
		out  int32 // len(out) when the copy was entered
		loop bool  // the copy has an edge to itself
	}
	var (
		comps   []component
		flat    []graph.VID
		offsets = []int32{0} // the condensation, as CSR runs over SIDs
		targets []graph.VID
		stack   []int32     // Tarjan's stack of copies
		out     []graph.VID // the closed components the open copies have edges to
		frames  []frame
		next    int32
		walked  int // out-edges walked since check was last polled
	)
	// visit enters copy c, polling check first with the work done since
	// the last poll: this copy and the edges walked meanwhile.
	visit := func(c int32) error {
		if check != nil {
			if err := check(walked + 1); err != nil {
				return err
			}
			walked = 0
		}
		next++
		num[c] = next
		stack = append(stack, c)
		frames = append(frames, frame{cursor: cursor{c: c, q: c / int32(n)}, low: next, out: int32(len(out))})
		return nil
	}
	// The walk roots only at the start copies with an out-edge
	// (tc.Product.Start): one with an in-edge alone is reached from
	// another root, and one with neither is outside the product. Rooting
	// at every start copy would build the same RTC, but each copy with
	// neither edge would close as a component of its own for compact to
	// drop: on RMAT_3 at 2^11 vertices that costs 13–27% more time per
	// build.
	for u := range graph.VID(n) {
		if num[u] != 0 || !p.Start(u) {
			continue
		}
		if err := visit(int32(u)); err != nil {
			return nil, err
		}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if w, ok := f.next(&p); ok {
				walked++
				switch x := num[w]; {
				case x == 0:
					if err := visit(w); err != nil {
						return nil, err
					}
				case x > 0: // on the stack, so in the copy's component
					f.low = min(f.low, x)
					f.loop = f.loop || w == f.c
				default:
					out = append(out, -x-1)
				}
				continue
			}
			c, low, lo, loop := f.c, f.low, f.out, f.loop
			frames = frames[:len(frames)-1]
			if low < num[c] {
				p := &frames[len(frames)-1]
				p.low = min(p.low, low)
				continue
			}

			// c roots a component: pop it, then emit its condensation
			// run. Its successors have closed, so their SIDs and toStart
			// are final.
			sid := int32(len(comps))
			memberLo, size := len(flat), 0
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				num[w] = -sid - 1
				size++
				if int(w) < n {
					flat = append(flat, w)
				}
				if w == c {
					break
				}
			}
			slices.Sort(flat[memberLo:])
			sc := component{end: int32(len(flat)), start: len(flat) > memberLo}
			for _, t := range out[lo:] {
				if comps[t].stamp != sid+1 {
					comps[t].stamp = sid + 1
					targets = append(targets, t)
					sc.toStart = sc.toStart || comps[t].start || comps[t].toStart
				}
			}
			if loop || size > 1 {
				targets = append(targets, sid)
				sc.toStart = sc.toStart || sc.start
			}
			comps = append(comps, sc)
			offsets = append(offsets, int32(len(targets)))
			out = out[:lo]
			if len(frames) > 0 {
				out = append(out, sid)
			}
		}
	}

	// Keep the start copies in V_R. (q₀, u) has an in-edge exactly when
	// an accepting copy (q_f, u) was visited, since Compile's start state
	// has no incoming arc. flat is filtered to them in place; the member
	// column is its exact copy, and compact keeps the member offsets of
	// only the components it keeps.
	hasIn := func(u int) bool {
		for q, st := range p.States {
			if st.Accept && num[q*n+u] != 0 {
				return true
			}
		}
		return false
	}
	compOf := make([]int32, n)
	for u := range compOf {
		s := int32(-1)
		if x := num[u]; x < 0 && (hasIn(u) || comps[-x-1].toStart) {
			s = -x - 1
		}
		compOf[u] = s
	}
	memberOff := make([]int32, len(comps)+1)
	m, memberLo := 0, int32(0)
	for s, sc := range comps {
		for _, v := range flat[memberLo:sc.end] {
			if compOf[v] >= 0 {
				flat[m] = v
				m++
			}
		}
		memberOff[s+1] = int32(m)
		memberLo = sc.end
	}
	members, cond := compact(compOf, runs{memberOff, slices.Clone(flat[:m])}, runs{offsets, targets})
	return newRTC(compOf, members, cond), nil
}

// cursor walks one copy's out-edges in the product: the arcs of its
// state in order, each through its label's CSR, then the back edge of
// an accepting copy. It holds no pointer, so a stack of frames is
// nothing for the garbage collector to scan.
type cursor struct {
	c, q   int32 // the copy (q, v), q·n+v
	arc    int32 // arcs of q taken; one more once the back edge is taken
	to     int32 // q'·n for the arc being walked, to q'
	lo, hi int32 // the arc's neighbours of v not yet walked, in its CSR
}

// next returns the copy's next successor, or false once all are walked.
func (k *cursor) next(p *tc.Product) (int32, bool) {
	st := &p.States[k.q]
	for k.lo == k.hi {
		v := k.c - k.q*int32(p.N)
		switch {
		case int(k.arc) < len(st.Arcs):
			a := &st.Arcs[k.arc]
			k.arc++
			k.to = int32(a.To * p.N)
			k.lo, k.hi = a.Fwd.Offsets[v], a.Fwd.Offsets[v+1]
		case int(k.arc) == len(st.Arcs) && st.Accept:
			k.arc++
			return v, true // the back edge to (q₀, v)
		default:
			return 0, false
		}
	}
	k.lo++
	return k.to + int32(st.Arcs[k.arc-1].Fwd.Targets[k.lo-1]), true
}
