package plan

import (
	"math/rand"
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// skewedGraph builds a graph where label "p" is abundant, "r" forms a
// medium cycle structure, and "q" is a single edge — the asymmetry the
// estimator should see.
func skewedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		b.MustAddEdge(graph.VID(rng.Intn(64)), "p", graph.VID(rng.Intn(64)))
	}
	for i := 0; i < 40; i++ {
		b.MustAddEdge(graph.VID(rng.Intn(64)), "r", graph.VID(rng.Intn(64)))
	}
	b.MustAddEdge(3, "q", 4)
	return b.Build()
}

func TestEstimatorLabels(t *testing.T) {
	g := skewedGraph(t)
	est := NewEstimator(g)

	lq, _ := g.Dict().Lookup("q")
	wantQ := g.LabelStats(lq)
	q := est.Expr(rpq.Label{Name: "q"})
	if q.Pairs != float64(wantQ.Edges) || q.Srcs != float64(wantQ.DistinctSrcs) || q.Dsts != float64(wantQ.DistinctDsts) {
		t.Errorf("q card = %+v, want stats %+v", q, wantQ)
	}

	inv := est.Expr(rpq.Label{Name: "q", Inverse: true})
	if inv.Srcs != q.Dsts || inv.Dsts != q.Srcs || inv.Pairs != q.Pairs {
		t.Errorf("^q card = %+v, want transposed %+v", inv, q)
	}

	if c := est.Expr(rpq.Label{Name: "missing"}); c != (Card{}) {
		t.Errorf("unknown label card = %+v, want zero", c)
	}
	if c := est.Expr(rpq.Epsilon{}); c.Pairs != est.NumVertices() {
		t.Errorf("ε pairs = %v, want |V|", c.Pairs)
	}
}

func TestEstimatorComposites(t *testing.T) {
	g := skewedGraph(t)
	est := NewEstimator(g)
	p := est.Expr(rpq.MustParse("p"))
	pq := est.Expr(rpq.MustParse("p.q"))
	if pq.Pairs >= p.Pairs {
		t.Errorf("p.q pairs %v not below p pairs %v: join with the 1-edge label must be selective", pq.Pairs, p.Pairs)
	}

	alt := est.Expr(rpq.MustParse("p|r"))
	if alt.Pairs <= p.Pairs {
		t.Errorf("p|r pairs %v should exceed p pairs %v", alt.Pairs, p.Pairs)
	}

	r := est.Expr(rpq.MustParse("r"))
	rp := est.Expr(rpq.MustParse("r+"))
	if rp.Pairs < r.Pairs {
		t.Errorf("r+ pairs %v below r pairs %v: closure must not shrink", rp.Pairs, r.Pairs)
	}
	if rp.Srcs != r.Srcs || rp.Dsts != r.Dsts {
		t.Errorf("r+ endpoints (%v,%v) differ from r (%v,%v)", rp.Srcs, rp.Dsts, r.Srcs, r.Dsts)
	}
	if rp.Pairs > rp.Srcs*rp.Dsts {
		t.Errorf("r+ pairs %v exceed the %v×%v rectangle", rp.Pairs, rp.Srcs, rp.Dsts)
	}

	star := est.Expr(rpq.MustParse("r*"))
	if star.Srcs != est.NumVertices() || star.Pairs <= rp.Pairs {
		t.Errorf("r* card %+v must include the identity on top of r+ %+v", star, rp)
	}
	if c := est.Expr(rpq.Plus{Sub: rpq.Label{Name: "missing"}}); c != (Card{}) {
		t.Errorf("closure of empty relation = %+v, want zero", c)
	}
}

func TestHeuristicModeIsRightmostForward(t *testing.T) {
	g := fixtures.Figure1()
	p := New(g, Config{})
	clause := rpq.MustParse("a+.b+.c")
	cp := p.PlanClause(clause)
	if cp.Kind != KindShared {
		t.Fatalf("plan kind = %s, want shared", cp.Kind)
	}
	want := rpq.Decompose(clause)
	if cp.Unit.R.String() != want.R.String() || cp.Unit.Anchor != want.Anchor {
		t.Errorf("anchor = %q (#%d), want rightmost %q (#%d)",
			cp.Unit.R, cp.Unit.Anchor, want.R, want.Anchor)
	}

	flat := p.PlanClause(rpq.MustParse("a.b"))
	if flat.Kind != KindAutomaton {
		t.Errorf("closure-free clause planned as %s, want automaton", flat.Kind)
	}
}

// TestCostBasedSharedCachedSunkCost: the cost estimate of a shared plan
// excludes the build of a structure that is already cached, and the plan
// records what the planner saw.
func TestCostBasedSharedCachedSunkCost(t *testing.T) {
	g := skewedGraph(t)
	cached := false
	p := New(g, Config{SharedCached: func(r rpq.Expr) bool { return cached }})
	clause := rpq.MustParse("p.r+.q")
	cold := p.PlanClause(clause)
	cached = true
	warm := p.PlanClause(clause)
	if warm.Est.Cost >= cold.Est.Cost {
		t.Errorf("cached-structure cost %v not below cold cost %v", warm.Est.Cost, cold.Est.Cost)
	}
	if cold.SharedCached || !warm.SharedCached {
		t.Errorf("SharedCached cold=%v warm=%v, want false then true", cold.SharedCached, warm.SharedCached)
	}
}

func TestPlanWholeQuery(t *testing.T) {
	g := fixtures.Figure1()
	p := New(g, Config{})
	q := rpq.MustParse("(a|b).c+|d")
	clauses, err := rpq.ToDNF(q)
	if err != nil {
		t.Fatal(err)
	}
	qp := p.Plan(q, clauses)
	if len(qp.Clauses) != 3 {
		t.Fatalf("planned %d clauses, want 3", len(qp.Clauses))
	}
	if qp.Query.String() != q.String() {
		t.Errorf("plan header %+v wrong", qp)
	}
	auto := 0
	for _, c := range qp.Clauses {
		if c.Kind == KindAutomaton {
			auto++
		}
	}
	if auto != 1 {
		t.Errorf("%d automaton plans, want exactly the closure-free clause d", auto)
	}
}

func TestKindStrings(t *testing.T) {
	if KindAutomaton.String() != "automaton" || KindShared.String() != "shared" {
		t.Error("NodeKind strings wrong")
	}
	if NodeKind(9).String() == "" {
		t.Error("unknown enum values should still format")
	}
}
