package plan

import (
	"math/rand"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// skewedGraph builds a graph where label "p" is abundant, "r" forms a
// medium cycle structure, and "q" is a single edge — the asymmetry the
// cost-based planner should exploit.
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
	p := New(g, Config{Mode: Heuristic})
	clause := rpq.MustParse("a+.b+.c")
	cp := p.PlanClause(clause)
	if cp.Kind != KindShared || cp.Direction != Forward {
		t.Fatalf("heuristic plan = %s/%s, want shared/forward", cp.Kind, cp.Direction)
	}
	want := rpq.Decompose(clause)
	if cp.Unit.R.String() != want.R.String() || cp.Unit.Anchor != want.Anchor {
		t.Errorf("heuristic anchor = %q (#%d), want rightmost %q (#%d)",
			cp.Unit.R, cp.Unit.Anchor, want.R, want.Anchor)
	}

	flat := p.PlanClause(rpq.MustParse("a.b"))
	if flat.Kind != KindAutomaton {
		t.Errorf("closure-free clause planned as %s, want automaton", flat.Kind)
	}
}

func TestCostBasedPicksBackwardForSelectivePost(t *testing.T) {
	// The paper-scale RMAT_3 graph: dense enough that a three-label Post
	// chain fans out hard, so driving the join from the Post side is
	// predicted (much) cheaper than the forward default.
	g, err := datagen.PaperRMATN(3, 9, 2025)
	if err != nil {
		t.Fatal(err)
	}
	p := New(g, Config{Mode: CostBased})

	sel := p.PlanClause(rpq.MustParse("l3.l0+.l3.l3.l3"))
	if sel.Kind != KindShared || sel.Direction != Backward {
		t.Fatalf("selective-Post plan = %s/%s, want shared/backward (est %+v)", sel.Kind, sel.Direction, sel.Est)
	}
	if sel.Candidates < 3 {
		t.Errorf("candidates = %d, want ≥ 3 (bypass + both directions)", sel.Candidates)
	}

	// The mirrored selpre shape: the forward default is already right.
	sym := p.PlanClause(rpq.MustParse("l3.l3.l3.l0+.l3"))
	if sym.Kind != KindShared || sym.Direction != Forward {
		t.Errorf("selective-Pre plan = %s/%s, want shared/forward default", sym.Kind, sym.Direction)
	}
}

func TestCostBasedFloorKeepsDefaultOnSmallGraphs(t *testing.T) {
	// On the small skewed graph every clause costs well under the
	// deviation floor, so the cost-based planner sticks to the paper's
	// pipeline even though Post "q" is a single edge — constant factors
	// would eat any predicted win at this scale.
	g := skewedGraph(t)
	p := New(g, Config{Mode: CostBased})
	sel := p.PlanClause(rpq.MustParse("p.r+.q"))
	if sel.Kind != KindShared || sel.Direction != Forward {
		t.Errorf("small-graph plan = %s/%s, want shared/forward default (est %+v)", sel.Kind, sel.Direction, sel.Est)
	}
}

func TestCostBasedSharedCachedSunkCost(t *testing.T) {
	g := skewedGraph(t)
	cached := false
	p := New(g, Config{
		Mode:         CostBased,
		SharedCached: func(r rpq.Expr) bool { return cached },
	})
	clause := rpq.MustParse("p.r+.q")
	cold := p.PlanClause(clause)
	cached = true
	warm := p.PlanClause(clause)
	if warm.Est.Cost >= cold.Est.Cost {
		t.Errorf("cached-structure cost %v not below cold cost %v", warm.Est.Cost, cold.Est.Cost)
	}
}

func TestPlanWholeQuery(t *testing.T) {
	g := fixtures.Figure1()
	p := New(g, Config{Mode: CostBased})
	q := rpq.MustParse("(a|b).c+|d")
	clauses, err := rpq.ToDNF(q)
	if err != nil {
		t.Fatal(err)
	}
	qp := p.Plan(q, clauses)
	if len(qp.Clauses) != 3 {
		t.Fatalf("planned %d clauses, want 3", len(qp.Clauses))
	}
	if qp.Mode != CostBased || qp.Query.String() != q.String() {
		t.Errorf("plan header %+v wrong", qp)
	}
	auto := 0
	for _, c := range qp.Clauses {
		if c.Kind == KindAutomaton {
			auto++
		}
	}
	if auto < 1 {
		t.Error("the closure-free clause d must be an automaton plan")
	}
}

func TestModeAndKindStrings(t *testing.T) {
	if Heuristic.String() != "heuristic" || CostBased.String() != "cost" {
		t.Error("Mode strings wrong")
	}
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Error("Direction strings wrong")
	}
	if KindAutomaton.String() != "automaton" || KindShared.String() != "shared" {
		t.Error("NodeKind strings wrong")
	}
	if Mode(9).String() == "" || Direction(9).String() == "" || NodeKind(9).String() == "" {
		t.Error("unknown enum values should still format")
	}
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{{"heuristic", Heuristic, true}, {"cost", CostBased, true}, {"", 0, false}, {"rightmost", 0, false}} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}
