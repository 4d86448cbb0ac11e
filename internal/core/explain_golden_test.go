package core

import (
	"strings"
	"testing"

	"rtcshare/internal/eval"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
)

// Golden plans for the Fig. 1 fixture queries: the planner's shape
// (kind) and anchor are pinned per clause so a planner regression — a
// different anchor, a shared clause planned as an automaton — is loud.
func TestExplainGoldenFigure1(t *testing.T) {
	type clauseGold struct {
		clause    string
		kind      string
		anchor    int
		pre, r    string
		typ, post string
	}
	cases := []struct {
		name    string
		query   string
		clauses []clauseGold
	}{
		{
			name:  "paper example",
			query: "d.(b.c)+.c",
			clauses: []clauseGold{
				{"d.(b.c)+.c", "shared", 0, "d", "b.c", "+", "c"},
			},
		},
		{
			name:  "multi-closure clause anchors rightmost",
			query: "a+.b+.c",
			clauses: []clauseGold{
				{"a+.b+.c", "shared", 1, "a+", "b", "+", "c"},
			},
		},
		{
			name:  "alternation fans out into three clause plans",
			query: "(a|b).c+|d",
			clauses: []clauseGold{
				{"a.c+", "shared", 0, "a", "c", "+", "ε"},
				{"b.c+", "shared", 0, "b", "c", "+", "ε"},
				{"d", "automaton", -1, "ε", "ε", "NULL", "d"},
			},
		},
		{
			name:  "star closure",
			query: "a.(b.c)*",
			clauses: []clauseGold{
				{"a.(b.c)*", "shared", 0, "a", "b.c", "*", "ε"},
			},
		},
	}

	g := fixtures.Figure1()
	for _, tc := range cases {
		e := New(g, Options{Strategy: RTCSharing})
		p, err := e.ExplainQuery(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(p.Clauses) != len(tc.clauses) {
			t.Fatalf("%s: %d clauses, want %d:\n%s", tc.name, len(p.Clauses), len(tc.clauses), p)
		}
		for i, want := range tc.clauses {
			got := p.Clauses[i]
			if got.Clause != want.clause || got.Kind != want.kind ||
				got.Anchor != want.anchor || got.Pre != want.pre || got.R != want.r ||
				got.Type != want.typ || got.Post != want.post {
				t.Errorf("%s clause %d:\n got %+v\nwant %+v", tc.name, i, got, want)
			}
		}
	}
}

// The plan must report estimates, and ExplainAnalyze must fill in
// actuals that match a real evaluation. The paper's shared pipeline
// makes the shared-path actuals (|Pre_G|, cache population) observable.
func TestExplainAnalyzeFigure1(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})

	p, err := e.ExplainAnalyzeQuery("d.(b.c)+.c")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Analyzed {
		t.Fatal("ExplainAnalyze did not mark the plan analyzed")
	}
	// Example 1's worked result: {(v7,v5), (v7,v3)}.
	if p.ActualResultPairs != 2 {
		t.Errorf("actual result pairs = %d, want 2 (Example 1)", p.ActualResultPairs)
	}
	c := p.Clauses[0]
	if c.ActualPairs != 2 {
		t.Errorf("clause actual pairs = %d, want 2", c.ActualPairs)
	}
	// Pre = d has exactly one edge (v7 → v4).
	if c.ActualPrePairs != 1 {
		t.Errorf("actual |Pre_G| = %d, want 1", c.ActualPrePairs)
	}
	if c.EstCost <= 0 || c.EstClosurePairs <= 0 {
		t.Errorf("estimates missing: %+v", c)
	}
	if p.ActualTime <= 0 || c.ActualTime <= 0 {
		t.Errorf("timings missing: plan %v clause %v", p.ActualTime, c.ActualTime)
	}

	// ExplainAnalyze is a real evaluation: it counts as a query and
	// populates the cache, so a subsequent Explain sees the structure.
	if e.Stats().Queries != 1 {
		t.Errorf("queries = %d, want 1", e.Stats().Queries)
	}
	p2, err := e.ExplainQuery("a.(b.c)*")
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Clauses[0].SharedCached {
		t.Error("RTC for b.c should be reported cached after ExplainAnalyze")
	}

	// Rendering includes the analyze block.
	s := p.String()
	for _, want := range []string{"actual:", "est cost", "(anchor 0)", "exec: shared  est cost"} {
		if !strings.Contains(s, want) {
			t.Errorf("analyzed plan rendering missing %q:\n%s", want, s)
		}
	}
}

// The automaton operator evaluates any clause, Kleene closures included,
// without a shared structure. The planner gives it only closure-free
// clauses, so this drives the executor with a hand-built plan for a
// closure clause and checks it against the worked example and the
// reference oracle.
func TestExecClauseAutomatonBypass(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	clause := rpq.MustParse("d.(b.c)+.c")
	cp := plan.ClausePlan{
		Clause: clause,
		Kind:   plan.KindAutomaton,
		Unit:   rpq.Decompose(clause),
	}
	got, act, err := e.version().execClause(&cp)
	if err != nil {
		t.Fatal(err)
	}
	// Example 1's worked result: {(v7,v5), (v7,v3)}.
	if got.Len() != 2 || !got.Contains(7, 5) || !got.Contains(7, 3) {
		t.Errorf("bypass result = %v, want {(7,5),(7,3)}", got.Sorted())
	}
	if !got.EqualSet(eval.Reference(g, clause)) {
		t.Error("bypass result differs from the reference oracle")
	}
	if act.Pre != -1 {
		t.Errorf("bypass must not materialise side relations: %+v", act)
	}
	if len(e.SharedSummaries()) != 0 {
		t.Error("bypass computed a shared structure")
	}
}
