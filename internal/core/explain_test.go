package core

import (
	"strings"
	"testing"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/rpq"
)

// explainQuery parses q and plans it with Explain.
func explainQuery(e *Engine, q string) (*Plan, error) {
	expr, err := rpq.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.Explain(expr)
}

// explainAnalyzeQuery parses q and runs it with ExplainAnalyze.
func explainAnalyzeQuery(e *Engine, q string) (*Plan, error) {
	expr, err := rpq.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.ExplainAnalyze(expr)
}

func TestExplainBasic(t *testing.T) {
	for _, strategy := range []Strategy{RTCSharing, FullSharing} {
		g := fixtures.Figure1()
		e := New(g, Options{Strategy: strategy})
		plan, err := explainQuery(e, "d.(b.c)+.c")
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Clauses) != 1 {
			t.Fatalf("%v: clauses = %d, want 1", strategy, len(plan.Clauses))
		}
		c := plan.Clauses[0]
		if c.Pre != "d" || c.R != "b.c" || c.Type != "+" || c.Post != "c" {
			t.Errorf("%v: decomposition wrong: %+v", strategy, c)
		}
		if c.SharedCached {
			t.Errorf("%v: shared structure reported cached before any evaluation", strategy)
		}
		if c.PreHasKleene {
			t.Errorf("%v: Pre=d has no Kleene closure", strategy)
		}

		// After evaluation, the same plan must report the cache hit.
		if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
			t.Fatal(err)
		}
		plan, err = explainQuery(e, "a.(b.c)*")
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Clauses[0].SharedCached {
			t.Errorf("%v: shared structure for b.c should be reported cached", strategy)
		}
		if plan.Clauses[0].Type != "*" {
			t.Errorf("%v: Type = %q, want *", strategy, plan.Clauses[0].Type)
		}
	}
}

func TestExplainMultiClause(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	plan, err := explainQuery(e, "(a|b).c+|d")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clauses) != 3 { // a.c+, b.c+, d
		t.Fatalf("clauses = %d, want 3: %+v", len(plan.Clauses), plan.Clauses)
	}
	kcFree := 0
	for _, c := range plan.Clauses {
		if c.Type == "NULL" {
			kcFree++
		}
	}
	if kcFree != 1 {
		t.Errorf("closure-free clauses = %d, want 1", kcFree)
	}
}

func TestExplainNestedPre(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	plan, err := explainQuery(e, "(a.b)*.b+.(a.b+.c)+")
	if err != nil {
		t.Fatal(err)
	}
	c := plan.Clauses[0]
	if !c.PreHasKleene {
		t.Error("Pre=(a.b)*.b+ must be flagged as recursive")
	}
	if c.R != "a.b+.c" {
		t.Errorf("R = %q", c.R)
	}
}

func TestExplainErrorsAndString(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	if _, err := explainQuery(e, pastDNFBound("a", "b")); err == nil {
		t.Error("want DNF limit error")
	}
	plan, err := explainQuery(e, "d.(b.c)+.c|a")
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"plan for", "clause 1", "Pre=d", "no Kleene closure", "will be computed"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, s)
		}
	}
}

func TestExplainDoesNotMutateCaches(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	if _, err := explainQuery(e, "d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	if len(e.SharedSummaries()) != 0 {
		t.Error("Explain populated the cache")
	}
	if e.Stats().Queries != 0 {
		t.Error("Explain counted as a query")
	}
}
