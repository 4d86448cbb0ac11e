package main

import (
	"os"
	"path/filepath"
	"rtcshare/internal/cli"
	"testing"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	content := `%vertices 4
0 a 1
1 b 2
2 b 0
2 c 3
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEvaluatesQuery(t *testing.T) {
	path := writeTestGraph(t)
	for _, strategy := range []string{"rtc", "full", "no"} {
		if err := run([]string{"-graph", path, "-strategy", strategy, "a.b+.c"}); err != nil {
			t.Errorf("strategy %s: %v", strategy, err)
		}
	}
}

func TestRunWithStatsAndLimit(t *testing.T) {
	path := writeTestGraph(t)
	if err := run([]string{"-graph", path, "-stats", "-limit", "1", "b+", "a.b"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-graph", path, "-limit", "0", "b+"}); err != nil {
		t.Error(err)
	}
}

// TestRunExplainAndPlanner: -explain prints the planner's plan for
// closure and closure-free queries alike.
func TestRunExplainAndPlanner(t *testing.T) {
	path := writeTestGraph(t)
	if err := run([]string{"-graph", path, "-explain", "a.b+.c", "a.b"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"-graph", path, "-explain", "(("}); err == nil {
		t.Error("explain on a parse error must fail")
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t)
	cases := [][]string{
		{},               // no -graph
		{"-graph", path}, // no queries
		{"-graph", path, "-strategy", "bogus", "a"},
		// Retired flags: one planner, no DFA determinisation.
		{"-graph", path, "-planner", "cost", "a"},
		{"-graph", path, "-dfa", "a"},
		{"-graph", path, "(("}, // parse error
		{"-graph", filepath.Join(t.TempDir(), "missing.txt"), "a"},
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d (%v): want error", i, args)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{{"rtc", true}, {"full", true}, {"no", true}, {"", false}, {"RTC", false}} {
		_, err := parseStrategy(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseStrategy(%q) err=%v", tc.in, err)
		}
	}
}

func TestHelpExitsZero(t *testing.T) {
	if err := run([]string{"-h"}); cli.ExitCode(err) != 0 {
		t.Fatalf("-h must map to exit 0, got err %v", err)
	}
	if err := run([]string{"-no-such-flag"}); cli.ExitCode(err) != 1 {
		t.Fatalf("bad flag must map to exit 1, got err %v", err)
	}
}
