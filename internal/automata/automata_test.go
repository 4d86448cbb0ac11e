package automata

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

var testDict = graph.NewDictFrom("a", "b", "c", "d")

func lids(t *testing.T, word ...string) []graph.LID {
	t.Helper()
	out := make([]graph.LID, len(word))
	for i, w := range word {
		id, ok := testDict.Lookup(w)
		if !ok {
			t.Fatalf("label %q not in test dict", w)
		}
		out[i] = id
	}
	return out
}

func TestNFAMatchBasics(t *testing.T) {
	cases := []struct {
		expr string
		word []string
		want bool
	}{
		{"a", []string{"a"}, true},
		{"a", []string{"b"}, false},
		{"a", nil, false},
		{"ε", nil, true},
		{"ε", []string{"a"}, false},
		{"a.b", []string{"a", "b"}, true},
		{"a.b", []string{"b", "a"}, false},
		{"a|b", []string{"b"}, true},
		{"a|b", []string{"c"}, false},
		{"a+", []string{"a", "a", "a"}, true},
		{"a+", nil, false},
		{"a*", nil, true},
		{"a*", []string{"a", "a"}, true},
		{"a?", nil, true},
		{"a?", []string{"a"}, true},
		{"a?", []string{"a", "a"}, false},
		{"(a.b)+", []string{"a", "b", "a", "b"}, true},
		{"(a.b)+", []string{"a", "b", "a"}, false},
		{"d.(b.c)+.c", []string{"d", "b", "c", "c"}, true},
		{"d.(b.c)+.c", []string{"d", "b", "c", "b", "c", "c"}, true},
		{"d.(b.c)+.c", []string{"d", "b", "c"}, false},
		{"(a|b)+.c", []string{"a", "b", "b", "c"}, true},
		{"(a?)+", nil, true},
	}
	for _, tc := range cases {
		n := Compile(rpq.MustParse(tc.expr), testDict)
		if got := n.Match(lids(t, tc.word...)); got != tc.want {
			t.Errorf("NFA(%q).Match(%v) = %v, want %v", tc.expr, tc.word, got, tc.want)
		}
	}
}

func TestUnknownLabelIsDead(t *testing.T) {
	n := Compile(rpq.MustParse("zzz"), testDict)
	if n.MatchesEmpty() {
		t.Error("zzz must not match empty")
	}
	for _, l := range []string{"a", "b", "c", "d"} {
		if n.Match(lids(t, l)) {
			t.Errorf("zzz matched %q", l)
		}
	}
	for st := 0; st < n.NumStates(); st++ {
		for _, a := range n.Arcs(st) {
			if a.Label != deadLabel {
				t.Errorf("state %d has live arc %v, want only dead ones", st, a)
			}
		}
	}
	// Unknown-label alternative must not poison the rest.
	n2 := Compile(rpq.MustParse("zzz|a"), testDict)
	if !n2.Match(lids(t, "a")) {
		t.Error("zzz|a failed to match a")
	}
}

func TestMatchesEmpty(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"a", false}, {"a*", true}, {"a+", false}, {"a?", true},
		{"ε", true}, {"a*.b*", true}, {"a.b*", false}, {"(a?)+", true},
	}
	for _, tc := range cases {
		n := Compile(rpq.MustParse(tc.expr), testDict)
		if got := n.MatchesEmpty(); got != tc.want {
			t.Errorf("NFA(%q).MatchesEmpty = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestArcsSortedAndDeduped(t *testing.T) {
	n := Compile(rpq.MustParse("(a|a).b"), testDict)
	for s := 0; s < n.NumStates(); s++ {
		arcs := n.Arcs(s)
		for i := 1; i < len(arcs); i++ {
			if arcs[i] == arcs[i-1] {
				t.Fatalf("state %d has duplicate arc %v", s, arcs[i])
			}
			if arcs[i].Label < arcs[i-1].Label {
				t.Fatalf("state %d arcs unsorted", s)
			}
		}
	}
}

// Property: the NFA and the reference AST matcher agree on random
// expressions and random words.
func TestAutomataAgreeWithReference(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := rpq.RandomExpr(rng, labels, 3)
		n := Compile(e, testDict)
		for i := 0; i < 30; i++ {
			w := rpq.RandomWord(rng, labels, 6)
			ids := make([]graph.LID, len(w))
			for j, s := range w {
				id, _ := testDict.Lookup(s)
				ids[j] = id
			}
			want := rpq.Match(e, w)
			if n.Match(ids) != want {
				t.Logf("NFA disagrees: expr=%q word=%v want=%v", e, w, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatchesEmpty agrees with rpq.MatchesEmpty.
func TestMatchesEmptyAgrees(t *testing.T) {
	labels := []string{"a", "b"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := rpq.RandomExpr(rng, labels, 4)
		n := Compile(e, testDict)
		return n.MatchesEmpty() == rpq.MatchesEmpty(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
