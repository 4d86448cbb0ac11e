package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// The ^label (inverse path, 2RPQ) extension: traversal follows edges
// backwards.

func TestInverseLabelBasic(t *testing.T) {
	g := fixtures.Figure1() // contains e(v7, d, v4)
	got := Evaluate(g, rpq.MustParse("^d"))
	want := pairs.FromPairs(pairs.Pair{Src: 4, Dst: 7})
	if !got.Equal(want) {
		t.Fatalf("(^d)_G = %v, want %v", got.Sorted(), want.Sorted())
	}
}

func TestInverseIsConverse(t *testing.T) {
	g := fixtures.Figure1()
	fwd := Evaluate(g, rpq.MustParse("b.c"))
	rev := Evaluate(g, rpq.MustParse("^c.^b"))
	if fwd.Len() != rev.Len() {
		t.Fatalf("|b.c| = %d, |^c.^b| = %d", fwd.Len(), rev.Len())
	}
	fwd.Each(func(src, dst int32) bool {
		if !rev.Contains(dst, src) {
			t.Errorf("(%d,%d) in b.c but (%d,%d) not in ^c.^b", src, dst, dst, src)
		}
		return true
	})
}

func TestInverseInsideKleene(t *testing.T) {
	// (b.^b)+ bounces forward and backward over b edges.
	g := fixtures.Figure1()
	got := Evaluate(g, rpq.MustParse("(b.^b)+"))
	want := Reference(g, rpq.MustParse("(b.^b)+"))
	if !got.Equal(want) {
		t.Fatalf("got %v, want %v", got.Sorted(), want.Sorted())
	}
	// v2 -b-> v5 and v2 -b-> v3, so (v2, v2) must be present.
	if !got.Contains(2, 2) {
		t.Error("(v2,v2) missing from (b.^b)+")
	}
}

// Property: the evaluator agrees with the compositional reference on
// random 2RPQs (expressions with inverse labels).
func TestInverseAgainstReference(t *testing.T) {
	labels := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := fixtures.RandomGraph(rng, 1+rng.Intn(10), rng.Intn(25), labels)
		e := rpq.RandomExpr2RPQ(rng, labels, 3)
		want := Reference(g, e)
		if got := Evaluate(g, e); !got.Equal(want) {
			t.Logf("NFA mismatch: expr=%q", e)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
