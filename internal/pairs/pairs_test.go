package pairs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rtcshare/internal/graph"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if s.Len() != 0 {
		t.Fatal("new set not empty")
	}
	if !s.Add(1, 2) {
		t.Error("first Add returned false")
	}
	if s.Add(1, 2) {
		t.Error("duplicate Add returned true")
	}
	if !s.Contains(1, 2) || s.Contains(2, 1) {
		t.Error("Contains wrong (direction must matter)")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestSortedOrder(t *testing.T) {
	s := FromPairs(Pair{3, 1}, Pair{1, 5}, Pair{1, 2}, Pair{0, 9})
	got := s.Sorted()
	want := []Pair{{0, 9}, {1, 2}, {1, 5}, {3, 1}}
	if len(got) != len(want) {
		t.Fatalf("Sorted len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted = %v, want %v", got, want)
		}
	}
}

func TestUnionCloneEqual(t *testing.T) {
	a := FromPairs(Pair{1, 2}, Pair{3, 4})
	b := FromPairs(Pair{3, 4}, Pair{5, 6})
	c := a.Clone()
	a.Union(b)
	if a.Len() != 3 {
		t.Errorf("union Len = %d, want 3", a.Len())
	}
	if c.Len() != 2 {
		t.Error("Clone aliased the original")
	}
	if !a.Equal(FromPairs(Pair{1, 2}, Pair{3, 4}, Pair{5, 6})) {
		t.Error("Equal false negative")
	}
	if a.Equal(c) {
		t.Error("Equal false positive")
	}
	if c.Equal(FromPairs(Pair{1, 2}, Pair{9, 9})) {
		t.Error("Equal must compare members, not just size")
	}
}

func TestSrcsDsts(t *testing.T) {
	s := FromPairs(Pair{3, 1}, Pair{3, 2}, Pair{1, 2})
	srcs := s.Srcs()
	if len(srcs) != 2 || srcs[0] != 1 || srcs[1] != 3 {
		t.Errorf("Srcs = %v", srcs)
	}
	dsts := s.Dsts()
	if len(dsts) != 2 || dsts[0] != 1 || dsts[1] != 2 {
		t.Errorf("Dsts = %v", dsts)
	}
}

func TestEachEarlyStop(t *testing.T) {
	s := FromPairs(Pair{1, 1}, Pair{2, 2}, Pair{3, 3})
	n := 0
	s.Each(func(_, _ graph.VID) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop visited %d, want 1", n)
	}
}

// Property: Set agrees with a reference map implementation.
func TestSetAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSet()
		ref := make(map[Pair]bool)
		for i := 0; i < 200; i++ {
			p := Pair{graph.VID(rng.Intn(10)), graph.VID(rng.Intn(10))}
			added := s.AddPair(p)
			if added == ref[p] {
				return false // Add result must be !present
			}
			ref[p] = true
		}
		if s.Len() != len(ref) {
			return false
		}
		for p := range ref {
			if !s.Contains(p.Src, p.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: large VIDs do not collide in the packed key.
func TestNoKeyCollisions(t *testing.T) {
	s := NewSet()
	vids := []graph.VID{0, 1, 1 << 20, 1<<31 - 1}
	n := 0
	for _, a := range vids {
		for _, b := range vids {
			if s.Add(a, b) {
				n++
			}
		}
	}
	if n != len(vids)*len(vids) || s.Len() != n {
		t.Fatalf("collisions: added %d distinct, Len=%d", n, s.Len())
	}
}
