// Package pairs implements sets of ordered vertex pairs — the evaluation
// results R_G of Definition 2 and the relations of the relational-algebra
// formulation (Lemma 4, Theorem 2).
package pairs

import (
	"sort"

	"rtcshare/internal/graph"
)

// Pair is an ordered vertex pair (start vertex, end vertex).
type Pair struct {
	Src, Dst graph.VID
}

// Set is a mutable set of ordered vertex pairs. The zero value is not
// usable; call NewSet.
type Set struct {
	m map[uint64]struct{}
}

func key(src, dst graph.VID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// NewSet returns an empty pair set.
func NewSet() *Set {
	return &Set{m: make(map[uint64]struct{})}
}

// NewSetCap returns an empty pair set with capacity hint n.
func NewSetCap(n int) *Set {
	return &Set{m: make(map[uint64]struct{}, n)}
}

// Add inserts (src, dst) and reports whether it was new.
func (s *Set) Add(src, dst graph.VID) bool {
	k := key(src, dst)
	if _, ok := s.m[k]; ok {
		return false
	}
	s.m[k] = struct{}{}
	return true
}

// AddPair inserts p.
func (s *Set) AddPair(p Pair) bool { return s.Add(p.Src, p.Dst) }

// Contains reports whether (src, dst) is in the set.
func (s *Set) Contains(src, dst graph.VID) bool {
	_, ok := s.m[key(src, dst)]
	return ok
}

// Len returns the number of pairs.
func (s *Set) Len() int { return len(s.m) }

// Each calls fn for every pair in unspecified order, stopping early if fn
// returns false.
func (s *Set) Each(fn func(src, dst graph.VID) bool) {
	for k := range s.m {
		if !fn(graph.VID(uint32(k>>32)), graph.VID(uint32(k))) {
			return
		}
	}
}

// Union inserts every pair of other into s and returns s.
func (s *Set) Union(other *Set) *Set {
	for k := range other.m {
		s.m[k] = struct{}{}
	}
	return s
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := NewSetCap(s.Len())
	for k := range s.m {
		c.m[k] = struct{}{}
	}
	return c
}

// Equal reports whether s and other contain exactly the same pairs.
func (s *Set) Equal(other *Set) bool {
	if s.Len() != other.Len() {
		return false
	}
	for k := range s.m {
		if _, ok := other.m[k]; !ok {
			return false
		}
	}
	return true
}

// Sorted returns the pairs sorted by (Src, Dst).
func (s *Set) Sorted() []Pair {
	out := make([]Pair, 0, s.Len())
	s.Each(func(src, dst graph.VID) bool {
		out = append(out, Pair{src, dst})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Srcs returns the sorted distinct start vertices.
func (s *Set) Srcs() []graph.VID {
	set := make(map[graph.VID]struct{})
	s.Each(func(src, _ graph.VID) bool {
		set[src] = struct{}{}
		return true
	})
	out := make([]graph.VID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dsts returns the sorted distinct end vertices.
func (s *Set) Dsts() []graph.VID {
	set := make(map[graph.VID]struct{})
	s.Each(func(_, dst graph.VID) bool {
		set[dst] = struct{}{}
		return true
	})
	out := make([]graph.VID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FromPairs builds a set from a pair list.
func FromPairs(ps ...Pair) *Set {
	s := NewSetCap(len(ps))
	for _, p := range ps {
		s.AddPair(p)
	}
	return s
}
