package pairs

import (
	"math/rand"
	"testing"
)

// transposeRef is the bit-by-bit transpose: bit c of m[r] → bit r of c.
func transposeRef(m *[64]uint64) [64]uint64 {
	var t [64]uint64
	for r := range 64 {
		for c := range 64 {
			if m[r]>>c&1 != 0 {
				t[c] |= 1 << r
			}
		}
	}
	return t
}

// TestTranspose64MatchesReference: Transpose64 equals the bit-by-bit
// transpose on random matrices of every density, the identity, each
// single bit, all ones and matrices whose rows past some count are zero
// or whose columns past some width are zero — fewer than 64 sources, or
// the last, partial block of a vertex space — and transposing twice
// gives the matrix back.
func TestTranspose64MatchesReference(t *testing.T) {
	var cases []([64]uint64)
	rng := rand.New(rand.NewSource(55))
	for range 40 {
		var m [64]uint64
		keep := rng.Uint64() | rng.Uint64() // about 3/4 of the bits, or fewer
		for r := range m {
			m[r] = rng.Uint64() & keep
			if rng.Intn(4) == 0 {
				m[r] &= rng.Uint64()
			}
		}
		cases = append(cases, m)
	}
	var ident, ones [64]uint64
	for r := range 64 {
		ident[r] = 1 << r
		ones[r] = ^uint64(0)
	}
	cases = append(cases, ident, ones, [64]uint64{})
	for r := range 64 {
		for c := range 64 {
			var m [64]uint64
			m[r] = 1 << c
			cases = append(cases, m)
		}
	}
	for _, rows := range []int{1, 7, 63} {
		for _, cols := range []int{1, 33, 64} {
			var m [64]uint64
			for r := range rows {
				m[r] = rng.Uint64() & (^uint64(0) >> (64 - cols))
			}
			cases = append(cases, m)
		}
	}
	for i, m := range cases {
		want := transposeRef(&m)
		got := m
		Transpose64(&got)
		if got != want {
			t.Fatalf("case %d: Transpose64 differs from the bit-by-bit transpose", i)
		}
		Transpose64(&got)
		if got != m {
			t.Fatalf("case %d: transposing twice is not the identity", i)
		}
	}
}
