package pairs

import (
	"math/bits"

	"rtcshare/internal/graph"
)

// The multi-source kernels keep 64 sources' bits per vertex, and hand
// rows out as words of 64 vertices. A 64-vertex block is the unit
// between the two: a block's 64 vertex masks form a 64×64 bit matrix
// whose transpose is its 64 source words. A block summary — bit b%64 of
// summary[b/64] for block b — records the blocks a batch touched, so
// the batch visits and resets those alone, in ascending order, without
// a sort.

// Transpose64 transposes a 64×64 bit matrix in place: bit c of m[r]
// moves to bit r of m[c]. It is how the multi-source kernels move masks
// between vertex order (one word per vertex, a bit per source) and
// source order (one word per source, a bit per vertex of a 64-vertex
// block), in 6·32 word swaps rather than one move per set bit. Each
// swap exchanges the off-diagonal halves of a diagonal block (Warren,
// Hacker's Delight, §7-3): the 32×32 quadrants, the 16×16 blocks inside
// each, down to single bits. The swaps at row distances 32, 16 and 8
// pair only rows k, k+8, …, k+56, and those at 4, 2 and 1 only rows
// 8g … 8g+7, so the matrix is read and written twice, eight rows at a
// time, rather than once per distance.
func Transpose64(m *[64]uint64) {
	for k := range 8 {
		m[k], m[k+8], m[k+16], m[k+24], m[k+32], m[k+40], m[k+48], m[k+56] = swap3(
			m[k], m[k+8], m[k+16], m[k+24], m[k+32], m[k+40], m[k+48], m[k+56],
			32, 0x00000000ffffffff, 0x0000ffff0000ffff, 0x00ff00ff00ff00ff)
	}
	for g := 0; g < 64; g += 8 {
		r := (*[8]uint64)(m[g : g+8])
		r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = swap3(
			r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7],
			4, 0x0f0f0f0f0f0f0f0f, 0x3333333333333333, 0x5555555555555555)
	}
}

// swap3 runs three swap distances over eight rows a0 … a7 of the
// matrix, a_i standing i·j/4 rows below a0: j between a_i and a_(i+4),
// j/2 between a_i and a_(i+2), j/4 between a_i and a_(i+1), each for the
// a_i whose index has that bit clear. m1, m2 and m3 select the low half
// of each 2j-, j- and j/2-bit group.
func swap3(a0, a1, a2, a3, a4, a5, a6, a7 uint64, j uint, m1, m2, m3 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	a0, a4 = swap(a0, a4, j, m1)
	a1, a5 = swap(a1, a5, j, m1)
	a2, a6 = swap(a2, a6, j, m1)
	a3, a7 = swap(a3, a7, j, m1)
	j >>= 1
	a0, a2 = swap(a0, a2, j, m2)
	a1, a3 = swap(a1, a3, j, m2)
	a4, a6 = swap(a4, a6, j, m2)
	a5, a7 = swap(a5, a7, j, m2)
	j >>= 1
	a0, a1 = swap(a0, a1, j, m3)
	a2, a3 = swap(a2, a3, j, m3)
	a4, a5 = swap(a4, a5, j, m3)
	a6, a7 = swap(a6, a7, j, m3)
	return a0, a1, a2, a3, a4, a5, a6, a7
}

// swap exchanges the high j bits of each 2j-bit group of a with the low
// j bits of the same group of b; mask selects those low bits.
func swap(a, b uint64, j uint, mask uint64) (uint64, uint64) {
	t := (a>>j ^ b) & mask
	return a ^ t<<j, b ^ t
}

// MarkBlock records v's 64-vertex block in a block summary.
func MarkBlock(summary []uint64, v graph.VID) { summary[v>>12] |= 1 << (v >> 6 & 63) }

// DrainBlocks calls fn for every block a summary marks, ascending, and
// clears the summary.
func DrainBlocks(summary []uint64, fn func(b int)) {
	for k, m := range summary {
		for ; m != 0; m &= m - 1 {
			fn(k<<6 | bits.TrailingZeros64(m))
		}
		summary[k] = 0
	}
}
