package rangeidx

import (
	"math/bits"

	"repro/internal/kv"
)

// Tree is the cache-resident range index: a pointerless static search tree
// over sorted delimiters with no update support. The paper (Section 3.5.2)
// sizes a node as k*W+1 so that one W-lane SIMD compare searches it; Go
// has no SIMD compare (W = 1), and with one lane the best node is binary,
// since every scalar compare then halves the range. So the index is an
// implicit binary tree in level (Eytzinger) order, IPS⁴o's branchless
// splitter tree: slot b's children are slots 2b and 2b+1, and a lookup is
// L = ceil(log2 P) steps of b = 2b + (t[b] <= k), with no data-dependent
// branch for the predictor to miss.
type Tree[K kv.Key] struct {
	// t holds 2^L slots, 1-based in level order (t[0] is unused): the
	// sorted delimiters, padded to 2^L-1 with kv.MaxKey, laid out in order
	// so that an in-order walk of slots 1..2^L-1 reads them sorted.
	t  []K
	lg int // L, the number of levels
	p  int // fanout: len(delims)+1
}

// NewTreeFor builds the index over sorted delimiters (duplicates allowed:
// they produce intentionally empty partitions). The fanout is
// len(delims)+1.
func NewTreeFor[K kv.Key](delims []K) *Tree[K] {
	for i := 1; i < len(delims); i++ {
		if delims[i-1] > delims[i] {
			panic("rangeidx: delimiters not sorted")
		}
	}
	lg := bits.Len(uint(len(delims))) // ceil(log2(len(delims)+1))
	n := 1 << lg
	t := &Tree[K]{t: make([]K, n), lg: lg, p: len(delims) + 1}
	// Level l holds 2^l slots; its j-th slot is the padded delimiter of
	// rank (2j+1)*2^(L-1-l) - 1.
	for l := 0; l < lg; l++ {
		half := n >> (l + 1)
		for j := 0; j < 1<<l; j++ {
			d := kv.MaxKey[K]()
			if r := (2*j+1)*half - 1; r < len(delims) {
				d = delims[r]
			}
			t.t[1<<l+j] = d
		}
	}
	return t
}

// Partition computes the range function for one key: the number of
// delimiters <= key, i.e. the index of the first delimiter greater than it.
func (t *Tree[K]) Partition(key K) int {
	tt := t.t
	_ = tt[0] // with len(tt) > 0 known, b&m < len(tt) drops the bounds checks
	m := uint(len(tt) - 1)
	b := uint(1)
	for l := 0; l < t.lg; l++ {
		c := uint(0)
		if tt[b&m] <= key { // lowers to SETcc, not a branch
			c = 1
		}
		b = 2*b + c
	}
	// Padding is kv.MaxKey, so only key == kv.MaxKey can count a pad slot.
	return min(int(b-uint(len(tt))), t.p-1)
}

// Fanout returns the number of partitions P.
func (t *Tree[K]) Fanout() int {
	return t.p
}

// LookupBatch computes the range function for a batch of keys, walking 8
// keys through the tree level-synchronously (the paper's N-at-a-time loop
// unrolling). Each key's descent is a chain of dependent loads; with 8
// independent chains in flight their loads overlap instead of serializing.
// The tail (at most 7 keys) runs Partition, so results are bit-identical at
// every length.
func (t *Tree[K]) LookupBatch(keys []K, out []int32) {
	if len(out) < len(keys) {
		panic("rangeidx: output batch too small")
	}
	tt := t.t
	_ = tt[0]
	m := uint(len(tt) - 1)
	lg := t.lg
	last := t.p - 1
	i := 0
	for ; i+8 <= len(keys); i += 8 {
		k := keys[i : i+8 : i+8]
		b0, b1, b2, b3, b4, b5, b6, b7 := uint(1), uint(1), uint(1), uint(1), uint(1), uint(1), uint(1), uint(1)
		for l := 0; l < lg; l++ {
			var c0, c1, c2, c3, c4, c5, c6, c7 uint
			if tt[b0&m] <= k[0] {
				c0 = 1
			}
			if tt[b1&m] <= k[1] {
				c1 = 1
			}
			if tt[b2&m] <= k[2] {
				c2 = 1
			}
			if tt[b3&m] <= k[3] {
				c3 = 1
			}
			if tt[b4&m] <= k[4] {
				c4 = 1
			}
			if tt[b5&m] <= k[5] {
				c5 = 1
			}
			if tt[b6&m] <= k[6] {
				c6 = 1
			}
			if tt[b7&m] <= k[7] {
				c7 = 1
			}
			b0, b1, b2, b3 = 2*b0+c0, 2*b1+c1, 2*b2+c2, 2*b3+c3
			b4, b5, b6, b7 = 2*b4+c4, 2*b5+c5, 2*b6+c6, 2*b7+c7
		}
		o := out[i : i+8 : i+8]
		n := m + 1
		o[0] = int32(min(int(b0-n), last))
		o[1] = int32(min(int(b1-n), last))
		o[2] = int32(min(int(b2-n), last))
		o[3] = int32(min(int(b3-n), last))
		o[4] = int32(min(int(b4-n), last))
		o[5] = int32(min(int(b5-n), last))
		o[6] = int32(min(int(b6-n), last))
		o[7] = int32(min(int(b7-n), last))
	}
	for ; i < len(keys); i++ {
		out[i] = int32(t.Partition(keys[i]))
	}
}
