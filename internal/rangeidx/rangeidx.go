// Package rangeidx computes range partition functions: given P-1 sorted
// delimiters, map a key to the partition whose range contains it.
//
// It provides the paper's full menu (Section 3.5): the scalar binary-search
// baseline (and its branchless variant), register-resident SIMD variants
// (horizontal and vertical), and the cache-resident pointerless tree index
// that makes range partitioning comparably fast with hash and radix — the
// paper's second core contribution, here with binary nodes (see Tree).
//
// Partition semantics, used consistently across the package: the partition
// of key k is the number of delimiters d with d <= k, i.e. the index of the
// first delimiter greater than k. A key equal to a delimiter therefore
// falls into the partition that starts at that delimiter.
package rangeidx

import "repro/internal/kv"

// Search is the textbook baseline: binary search over the sorted delimiter
// array. As the paper notes, it searches ranges rather than keys: no
// equality early exit, always ceil(log2(P)) iterations, each a dependent
// cache load.
func Search[K kv.Key](delims []K, key K) int {
	lo, hi := 0, len(delims)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if delims[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SearchBranchless is the conditional-move formulation of Search. The paper
// measured it to perform even worse than the branching version, evidence
// that the bottleneck is the chain of dependent cache loads, not branch
// mispredictions; it is kept as a benchmark baseline.
func SearchBranchless[K kv.Key](delims []K, key K) int {
	base := 0
	n := len(delims)
	for n > 1 {
		half := n / 2
		if delims[base+half-1] <= key { // compiles to a conditional move
			base += half
		}
		n -= half
	}
	if n == 1 && base < len(delims) && delims[base] <= key {
		base++
	}
	return base
}
