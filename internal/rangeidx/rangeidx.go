// Package rangeidx computes range partition functions: given P-1 sorted
// delimiters, map a key to the partition whose range contains it.
//
// Its range function is the cache-resident pointerless tree index (Section
// 3.5.2), the paper's second core contribution, here with binary nodes
// (see Tree): it is what makes range partitioning comparably fast with hash
// and radix. Search, the scalar binary-search baseline, is the tree's test
// oracle and the baseline of the histogram figures.
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
