// Package sortalgo implements the paper's three large-scale sorting
// algorithms (Section 4) — stable LSB radix-sort, in-place MSB radix-sort,
// and the range-partitioning comparison sort — together with the paper's
// in-cache SIMD comb-sort (Section 4.3.1) and the baselines the paper
// compares against (scalar comb-sort, insertion sort, merge sorts,
// quicksort). CMP's in-cache leaf is the quicksort (see Quicksort).
//
// All sorts operate on columnar tuples: a key array and a same-length
// payload array that travel together.
package sortalgo

import "repro/internal/kv"

// InsertionSort sorts keys[lo:hi] and the matching payloads in place; the
// base case for trivially small partitions (Section 4.2.2 sorts 4-8 tuple
// parts this way).
func InsertionSort[K kv.Key](keys, vals []K) {
	for i := 1; i < len(keys); i++ {
		k, v := keys[i], vals[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], vals[j+1] = keys[j], vals[j]
			j--
		}
		keys[j+1], vals[j+1] = k, v
	}
}

// combGap shrinks the comb-sort gap by the canonical 1.3 factor, with the
// "comb11" rule.
func combGap(gap int) int {
	gap = gap * 10 / 13
	if gap == 9 || gap == 10 {
		gap = 11
	}
	if gap < 1 {
		gap = 1
	}
	return gap
}

// CombSortScalar is the scalar comb-sort baseline of Figure 15: shrink-gap
// compare-exchange passes until a clean gap-1 pass.
func CombSortScalar[K kv.Key](keys, vals []K) {
	n := len(keys)
	gap := n
	for {
		gap = combGap(gap)
		swapped := false
		for i := 0; i+gap < n; i++ {
			j := i + gap
			if keys[i] > keys[j] {
				keys[i], keys[j] = keys[j], keys[i]
				vals[i], vals[j] = vals[j], vals[i]
				swapped = true
			}
		}
		if gap == 1 && !swapped {
			return
		}
	}
}

// Lanes returns the SIMD lane count used for K: 4 lanes for 32-bit keys
// and 2 for 64-bit keys, matching the paper's 128-bit SSE registers.
func Lanes[K kv.Key]() int {
	if kv.Width[K]() == 32 {
		return 4
	}
	return 2
}

// CombSorter is the in-cache SIMD sorter of Section 4.3.1 (after Inoue et
// al.'s AA-sort): view the array as n/W vectors, comb-sort the W lanes
// independently with lane-parallel min/max (never comparing keys across
// lanes), then merge the W interleaved sorted runs with the min-across
// merge loop. O((n/W)·log(n/W)) vector compare-exchanges plus n·log W
// merge comparisons. It is the Figure 15 kernel and MergeSortKWay's run
// sorter; CMP's leaf is Quicksort, which beats this scalar lane emulation
// where no 128-bit min/max instructions exist.
//
// A CombSorter carries a padding buffer so repeated calls do not allocate;
// it is not safe for concurrent use — give each worker its own.
type CombSorter[K kv.Key] struct {
	padK []K
	padV []K
}

// NewCombSorter returns a sorter able to sort up to capacity tuples.
func NewCombSorter[K kv.Key](capacity int) *CombSorter[K] {
	w := Lanes[K]()
	c := (capacity/w + 2) * w
	return &CombSorter[K]{padK: make([]K, c), padV: make([]K, c)}
}

// SortInto sorts srcK/srcV into dstK/dstV (same length). src is copied into
// the sorter's pad buffer up front and never read again, so dst may alias
// src.
func (c *CombSorter[K]) SortInto(srcK, srcV, dstK, dstV []K) {
	n := len(srcK)
	w := Lanes[K]()
	if n <= 2*w {
		copy(dstK, srcK)
		copy(dstV, srcV)
		InsertionSort(dstK[:n], dstV[:n])
		return
	}
	nvec := (n + w - 1) / w
	padded := nvec * w
	if padded > len(c.padK) {
		c.padK = make([]K, padded)
		c.padV = make([]K, padded)
	}
	pk := c.padK[:padded]
	pv := c.padV[:padded]
	copy(pk, srcK)
	copy(pv, srcV)
	for i := n; i < padded; i++ {
		pk[i] = kv.MaxKey[K]()
		pv[i] = 0
	}

	// Lane-wise comb sort: vector i and i+gap compare-exchange per lane —
	// the paper's min/max pair plus payload blends (see combsimd.go).
	combLanes(pk, pv, nvec, w)

	// W-way merge of the interleaved lane runs (laneMerge, shared with the
	// merge-conformance suite).
	laneMerge(dstK, dstV, pk, pv, w, nvec, n)
}

// laneMerge is CombSorter's W-way merge: it merges the w interleaved
// sorted runs in pk/pv (lane l's run occupies positions l, l+w, l+2w, ...)
// into dstK/dstV. Pads (MaxKey) sit at run tails and are excluded by
// per-lane counts derived from n. The merge state lives in fixed
// lane-count arrays (W is at most 4, see Lanes) so a sort allocates
// nothing. The external sort's file-backed merge generalizes this loop to
// arbitrary fan-in over prefetching segment iterators; the shared
// conformance suite in internal/mergetest pins both to the same contract.
func laneMerge[K kv.Key](dstK, dstV, pk, pv []K, w, nvec, n int) {
	var runLen, idx, emit [4]int // idx: next position of lane l (l + step*w)
	var alive [4]bool            // lane still has real elements
	var curK, curV [4]K
	for l := 0; l < w; l++ {
		runLen[l] = nvec
		if l >= n%w && n%w != 0 {
			runLen[l] = nvec - 1
		}
	}
	for l := 0; l < w; l++ {
		if runLen[l] > 0 {
			curK[l] = pk[l]
			curV[l] = pv[l]
			idx[l] = l
			alive[l] = true
		}
	}
	for out := 0; out < n; out++ {
		// Find the minimum live lane (the paper's min-across + locate).
		// Exhausted lanes are skipped outright so that a real MaxKey key
		// never loses to a sentinel.
		m := -1
		for l := 0; l < w; l++ {
			if alive[l] && (m < 0 || curK[l] < curK[m]) {
				m = l
			}
		}
		dstK[out] = curK[m]
		dstV[out] = curV[m]
		emit[m]++
		if emit[m] < runLen[m] {
			idx[m] += w
			curK[m] = pk[idx[m]]
			curV[m] = pv[idx[m]]
		} else {
			alive[m] = false
		}
	}
}

// SortInPlace sorts keys/vals using the sorter's internal buffer as
// scratch.
func (c *CombSorter[K]) SortInPlace(keys, vals []K) {
	c.SortInto(keys, vals, keys, vals)
}
