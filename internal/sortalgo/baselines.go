package sortalgo

import (
	"container/heap"
	"math/bits"

	"repro/internal/kv"
)

// runHead is one run's cursor in the k-way merge heap.
type runHead[K kv.Key] struct {
	key  K
	val  K
	pos  int // next index in the run
	end  int
	run  int // run ordinal, the stability tiebreak
	srcK []K
	srcV []K
}

type runHeap[K kv.Key] []runHead[K]

func (h runHeap[K]) Len() int { return len(h) }
func (h runHeap[K]) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].run < h[j].run
}
func (h runHeap[K]) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *runHeap[K]) Push(x interface{}) { *h = append(*h, x.(runHead[K])) }
func (h *runHeap[K]) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MergeSortKWay is the k-way merge sort baseline (Section 4.3.2 discusses
// 16-way merging as the strongest merge-based alternative): sort
// cache-sized runs with the SIMD comb sorter, then merge k runs at a time
// with a heap. Stable. tmp must match keys in length.
func MergeSortKWay[K kv.Key](keys, vals, tmpK, tmpV []K, k, runTuples int) {
	n := len(keys)
	if k < 2 {
		panic("sortalgo: k-way merge needs k >= 2")
	}
	if runTuples < 1 {
		runTuples = 1
	}
	cs := NewCombSorter[K](runTuples)
	runs := make([]int, 0, n/runTuples+2) // run boundaries
	for lo := 0; lo < n; lo += runTuples {
		hi := min(lo+runTuples, n)
		// The comb sorter is not stable; keep the baseline stable by using
		// the 2-way merge of sorted halves? No: runs are sorted with the
		// comb sorter, so MergeSortKWay is stable only across runs, like
		// the paper's merge-sort baselines which are not stable either.
		cs.SortInPlace(keys[lo:hi], vals[lo:hi])
		runs = append(runs, lo)
	}
	runs = append(runs, n)

	srcK, srcV := keys, vals
	dstK, dstV := tmpK, tmpV
	for len(runs) > 2 {
		newRuns := make([]int, 0, (len(runs)-1)/k+2)
		for r := 0; r+1 < len(runs); r += k {
			last := min(r+k, len(runs)-1)
			mergeK(srcK, srcV, dstK, dstV, runs[r:last+1])
			newRuns = append(newRuns, runs[r])
		}
		newRuns = append(newRuns, n)
		runs = newRuns
		srcK, dstK = dstK, srcK
		srcV, dstV = dstV, srcV
	}
	if n > 0 && &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(vals, srcV)
	}
}

// mergeK merges the runs delimited by bounds (len m+1 for m runs) from src
// into dst at the same offsets.
func mergeK[K kv.Key](srcK, srcV, dstK, dstV []K, bounds []int) {
	m := len(bounds) - 1
	if m == 1 {
		copy(dstK[bounds[0]:bounds[1]], srcK[bounds[0]:bounds[1]])
		copy(dstV[bounds[0]:bounds[1]], srcV[bounds[0]:bounds[1]])
		return
	}
	h := make(runHeap[K], 0, m)
	for r := 0; r < m; r++ {
		if bounds[r] < bounds[r+1] {
			h = append(h, runHead[K]{
				key: srcK[bounds[r]], val: srcV[bounds[r]],
				pos: bounds[r] + 1, end: bounds[r+1], run: r,
				srcK: srcK, srcV: srcV,
			})
		}
	}
	heap.Init(&h)
	for o := bounds[0]; o < bounds[m]; o++ {
		top := &h[0]
		dstK[o], dstV[o] = top.key, top.val
		if top.pos < top.end {
			top.key, top.val = srcK[top.pos], srcV[top.pos]
			top.pos++
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
}

// Quicksort sorts keys and the matching payloads in place: an introsort
// with a branchless Lomuto partition. It is CMP's in-cache leaf — Go has
// no 128-bit min/max, so the paper's SIMD comb-sort leaf (CombSorter)
// runs as a scalar lane emulation several times slower — and the repo's
// quicksort baseline (the intro-sort family used by Albutiu et al. [1],
// which in-place MSB radix-sort beats 2-3x on 32-bit keys). Not stable.
//
// The pivot is a median of three, or Tukey's ninther above qsNinther
// tuples; slices of at most qsInsertion tuples are insertion-sorted; the
// smaller side is recursed into, so the stack stays O(log n). Two rules
// bound the worst case: after 2·⌊log2 n⌋ levels a slice falls back to
// heapsort, and a pivot equal to the key just left of the slice (which
// bounds the slice from below) triggers pdqsort's equal partition, which
// strips every pivot-equal key in one linear pass, so duplicate-heavy
// input costs O(n · distinct keys). It has no interruption points and
// only permutes the pairs in place (swaps, and insertion sort's shifts
// around one lifted tuple), so it needs no scratch and no restore path.
func Quicksort[K kv.Key](keys, vals []K) {
	n := len(keys)
	vals = vals[:n]
	quicksortRange(keys, vals, 0, n, 2*(bits.Len(uint(n))-1))
}

const (
	qsInsertion = 24  // insertion-sort at or below this many tuples
	qsNinther   = 128 // ninther pivot above this many tuples
)

// quicksortRange sorts keys[lo:hi]; keys[lo-1], when lo > 0, is a lower
// bound of the slice. limit is the remaining depth before heapsort.
func quicksortRange[K kv.Key](keys, vals []K, lo, hi, limit int) {
	for hi-lo > qsInsertion {
		if limit == 0 {
			heapsortPairs(keys[lo:hi], vals[lo:hi])
			return
		}
		limit--
		p := qsPivot(keys, lo, hi)
		keys[lo], keys[p] = keys[p], keys[lo]
		vals[lo], vals[p] = vals[p], vals[lo]
		if lo > 0 && keys[lo-1] == keys[lo] {
			// Every key is >= the pivot, so the <= side is exactly the
			// pivot-equal keys: drop them and go on with the rest.
			lo = qsPartition(keys[lo:hi], vals[lo:hi], true) + lo + 1
			continue
		}
		m := qsPartition(keys[lo:hi], vals[lo:hi], false) + lo
		if m-lo < hi-m {
			quicksortRange(keys, vals, lo, m, limit)
			lo = m + 1
		} else {
			quicksortRange(keys, vals, m+1, hi, limit)
			hi = m
		}
	}
	InsertionSort(keys[lo:hi], vals[lo:hi])
}

// qsPivot returns the index of the pivot for keys[lo:hi]: the median of
// first, middle and last, or above qsNinther tuples the median of three
// such medians over spread-out positions.
func qsPivot[K kv.Key](keys []K, lo, hi int) int {
	n := hi - lo
	mid := lo + n/2
	if n <= qsNinther {
		return median3(keys, lo, mid, hi-1)
	}
	s := n / 8
	return median3(keys,
		median3(keys, lo, lo+s, lo+2*s),
		median3(keys, mid-s, mid, mid+s),
		median3(keys, hi-1-2*s, hi-1-s, hi-1))
}

// median3 returns whichever of a, b, c indexes the median key.
func median3[K kv.Key](keys []K, a, b, c int) int {
	if keys[b] < keys[a] {
		a, b = b, a
	}
	if keys[c] < keys[b] {
		b = c
		if keys[b] < keys[a] {
			b = a
		}
	}
	return b
}

// qsPartition partitions keys around the pivot keys[0] with a branchless
// Lomuto loop: each tuple is swapped with the first tuple of the right
// side and the boundary advances by the 0/1 comparison result, so the
// loop carries no data-dependent branch. The 0/1 is a local set under an
// if, which the compiler lowers to SETcc; a conditional i++ compiles to a
// branch, and a bool-to-int helper is not inlined into instantiations
// made from other packages. With orEqual false it moves the
// pivot to its final index m and returns m — keys[:m] < pivot <=
// keys[m+1:]. With orEqual true it partitions by <= and returns the index
// of the last tuple on that side, leaving the pivot at keys[0].
func qsPartition[K kv.Key](keys, vals []K, orEqual bool) int {
	p := keys[0]
	vals = vals[:len(keys)]
	i := 1
	if orEqual {
		for j := 1; j < len(keys); j++ {
			k, v := keys[j], vals[j]
			keys[j], vals[j] = keys[i], vals[i]
			keys[i], vals[i] = k, v
			le := 0
			if k <= p {
				le = 1
			}
			i += le
		}
		return i - 1
	}
	for j := 1; j < len(keys); j++ {
		k, v := keys[j], vals[j]
		keys[j], vals[j] = keys[i], vals[i]
		keys[i], vals[i] = k, v
		lt := 0
		if k < p {
			lt = 1
		}
		i += lt
	}
	i--
	keys[0], keys[i] = keys[i], keys[0]
	vals[0], vals[i] = vals[i], vals[0]
	return i
}

// heapsortPairs sorts keys and the matching payloads in place with a
// binary max-heap: Quicksort's O(n log n) fallback past its depth limit.
func heapsortPairs[K kv.Key](keys, vals []K) {
	n := len(keys)
	vals = vals[:n]
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(keys, vals, i, n)
	}
	for end := n - 1; end > 0; end-- {
		keys[0], keys[end] = keys[end], keys[0]
		vals[0], vals[end] = vals[end], vals[0]
		siftDown(keys, vals, 0, end)
	}
}

// siftDown restores the heap property below root within keys[:end].
func siftDown[K kv.Key](keys, vals []K, root, end int) {
	for {
		c := 2*root + 1
		if c >= end {
			return
		}
		if c+1 < end && keys[c] < keys[c+1] {
			c++
		}
		if keys[root] >= keys[c] {
			return
		}
		keys[root], keys[c] = keys[c], keys[root]
		vals[root], vals[c] = vals[c], vals[root]
		root = c
	}
}
