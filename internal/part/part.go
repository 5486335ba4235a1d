// Package part implements the paper's comprehensive menu of main-memory
// partitioning variants (Section 3): in-cache and out-of-cache, in-place
// and non-in-place, shared-nothing and synchronized shared-segment, plus
// the parallel in-place block permutation and the parallel drivers used
// across NUMA regions.
//
// All variants move columnar (key, payload) tuple pairs: keys and payloads
// live in separate same-length arrays, and every variant moves them
// together.
//
// Naming follows the paper's taxonomy (Figure 1):
//
//	NonInPlaceInCache    — Algorithm 1
//	InPlaceInCache       — Algorithm 2 (high-to-low swap cycles)
//	NonInPlaceOutOfCache — Algorithm 3 (cache-line software buffers)
//	InPlaceOutOfCache    — Algorithm 4 (buffered swap cycles)
//	BlockPermute         — Sections 3.2.3, 3.2.4, 3.3.2 (parallel in-place
//	                       block permutation, NUMA-metered)
//	SyncPermute          — Algorithm 5 (fetch-and-add synchronized in-place)
//
// Every kernel has one exported function. A kernel that uses scratch takes
// the *ws.Workspace first; a nil workspace allocates per call. A kernel
// that can be interrupted takes the *hard.Ctl last; a nil ctl never
// checkpoints.
package part

import (
	"fmt"

	"repro/internal/kv"
	"repro/internal/pfunc"
)

// Histogram counts the tuples per partition.
func Histogram[K kv.Key, F pfunc.Func[K]](keys []K, fn F) []int {
	return HistogramInto(make([]int, fn.Fanout()), keys, fn)
}

// HistogramInto is Histogram into a caller-provided (workspace-pooled)
// bucket array of length fn.Fanout(), cleared here.
func HistogramInto[K kv.Key, F pfunc.Func[K]](hist []int, keys []K, fn F) []int {
	clear(hist)
	histogramAccum(hist, keys, fn)
	return hist
}

// histogramAccum is the accumulate half of HistogramInto: it adds keys'
// counts onto hist without clearing, so checkpointed drivers can count one
// sub-chunk at a time into one bucket array. Radix functions take the
// unrolled direct-digit kernel (kernels.go); the loop below is its scalar
// reference and the path for every other partition function.
func histogramAccum[K kv.Key, F pfunc.Func[K]](hist []int, keys []K, fn F) {
	if shift, mask, ok := radixParams[K](fn); ok {
		histogramRadixAccum(hist, keys, shift, mask)
		return
	}
	for _, k := range keys {
		hist[fn.Partition(k)]++
	}
}

// HistogramCodes counts tuples per partition and additionally records each
// tuple's partition in codes, so that the (more expensive) partition
// function is computed once per tuple: during histogram generation, not
// again during data movement. This is how the comparison sort uses range
// partitioning (Section 4.3.2). codes must have len(keys) capacity.
func HistogramCodes[K kv.Key, F pfunc.Func[K]](keys []K, fn F, codes []int32) []int {
	if len(codes) < len(keys) {
		panic("part: codes buffer smaller than input")
	}
	hist := make([]int, fn.Fanout())
	for i, k := range keys {
		p := fn.Partition(k)
		codes[i] = int32(p)
		hist[p]++
	}
	return hist
}

// BatchLookuper is implemented by partition functions with a fused batch
// path (the range index); HistogramCodesBatch uses it when available.
type BatchLookuper[K kv.Key] interface {
	LookupBatch(keys []K, out []int32)
}

// HistogramCodesBatch is HistogramCodes using a batch lookup (the paper's
// N-at-a-time unrolled index walk).
func HistogramCodesBatch[K kv.Key](keys []K, fn BatchLookuper[K], fanout int, codes []int32) []int {
	if len(codes) < len(keys) {
		panic("part: codes buffer smaller than input")
	}
	hist := make([]int, fanout)
	histogramCodesBatchAccum(hist, keys, fn, codes)
	return hist
}

// histogramCodesBatchAccum is the accumulate half of HistogramCodesBatch
// (see histogramAccum).
func histogramCodesBatchAccum[K kv.Key](hist []int, keys []K, fn BatchLookuper[K], codes []int32) {
	fn.LookupBatch(keys, codes)
	for _, c := range codes[:len(keys)] {
		hist[c]++
	}
}

// MultiHistogram computes the histograms of several radix bit ranges in
// one scan of the keys. Radix histograms are value-based, so LSB
// radix-sort can compute every pass's histogram up front (data reordering
// between passes does not change global per-range counts), replacing k
// histogram scans with one — the classic one-read-pass LSB optimization.
// ranges[i] = [lo, hi) bit range; the returned hists[i] has 2^(hi-lo)
// buckets.
func MultiHistogram[K kv.Key](keys []K, ranges [][2]uint) [][]int {
	hists := make([][]int, len(ranges))
	for i, r := range ranges {
		if r[1] <= r[0] || r[1]-r[0] >= 64 {
			panic(fmt.Sprintf("part: invalid radix bit range [%d,%d)", r[0], r[1]))
		}
		hists[i] = make([]int, 1<<(r[1]-r[0]))
	}
	return MultiHistogramInto(hists, keys, ranges)
}

// MaxRadixPasses bounds the number of simultaneous radix bit ranges: one
// pass per key bit is the worst case (RadixBits = 1 over 64-bit keys).
const MaxRadixPasses = 64

// MultiHistogramInto is MultiHistogram into caller-provided (pooled) bucket
// rows: hists[i] must have length 2^(ranges[i][1]-ranges[i][0]) and is
// cleared here. It allocates nothing.
func MultiHistogramInto[K kv.Key](hists [][]int, keys []K, ranges [][2]uint) [][]int {
	if len(ranges) > MaxRadixPasses {
		panic(fmt.Sprintf("part: %d radix ranges exceed the %d-pass bound", len(ranges), MaxRadixPasses))
	}
	var shifts [MaxRadixPasses]uint
	var masks [MaxRadixPasses]K
	for i, r := range ranges {
		if r[1] <= r[0] || r[1]-r[0] >= 64 {
			panic(fmt.Sprintf("part: invalid radix bit range [%d,%d)", r[0], r[1]))
		}
		shifts[i] = r[0]
		masks[i] = K(1)<<(r[1]-r[0]) - 1
		if len(hists[i]) != int(masks[i])+1 {
			panic("part: multi-histogram row sized differently from its bit range")
		}
		clear(hists[i])
	}
	// The scan is compute-bound (the tables are cache-resident), so the
	// common pass counts are specialized: hoisting rows, shifts, and masks
	// into locals keeps the key loop free of slice-header reloads, and
	// indexing each row at its mask first lets the compiler drop the bounds
	// check on every masked increment.
	switch len(ranges) {
	case 2:
		h0, h1 := hists[0], hists[1]
		s0, s1 := shifts[0], shifts[1]
		m0, m1 := masks[0], masks[1]
		_, _ = h0[m0], h1[m1]
		for _, k := range keys {
			h0[(k>>s0)&m0]++
			h1[(k>>s1)&m1]++
		}
	case 3:
		h0, h1, h2 := hists[0], hists[1], hists[2]
		s0, s1, s2 := shifts[0], shifts[1], shifts[2]
		m0, m1, m2 := masks[0], masks[1], masks[2]
		_, _, _ = h0[m0], h1[m1], h2[m2]
		for _, k := range keys {
			h0[(k>>s0)&m0]++
			h1[(k>>s1)&m1]++
			h2[(k>>s2)&m2]++
		}
	case 4:
		h0, h1, h2, h3 := hists[0], hists[1], hists[2], hists[3]
		s0, s1, s2, s3 := shifts[0], shifts[1], shifts[2], shifts[3]
		m0, m1, m2, m3 := masks[0], masks[1], masks[2], masks[3]
		_, _, _, _ = h0[m0], h1[m1], h2[m2], h3[m3]
		for _, k := range keys {
			h0[(k>>s0)&m0]++
			h1[(k>>s1)&m1]++
			h2[(k>>s2)&m2]++
			h3[(k>>s3)&m3]++
		}
	default:
		for _, k := range keys {
			for i := range hists {
				hists[i][(k>>shifts[i])&masks[i]]++
			}
		}
	}
	return hists
}

// Starts converts a histogram into exclusive-prefix-sum start offsets and
// returns the total.
func Starts(hist []int) ([]int, int) {
	return StartsInto(make([]int, len(hist)), hist)
}

// StartsInto is Starts into a caller-provided offset array of the
// histogram's length.
func StartsInto(starts, hist []int) ([]int, int) {
	starts = starts[:len(hist)] // one check here, none in the loop
	total := 0
	for p, h := range hist {
		starts[p] = total
		total += h
	}
	return starts, total
}

// CheckHistogram panics unless hist sums to n; partitioning variants use it
// to catch caller mistakes early instead of corrupting memory.
func CheckHistogram(hist []int, n int) {
	total := 0
	for _, h := range hist {
		if h < 0 {
			panic(fmt.Sprintf("part: negative histogram entry %d", h))
		}
		total += h
	}
	if total != n {
		panic(fmt.Sprintf("part: histogram sums to %d, input has %d tuples", total, n))
	}
}
