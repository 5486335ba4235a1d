// Rangeindex: the cache-resident range index of Section 3.5.2 in action —
// computing a 1000-way range partition function over a large key column,
// against the textbook binary-search baseline. The index replaces
// binary search's unpredictable branches with ceil(log2 P) branch-free
// compares per key and walks 8 keys at a time, so their dependent loads
// overlap; that is what makes range partitioning (and therefore the
// comparison sort and ordered analytics like percentile bucketing)
// practical.
package main

import (
	"fmt"
	"sort"
	"time"

	partsort "repro"
	"repro/internal/gen"
)

const (
	nKeys  = 1 << 22
	fanout = 1000
)

func main() {
	keys := gen.Uniform[uint64](nKeys, 0, 21)

	// Delimiters: equal-depth over a sample — 999 sorted split points.
	sample := append([]uint64(nil), keys[:1<<16]...)
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	delims := make([]uint64, fanout-1)
	for i := range delims {
		delims[i] = sample[(i+1)*len(sample)/fanout]
	}

	ix := partsort.NewRangeIndex(delims)
	fmt.Printf("built a %d-way range index over %d delimiters\n", ix.Fanout(), len(delims))

	// Binary-search baseline.
	bsCodes := make([]int32, nKeys)
	t0 := time.Now()
	for i, k := range keys {
		bsCodes[i] = int32(sort.Search(len(delims), func(j int) bool { return delims[j] > k }))
	}
	tBS := time.Since(t0)

	// Index, batch path.
	ixCodes := make([]int32, nKeys)
	t0 = time.Now()
	ix.LookupBatch(keys, ixCodes)
	tIx := time.Since(t0)

	for i := range bsCodes {
		if bsCodes[i] != ixCodes[i] {
			panic(fmt.Sprintf("index disagrees with binary search at %d: %d vs %d",
				i, ixCodes[i], bsCodes[i]))
		}
	}

	mks := func(d time.Duration) float64 { return float64(nKeys) / d.Seconds() / 1e6 }
	fmt.Printf("binary search: %7.1f Mkeys/s\n", mks(tBS))
	fmt.Printf("range index:   %7.1f Mkeys/s (%.2fx)\n", mks(tIx), tBS.Seconds()/tIx.Seconds())

	// The resulting histogram is balanced: equal-depth delimiters keep
	// every bucket near nKeys/fanout regardless of the distribution.
	hist := make([]int, fanout)
	for _, c := range ixCodes {
		hist[c]++
	}
	minB, maxB := hist[0], hist[0]
	for _, h := range hist {
		minB, maxB = min(minB, h), max(maxB, h)
	}
	fmt.Printf("bucket sizes: min %d / mean %d / max %d\n", minB, nKeys/fanout, maxB)
}
