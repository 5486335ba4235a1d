package memmodel

import (
	"math"
	"math/bits"
)

// SortAlgo enumerates the paper's three sorting algorithms.
type SortAlgo int

// The three algorithms of Section 4: stable LSB radix-sort, in-place MSB
// radix-sort, and the range-partitioning comparison sort.
const (
	SortLSB SortAlgo = iota
	SortMSB
	SortCMP
)

// String implements fmt.Stringer.
func (a SortAlgo) String() string {
	switch a {
	case SortLSB:
		return "LSB"
	case SortMSB:
		return "MSB"
	case SortCMP:
		return "CMP"
	}
	return "unknown"
}

// SortPhases is the per-phase wall-clock breakdown of one sort run
// (Figures 11 and 13), in seconds, and the partitioning passes the model
// walked.
type SortPhases struct {
	Alloc      float64
	Histogram  float64
	Partition  float64
	Shuffle    float64
	LocalRadix float64
	CacheSort  float64
	// Passes counts the passes the way sortalgo.Stats.Passes does: every
	// LSB digit; MSB's first pass and the deepest stack of its
	// out-of-cache local passes; CMP's range passes, first pass included.
	// The in-cache levels (MSB's tail, CMP's leaves) are not passes.
	Passes int
}

// Total returns the summed wall-clock.
func (s SortPhases) Total() float64 {
	return s.Alloc + s.Histogram + s.Partition + s.Shuffle + s.LocalRadix + s.CacheSort
}

// SortConfig parameterizes the sort models.
type SortConfig struct {
	Algo       SortAlgo
	KeyBytes   int
	Threads    int
	N          int
	DomainBits int // key domain size logD (32/64 for sparse domains)
	NUMAAware  bool
	// PreAllocated: auxiliary space already allocated (Figures 11/13
	// contrast pre-allocated and not).
	PreAllocated bool
	ZipfTheta    float64
}

// WorkerCacheBytes is the per-worker cache budget: a segment of at most
// WorkerCacheBytes of tuples (16384 64-bit or 32768 32-bit pairs) is
// cache-resident. The sorts size their passes against it, Footprint
// prices their scratch against it, and Calibrated takes it as the
// per-worker cache, so Sort walks the passes the sorts run.
const WorkerCacheBytes = 256 << 10

// RangeFanout caps the fanout of a CMP range pass (CMPFanout): the
// default of sortalgo.Options.RangeFanout, and the cap the planner and
// the sort model price.
const RangeFanout = 360

// The LSB digit plan's widths. Out of cache the buffered scatter stays
// flat up to 10-12 bits (Figure 3), so wide digits buy fewer passes for
// free; in cache Algorithm 1 runs byte-wide digits, whose offsets and
// output stay cache-resident (Section 3.1).
const (
	LSBOutOfCacheBits = 11
	LSBInCacheBits    = 8
)

// MSB's out-of-cache local passes: byte-wide digits, each run as one
// single-worker block permutation with B = MSBLocalBlock(cacheT), which
// is MSBLocalBlockTuples at the default cache bound. A worker's buffer
// blocks, 2^MSBLocalBits × B tuples, are the scratch the planner and
// sortd's admission estimate charge for them. MSBLocalBlockTuples is
// also the largest block of every other block permutation of the sorts
// (BlockTuples): MSB's parallel first pass (MSBFirstPass, over a digit of
// up to MSBFirstMaxBits), its range split and CMP's range passes.
const (
	MSBLocalBits        = 8
	MSBLocalBlockTuples = 128
	MSBFirstMaxBits     = 11
)

// MSBLocalBlock is the block of MSB's local passes under a cache bound of
// cacheT tuples: MSBLocalBlockTuples, halved (floored at 16) until the
// pass's buffer blocks, 2^MSBLocalBits × B tuples, hold at most twice
// cacheT, as many as the in-cache tail's buffer pair. At the default
// bound (WorkerCacheBytes of pairs) it is MSBLocalBlockTuples for 32- and
// 64-bit keys; a sort given a smaller bound, the external sort's in-place
// overflow sort under a tight budget, gets smaller buffers with it.
func MSBLocalBlock(cacheT int) int {
	b := MSBLocalBlockTuples
	for b > minBlockTuples && b<<MSBLocalBits > 2*cacheT {
		b >>= 1
	}
	return b
}

// minBlockTuples floors BlockTuples: below it the claim counters and
// slot labels cost more than the block moves they schedule.
const minBlockTuples = 16

// BlockTuples sizes the block of one block permutation of n tuples at the
// given fanout on workers workers, starting from maxBlock. The classify
// buffers hold workers × fanout × b tuples, so b halves, floored at 16,
// until they fit in a quarter of the input; otherwise a small sort's
// scratch would exceed the input itself and the whole pass would
// degenerate into the cleanup path. Every block permutation of the sorts
// (CMP's range passes, MSB's first pass and range split) and the
// planner's footprint model size their blocks through this one rule,
// from maxBlock = MSBLocalBlockTuples: at CMP's 360-way cap and 16-byte
// tuples a worker's buffers are then 360 × 128 × 16 B = 720 KiB, within
// a 2 MiB L2, where 1024-tuple blocks held 5.6 MiB.
func BlockTuples(n, fanout, workers, maxBlock int) int {
	b := maxBlock
	for b > minBlockTuples && workers*fanout*b > n/4 {
		b >>= 1
	}
	return b
}

// MSBFirstPass returns the digit width and block size of MSB's parallel
// first pass over n tuples whose keys differ only in their low span bits,
// on workers workers with a per-worker cache bound of cacheT tuples. The
// digit is sized from n, as IPS⁴o sizes its fanout (Axtmann et al.):
// bits.Len(n/cacheT), clamped to [MSBLocalBits, MSBFirstMaxBits], leaves
// buckets of about half the cache bound, so most inputs reach the
// in-cache tail after this one shared pass. The block is
// MSBLocalBlockTuples, shrunk by BlockTuples at small n; when even the
// 16-tuple floor does not fit a quarter of the input, the digit narrows,
// down to ⌈log2 workers⌉+1 bits. The digit never exceeds span. The sort,
// memmodel.Sort and the planner take the first pass from this function.
func MSBFirstPass(n, span, cacheT, workers int) (digitBits, blockTuples int) {
	d := min(max(bits.Len(uint(n/max(cacheT, 1))), MSBLocalBits), MSBFirstMaxBits)
	floor := bits.Len(uint(workers-1)) + 1
	for d > floor && workers<<d*minBlockTuples > n/4 {
		d--
	}
	d = max(min(d, span), 0)
	return d, BlockTuples(n, 1<<d, workers, MSBLocalBlockTuples)
}

// CMPFanout returns the fanout of one CMP range pass over a segment of n
// tuples with a per-worker cache bound of cacheT tuples, sized from n as
// IPS⁴o sizes its fanout (Axtmann et al.): ⌈4n/cacheT⌉, at least 2 and
// at most maxFanout. The pass leaves partitions of about a quarter of the
// cache bound, so a segment within maxFanout × cacheT/4 tuples reaches
// its leaves in one pass, and a larger one takes a capped pass and then
// one small pass per partition. The sort, memmodel.Sort and the planner
// all take each pass's fanout from this function.
func CMPFanout(n, cacheT, maxFanout int) int {
	return min(maxFanout, max(2, (4*n+cacheT-1)/cacheT))
}

// LSBDigits appends to dst the digit bit ranges [lo, hi) of an LSB
// radix-sort over key bits [0, domainBits), least significant first, and
// returns the extended slice. The runtime, memmodel.Sort and the planner
// all price LSB through this one function.
//
// radixBits > 0 fixes every digit at that width (the last takes the
// remainder). radixBits <= 0 selects the working-set plan:
// LSBInCacheBits-wide digits when the sort fits in cache, otherwise
// ceil(span/LSBOutOfCacheBits) digits of near-equal width, wider ones
// first (22 bits: 11+11; 32: 11+11+10; 64: 4x11 + 2x10).
//
// ranges > 1 is the range fanout fused into the first pass (the NUMA-aware
// first pass of Section 4.2.1). Under the plan that pass's digit narrows
// so its total fanout, ranges times radix, stays within the flat zone of
// LSBOutOfCacheBits+1 bits, and the rest of the span is planned anew.
func LSBDigits(dst [][2]uint, domainBits, radixBits int, inCache bool, ranges int) [][2]uint {
	if domainBits <= 0 {
		return dst
	}
	if radixBits > 0 {
		return lsbFixed(dst, 0, domainBits, radixBits)
	}
	if inCache {
		return lsbFixed(dst, 0, domainBits, LSBInCacheBits)
	}
	if ranges > 1 {
		lead := max(1, LSBOutOfCacheBits+1-bits.Len(uint(ranges-1)))
		passes := (domainBits + LSBOutOfCacheBits - 1) / LSBOutOfCacheBits
		if widest := (domainBits + passes - 1) / passes; widest > lead {
			return lsbBalanced(append(dst, [2]uint{0, uint(lead)}), lead, domainBits)
		}
	}
	return lsbBalanced(dst, 0, domainBits)
}

// lsbFixed appends width-bit digits covering [lo, hi).
func lsbFixed(dst [][2]uint, lo, hi, width int) [][2]uint {
	for ; lo < hi; lo += width {
		dst = append(dst, [2]uint{uint(lo), uint(min(lo+width, hi))})
	}
	return dst
}

// lsbBalanced appends ceil((hi-lo)/LSBOutOfCacheBits) digits of near-equal
// width covering [lo, hi), wider ones first.
func lsbBalanced(dst [][2]uint, lo, hi int) [][2]uint {
	span := hi - lo
	passes := (span + LSBOutOfCacheBits - 1) / LSBOutOfCacheBits
	for i := 0; i < passes; i++ {
		w := span / passes
		if i < span%passes {
			w++
		}
		dst = append(dst, [2]uint{uint(lo), uint(lo + w)})
		lo += w
	}
	return dst
}

// allocBW models first-touch page allocation bandwidth in GB/s (page
// faults + zeroing).
const allocBW = 18.0

// Sort models one sort run and returns its phase breakdown. The models
// compose PartitionPass/Histogram/PassSeconds exactly the way the
// algorithms of Section 4 compose partitioning passes.
func Sort(p Profile, cfg SortConfig) SortPhases {
	n := cfg.N
	kb := cfg.KeyBytes
	t := cfg.Threads
	var ph SortPhases
	tupleBytes := float64(2 * kb)

	mode := func(first bool) NUMAMode {
		if !cfg.NUMAAware {
			if p.Sockets > 1 {
				return NUMAInterleaved
			}
			return NUMALocal
		}
		return NUMALocal
	}

	switch cfg.Algo {
	case SortLSB:
		// Non-in-place: needs an auxiliary array.
		if !cfg.PreAllocated {
			ph.Alloc = float64(n) * tupleBytes / (allocBW * 1e9)
		}
		// The digit plan the runtime executes; a sort that fits in cache
		// runs on one worker and scatters with Algorithm 1. The NUMA-aware
		// first pass fuses the paper's C-way range split into its digit.
		inCache := float64(n) <= cacheTuplesFor(p, kb)
		variant := NonInPlaceOutOfCache
		if inCache {
			variant, t = NonInPlaceInCache, 1
		}
		ranges := 1
		if cfg.NUMAAware && p.Sockets > 1 {
			ranges = p.Sockets
		}
		digits := LSBDigits(nil, max(cfg.DomainBits, 1), 0, inCache, ranges)
		for i, d := range digits {
			fanout := 1 << (d[1] - d[0])
			ph.Histogram += float64(n) / Histogram(p, HistRadix, fanout, kb, t)
			if i == 0 {
				fanout *= ranges
			}
			sec := PassSeconds(p, variant, mode(i == 0), fanout, kb, t, n, cfg.ZipfTheta)
			if i == 0 {
				ph.Partition += sec
			} else {
				ph.LocalRadix += sec
			}
		}
		ph.Passes = len(digits)
		if cfg.NUMAAware && p.Sockets > 1 {
			ph.Shuffle = PassSeconds(p, NonInPlaceOutOfCache, NUMAShuffle, p.Sockets, kb, t, n, 0)
		}

	case SortMSB:
		// In-place: no allocation beyond O(P*B) scratch either way. The
		// digits cover the key span (DomainBits) from the top, and a
		// segment's passes stop once it is cache-resident, so MSB covers
		// log n bits, not log D (Section 4.2.2).
		cacheT := cacheTuplesFor(p, kb)
		bitsLeft, seg := cfg.DomainBits, float64(n)
		if t > 1 && bitsLeft > 0 {
			// First pass: one parallel block permutation over the digit
			// MSBFirstPass sizes from n (the NUMA-aware run's range split
			// is priced the same).
			first, _ := MSBFirstPass(n, bitsLeft, int(cacheT), t)
			ph.Histogram += float64(n) / Histogram(p, HistRadix, 1<<first, kb, t)
			ph.Partition += PassSeconds(p, InPlaceOutOfCache, NUMALocal, 1<<first, kb, t, n, cfg.ZipfTheta)
			if cfg.NUMAAware && p.Sockets > 1 {
				// Block shuffle: up to 2 crossings per tuple (Section
				// 3.3.2), expected (2x^2-3x+1)/x^2 = 1.3125 on 4 regions —
				// 75% more than the (x-1)/x of the non-in-place shuffle.
				x := float64(p.Sockets)
				crossings := (2*x*x - 3*x + 1) / (x * x)
				ph.Shuffle = float64(n) * tupleBytes * crossings / (0.8 * p.WriteBW * 1e9)
			}
			bitsLeft -= first
			seg /= float64(int(1) << first)
			ph.Passes++
		}
		for bitsLeft > 0 && seg > cacheT {
			// Local passes: byte-wide single-worker block permutations,
			// whose classify scan counts the histogram. One worker starts
			// here.
			ph.LocalRadix += PassSeconds(p, InPlaceOutOfCache, NUMALocal, 1<<min(bitsLeft, MSBLocalBits), kb, t, n, cfg.ZipfTheta)
			bitsLeft -= MSBLocalBits
			seg /= 1 << MSBLocalBits
			ph.Passes++
		}
		if bitsLeft > 0 {
			// One in-cache level: a histogram scan, then an Algorithm 1
			// scatter over ~log2 seg - 2 bits into a buffer pair of the
			// segment's size, whose copy-back insertion-sorts the 4-8
			// tuple parts (a read, a write and ~2 branch-free
			// compare-exchanges per tuple). The buffer spans no more
			// pages than the cache, so unlike PassSeconds' RAM-sized
			// output the scatter takes no page walks.
			fanout := 1 << min(bitsLeft, max(1, bits.Len(uint(seg))-3))
			lat := mlpInCache * p.randomAccessLat(2*float64(fanout))
			perTuple := 16*p.ScalarOpNs + lat + p.L1Lat
			ph.CacheSort = float64(n)/Histogram(p, HistRadix, fanout, kb, t) +
				float64(n)*perTuple/p.threadScale(t, lat/perTuple)/1e9
		}

	case SortCMP:
		if !cfg.PreAllocated {
			ph.Alloc = float64(n) * tupleBytes / (allocBW * 1e9)
		}
		// Range passes until the segments are cache-resident, each at
		// the fanout CMPFanout sizes from its segment; an input within the
		// cache bound is one leaf. Skew makes CMP faster twice over
		// (Section 4.3.2 / Section 5):
		// heavy keys land in single-key partitions after the first pass,
		// which need no further passes and no in-cache sorting; and the
		// Zipf caching effect speeds the remaining partitioning.
		cacheT := int(cacheTuplesFor(p, kb))
		dup := 0.0
		if cfg.ZipfTheta >= 0.9 {
			dup = clamp01(1.25 * (cfg.ZipfTheta - 0.8))
		}
		seg := n
		for i := 0; seg > cacheT; i++ {
			fanout := CMPFanout(seg, cacheT, RangeFanout)
			frac := 1.0
			if i > 0 {
				frac = 1 - dup
			}
			ph.Histogram += frac * float64(n) / Histogram(p, HistRangeIndex, fanout, kb, t)
			ph.Partition += frac * PassSeconds(p, NonInPlaceOutOfCache, mode(i == 0), fanout, kb, t, n, cfg.ZipfTheta)
			seg = (seg + fanout - 1) / fanout
			ph.Passes++
		}
		if cfg.NUMAAware && p.Sockets > 1 {
			ph.Shuffle = PassSeconds(p, NonInPlaceOutOfCache, NUMAShuffle, p.Sockets, kb, t, n, 0)
		}
		ph.CacheSort = (1 - dup) * combSortSeconds(p, n, kb, t, true)
	}
	return ph
}

// cacheTuplesFor returns the tuples per thread that fit in the
// thread-share of the cache.
func cacheTuplesFor(p Profile, keyBytes int) float64 {
	perThread := float64(p.L2Bytes) // private L2 as the working target
	return perThread / float64(2*keyBytes)
}

// combSortSeconds models in-cache comb-sort over n total tuples split into
// cache-resident chunks across t threads (Figure 15): SIMD does
// (n/W)log(n/W) lane-parallel compare-exchanges plus n*logW merge steps;
// scalar does ~n log n compare-exchanges.
func combSortSeconds(p Profile, n, keyBytes, t int, simd bool) float64 {
	w := 4.0
	if keyBytes == 8 {
		w = 2.0
	}
	nn := float64(n)
	chunk := cacheTuplesFor(p, keyBytes)
	logn := math.Log2(math.Max(chunk, 2))
	exchangeNs := 3.5 * p.ScalarOpNs // load/min/max/store per vector pair, amortized
	var ops float64
	if simd {
		ops = nn/w*(logn-math.Log2(w))*1.35 + nn*math.Log2(w)*2
		if keyBytes == 8 {
			// Two 64-bit lanes per register: each vector op does half the
			// work of the 32-bit case at the same cost.
			ops *= 1.6
		}
	} else {
		// Scalar compare-exchanges pay branch mispredictions the
		// lane-parallel min/max path avoids.
		ops = nn * logn * 1.7
	}
	return ops * exchangeNs / float64(p.threadScale(t, 0.3)) / 1e9
}

// CombSortThroughput models Figure 15: in-cache sorting throughput in
// tuples/s for one thread at a given array size, scalar vs SIMD.
func CombSortThroughput(p Profile, arraySize, keyBytes int, simd bool) float64 {
	w := 4.0
	if keyBytes == 8 {
		w = 2.0
	}
	nn := float64(arraySize)
	logn := math.Log2(math.Max(nn, 2))
	exchangeNs := 3.5 * p.ScalarOpNs
	var ops float64
	if simd {
		ops = nn/w*math.Max(logn-math.Log2(w), 1)*1.35 + nn*math.Log2(w)*2
		if keyBytes == 8 {
			ops *= 1.6
		}
	} else {
		ops = nn * logn * 1.7
	}
	// Larger arrays spill from L1 to L2: small latency adder.
	bytes := nn * float64(2*keyBytes)
	spill := 0.0
	if bytes > float64(p.L1Bytes) {
		spill = nn * 0.3 * p.L2Lat / w
	}
	return nn / ((ops*exchangeNs + spill) / 1e9)
}

// SortThroughput returns tuples/s for a sort configuration.
func SortThroughput(p Profile, cfg SortConfig) float64 {
	return float64(cfg.N) / Sort(p, cfg).Total()
}

// OneSocket derives the single-CPU variant of a profile (for the 1-CPU
// series of Figures 7 and 10): one socket's cores and its share of the
// aggregate bandwidth, and no NUMA layer.
func OneSocket(p Profile) Profile {
	q := p
	f := float64(p.Sockets)
	q.Sockets = 1
	q.ReadBW /= f
	q.WriteBW /= f
	q.CopyBW /= f
	return q
}
