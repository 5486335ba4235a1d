package memmodel

import "math"

// Variant enumerates the partitioning variants of Figure 1 that the
// analytic model prices.
type Variant int

// The four cells of the paper's partitioning taxonomy (Figure 1): in-place
// versus non-in-place crossed with cache-resident versus software-buffered
// data movement.
const (
	NonInPlaceInCache Variant = iota
	InPlaceInCache
	NonInPlaceOutOfCache
	InPlaceOutOfCache
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case NonInPlaceInCache:
		return "non-in-place in-cache"
	case InPlaceInCache:
		return "in-place in-cache"
	case NonInPlaceOutOfCache:
		return "non-in-place out-of-cache"
	case InPlaceOutOfCache:
		return "in-place out-of-cache"
	}
	return "unknown"
}

// clamp01 clamps x to [0, 1].
func clamp01(x float64) float64 {
	return math.Max(0, math.Min(1, x))
}

// randomAccessLat prices one access at a random location among `lines`
// distinct frontier cache lines: the latency of the smallest cache level
// the frontier set fits in, blended smoothly across boundaries.
func (p Profile) randomAccessLat(lines float64) float64 {
	bytes := lines * float64(p.LineBytes)
	// Blend between levels: fraction of frontier resident in each level.
	l1 := clamp01(float64(p.L1Bytes) / bytes)
	l2 := clamp01(float64(p.L2Bytes)/bytes) - l1
	if l2 < 0 {
		l2 = 0
	}
	l3 := clamp01(float64(p.L3Bytes)/bytes) - l1 - l2
	if l3 < 0 {
		l3 = 0
	}
	ram := 1 - l1 - l2 - l3
	return l1*p.L1Lat + l2*p.L2Lat + l3*p.L3Lat + ram*p.RAMLat
}

// tlbMissProb is the probability that a random access among `pages`
// distinct hot pages misses a TLB of e entries.
func (p Profile) tlbMissProb(pages float64) float64 {
	e := float64(p.TLBEntries)
	if pages <= e {
		return 0
	}
	return 1 - e/pages
}

// skewHitBoost returns the fraction of accesses absorbed by implicitly
// cached hot partitions under Zipf skew (Figure 4: skew improves
// partitioning because hot partitions stay cache- and TLB-resident).
// theta = 0 means uniform.
func skewHitBoost(theta float64) float64 {
	if theta < 1.0 {
		return 0 // the paper found no significant difference below theta=1
	}
	// At theta=1.2 a handful of partitions absorb most accesses.
	return clamp01(0.55 * (theta - 0.95))
}

// threadScale returns the effective parallelism of `threads` software
// threads on the machine, with an SMT boost for latency-bound work:
// latBound in [0,1] is the fraction of per-tuple time spent stalled on
// memory latency, which SMT overlaps.
func (p Profile) threadScale(threads int, latBound float64) float64 {
	cores := float64(p.Cores())
	t := float64(threads)
	if t <= cores {
		return t
	}
	// Beyond one thread per core, extra threads only help by hiding
	// latency; the boost saturates at ~45% per extra SMT thread for fully
	// latency-bound work.
	smt := math.Min(t/cores, float64(p.SMTPerCore))
	return cores * (1 + 0.45*latBound*(smt-1))
}

// Memory-level-parallelism factors: the fraction of raw miss latency that
// actually stalls the pipeline. Independent random writes overlap in the
// out-of-order window; the buffered variants expose even less because most
// operations land in the cache-resident buffer.
const (
	mlpInCache  = 0.7
	mlpBuffered = 0.45
)

// PartitionPass models one shared-nothing partitioning pass (Figures 3, 4
// and 6): `fanout`-way partitioning of tuples with keyBytes-wide keys and
// payloads, on `threads` threads, input uniformly random (zipfTheta = 0)
// or Zipf-skewed. Returns throughput in tuples per second.
func PartitionPass(p Profile, v Variant, fanout, keyBytes, threads int, zipfTheta float64) float64 {
	tupleBytes := float64(2 * keyBytes)
	pf := float64(fanout)
	lineTuples := float64(p.LineBytes) / tupleBytes
	skew := skewHitBoost(zipfTheta)

	// Per-tuple CPU work: partition function + loop + move.
	cpu := 4 * p.ScalarOpNs
	// Per-tuple memory latency exposed to the pipeline.
	var lat float64
	// Effective one-way bandwidth for the streaming cap, in GB/s.
	var bw float64

	switch v {
	case NonInPlaceInCache:
		// One random write to a partition frontier per tuple; two columns
		// of frontier lines; one TLB page per frontier.
		frontLines := 2 * pf
		lat = mlpInCache * (1 - skew) *
			(p.randomAccessLat(frontLines) + p.tlbMissProb(pf)*p.TLBLat)
		bw = p.WriteBW
	case InPlaceInCache:
		// A swap reads and writes one random location: more exposure.
		frontLines := 2 * pf
		lat = mlpInCache * (1 - skew) * 1.5 *
			(p.randomAccessLat(frontLines) + p.tlbMissProb(pf)*p.TLBLat)
		cpu += 2 * p.ScalarOpNs // swap bookkeeping
		bw = 0.9 * p.WriteBW
	case NonInPlaceOutOfCache:
		// Buffered: the per-tuple write lands in the P-line cache-resident
		// buffer; TLB-missing output traffic happens once per line.
		bufLines := 2 * pf
		flush := (1 - skew) * p.tlbMissProb(pf) * p.TLBLat / lineTuples
		lat = mlpBuffered * (p.randomAccessLat(bufLines) + flush)
		cpu += 2 * p.ScalarOpNs // buffer index math + flush loop amortized
		// Write-combining: streaming stores avoid read-for-ownership.
		bw = 0.8 * p.WriteBW
	case InPlaceOutOfCache:
		bufLines := 2 * pf
		// Load + flush per line: twice the line events of non-in-place.
		flush := (1 - skew) * 2 * p.tlbMissProb(pf) * p.TLBLat / lineTuples
		lat = mlpBuffered * (1.4*p.randomAccessLat(bufLines) + flush)
		cpu += 3 * p.ScalarOpNs
		bw = 0.66 * p.WriteBW
	}

	perTuple := cpu + lat
	latBound := lat / perTuple
	scale := p.threadScale(threads, latBound)
	cpuThroughput := scale / perTuple * 1e9 // tuples/s

	// Skew also relaxes the bandwidth cap: writes absorbed by cached hot
	// partitions never reach RAM.
	bwThroughput := bw * (1 + skew) * 1e9 / tupleBytes
	return math.Min(cpuThroughput, bwThroughput)
}

// OptimalBits returns the per-pass fanout (in bits) that maximizes
// throughput per partitioning bit — the paper's optimality criterion for
// choosing pass fanouts ("the optimal fanout is the one with the highest
// performance per partitioning bit", Section 5 / Figure 3). On the paper
// profile this lands at 10-12 bits for non-in-place out-of-cache, 9-10
// in-place, and 5-6 for the in-cache variants.
func OptimalBits(p Profile, v Variant, keyBytes, threads int) int {
	best, bestScore := 1, 0.0
	for bits := 1; bits <= 14; bits++ {
		score := PartitionPass(p, v, 1<<bits, keyBytes, threads, 0) * float64(bits)
		if score > bestScore {
			best, bestScore = bits, score
		}
	}
	return best
}

// HistMethod enumerates the histogram-generation methods of Figures 5/8.
type HistMethod int

// The histogram methods: radix shift+mask, multiplicative hash, and the
// two range lookups (scalar binary search vs the SIMD-style index walk).
const (
	HistRadix HistMethod = iota
	HistHash
	HistRangeBinarySearch
	HistRangeIndex
)

// String implements fmt.Stringer.
func (m HistMethod) String() string {
	switch m {
	case HistRadix:
		return "radix"
	case HistHash:
		return "hash"
	case HistRangeBinarySearch:
		return "range (bs)"
	case HistRangeIndex:
		return "range (index)"
	}
	return "unknown"
}

// indexLevels returns the number of levels of the paper's SIMD k-ary
// range index (Section 3.5.2: 5- and 9-way nodes under an 8-way root)
// covering fanout partitions. The model prices that index, not the
// binary tree rangeidx runs with one-lane compares.
func indexLevels(fanout int) float64 {
	switch {
	case fanout <= 9:
		return 1
	case fanout <= 72:
		return 2
	case fanout <= 360:
		return 3
	case fanout <= 1800:
		return 4
	default:
		return 5
	}
}

// Histogram models histogram generation throughput in keys per second for
// `fanout` partitions over keyBytes-wide keys on `threads` threads
// (Figures 5 and 8).
func Histogram(p Profile, m HistMethod, fanout, keyBytes, threads int) float64 {
	var perKey float64
	var latBound float64
	switch m {
	case HistRadix:
		perKey = 2 * p.ScalarOpNs // shift + mask + count
	case HistHash:
		perKey = 3 * p.ScalarOpNs // mul + shift + count
	case HistRangeBinarySearch:
		// ceil(log2(P)) dependent L1 loads, fully serialized: each load's
		// address depends on the previous comparison, so every step pays
		// the full load-to-use latency plus compare/branch work.
		steps := math.Ceil(math.Log2(float64(fanout)))
		perKey = steps * (p.L1Lat + 2*p.ScalarOpNs)
	case HistRangeIndex:
		// `levels` node accesses; the 4-key unrolled walk overlaps the
		// node loads of independent keys, hiding ~3/4 of the L1 latency.
		// 64-bit keys halve the SIMD lane count, adding per-node compare
		// work.
		levels := indexLevels(fanout)
		nodeWork := p.L1Lat/4 + 1.7*p.ScalarOpNs
		if keyBytes == 8 {
			nodeWork += 2 * p.ScalarOpNs
		}
		perKey = levels * nodeWork
	}
	perKey += p.ScalarOpNs // histogram increment
	latBound = 0.5
	if m == HistRadix || m == HistHash {
		latBound = 0.2
	}
	scale := p.threadScale(threads, latBound)
	cpuThroughput := scale / perKey * 1e9
	bwThroughput := p.ReadBW * 1e9 / float64(keyBytes)
	return math.Min(cpuThroughput, bwThroughput)
}

// NUMA mode for a pass.
type NUMAMode int

const (
	// NUMALocal: all accesses stay in the local region.
	NUMALocal NUMAMode = iota
	// NUMAInterleaved: pages interleave across regions; random accesses pay
	// the remote factor on (C-1)/C of the traffic.
	NUMAInterleaved
	// NUMAShuffle: a dedicated sequential shuffle pass over the
	// interconnect (prefetch hides latency, bandwidth shared).
	NUMAShuffle
)

// PassSeconds models the wall-clock of one data-movement pass over n
// tuples (partition or shuffle) for the sort models: tuples/s from
// PartitionPass, adjusted for the NUMA mode of the pass.
func PassSeconds(p Profile, v Variant, mode NUMAMode, fanout, keyBytes, threads, n int, zipfTheta float64) float64 {
	tps := PartitionPass(p, v, fanout, keyBytes, threads, zipfTheta)
	switch mode {
	case NUMAInterleaved:
		c := float64(p.Sockets)
		penalty := 1 + (p.NUMARemoteFactor-1)*(c-1)/c
		tps /= penalty
	case NUMAShuffle:
		// Sequential copy, (C-1)/C of it remote; hardware prefetch hides
		// the interconnect latency (Section 3.3), so the shuffle runs at
		// streaming-store bandwidth like a compute-free partition pass.
		bytes := float64(n) * float64(2*keyBytes) // one-way
		return bytes / (0.8 * p.WriteBW * 1e9)
	}
	return float64(n) / tps
}
