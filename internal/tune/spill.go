// Spill planning: the external sort's counterpart of Choose. Given the
// input size and the auxiliary-memory budget, PlanSpill decides whether
// the sort must leave RAM at all and, if so, shapes the external pipeline
// — segment granularity, run-formation fanout, buffer sizes, and the
// worker count of the in-place overflow sort — so the whole pipeline's
// peak memory stays inside the budget the in-memory planner would have
// refused. The fanout aims at one pass: every byte is spilled once and
// read back once unless skew overflows a bucket past its segment, and
// then that bucket's bytes are read once more.

package tune

import (
	"math/bits"

	"repro/internal/memmodel"
	"repro/internal/ws"
)

// Spill-plan clamps. A segment below minSegmentTuples would make delivery
// read in tiny pieces for no memory win; a write-combining line below
// minLineTuples turns formation into small writes; extents hold at least
// minLinesPerExtent lines so the per-extent bookkeeping stays small.
const (
	minSegmentTuples  = 1 << 10
	maxSegmentTuples  = 1 << 26
	minLineTuples     = 64
	minLinesPerExtent = 8
	spillSlackBytes   = 64 << 10
)

// MaxBucketBits is the widest run-formation fanout, in bits, that the
// planner picks and the external sort accepts (wider requests are clamped
// to it). The formation slab budget caps the fanout long before it on any
// real budget.
const MaxBucketBits = 16

// SpillPlan is the external sort's shape: how the one streaming
// run-formation pass fans out, how large a bucket is delivered in one
// piece, and how a larger one is sorted in place.
type SpillPlan struct {
	// Spill reports whether the input exceeds the auxiliary budget at all;
	// false means the in-memory paths fit and the external pipeline is
	// unnecessary.
	Spill bool `json:"spill"`
	// SegmentTuples is the largest bucket delivered in one piece: a
	// delivery worker's pair buffer, and the overflow path's staging
	// buffer, hold one segment of pairs each. The staging buffer goes
	// back before the bucket is sorted.
	SegmentTuples int `json:"segment_tuples"`
	// BucketBits is the run-formation fanout in bits: one streaming pass
	// scatters tuples into 1<<BucketBits key-range buckets whose file
	// extents are reserved on first touch (no counting pre-pass). It is
	// sized so the expected bucket fill is at most half a segment: a
	// uniform input then takes no overflow path.
	BucketBits int `json:"bucket_bits"`
	// LineTuples is the per-bucket write-combining buffer in tuples; only
	// full lines (and the final drain) reach the spill file.
	LineTuples int `json:"line_tuples"`
	// ExtentTuples is the bucket extent reservation unit in tuples
	// (see ExtentTuples).
	ExtentTuples int `json:"extent_tuples"`
	// OverflowThreads and OverflowCacheTuples are the worker count and
	// the cache bound (sortalgo.Options.CacheTuples) of the in-place MSB
	// sort of a bucket that overflows one segment (see overflowSort).
	OverflowThreads     int `json:"overflow_threads"`
	OverflowCacheTuples int `json:"overflow_cache_tuples"`
	// MemBytes is the planned peak auxiliary footprint of the external
	// pipeline, its largest phase's — what an admission ledger should
	// charge for the run.
	MemBytes int64 `json:"mem_bytes"`
	// DiskBytes bounds a run's spill file — what a disk ledger should
	// charge and cap it at: the formation copy of the input plus one
	// part-filled extent per worker's chain per bucket. Nothing else is
	// written to disk.
	DiskBytes int64 `json:"disk_bytes"`
}

// PlanSpill shapes the external pipeline for n tuples of keyBits-bit keys
// sorted by threads workers under an auxiliary budget of maxAux bytes
// (<=0: DefaultAuxBudget). The returned plan keeps MemBytes within the
// budget unless the budget is below the planner's floor: the buffer
// clamps and, growing with n, the one-worker in-place sort of a bucket
// that holds the whole input, whose block permutation labels every slot
// (n/32 bytes at the default 128-tuple blocks: PlanSpill(1<<24, 64,
// 1 MiB) plans about 1.16 MB, where 16384 pairs fit 256 KiB).
//
// MemBytes is the largest of the three phases' footprints, because the
// sorter holds each phase's buffers only during that phase: formation's
// T line slabs; one-segment delivery's T pair buffers, each beside a
// one-worker MSB sort of its bucket; and the overflow path, whose staging
// buffer reads a bucket into its output range and goes back before the
// in-place MSB sort of the range, priced at n tuples because one bucket
// can hold the whole input (overflowSort). When a phase that depends on
// the segment does not fit, the segment halves (and the fanout grows with
// it) until it does.
func PlanSpill(n, keyBits int, maxAux int64, threads int) SpillPlan {
	if maxAux <= 0 {
		maxAux = DefaultAuxBudget()
	}
	threads = max(threads, 1)
	w8 := int64(keyBits / 8)

	// Segment size: start where a delivery worker's pair buffer (2·seg·w8
	// bytes) is a quarter of the budget.
	seg := clampInt64(maxAux/(16*w8), minSegmentTuples, maxSegmentTuples)
	if int64(n) < seg {
		seg = max(int64(n), 1)
	}
	pl := spillShape(n, keyBits, maxAux, threads, seg)
	for pl.MemBytes > maxAux && seg > minSegmentTuples {
		seg = max(seg/2, minSegmentTuples)
		pl = spillShape(n, keyBits, maxAux, threads, seg)
	}
	// The overflow sort does not depend on the segment, so a smaller one
	// cannot make it fit.
	var overflow int64
	pl.OverflowThreads, pl.OverflowCacheTuples, overflow = overflowSort(n, keyBits, maxAux, threads)
	pl.MemBytes = max(pl.MemBytes, overflow+spillSlackBytes)
	// The in-memory paths budget roughly two extra columns per input
	// column (scratch ping-pong plus codes); spill once that cannot fit.
	pl.Spill = int64(n)*4*w8 > maxAux
	pl.DiskBytes = (int64(n) + int64(threads)<<pl.BucketBits*int64(pl.ExtentTuples)) * 2 * w8
	return pl
}

// spillShape is PlanSpill at a fixed segment size, before the overflow
// sort is priced.
func spillShape(n, keyBits int, maxAux int64, threads int, seg int64) SpillPlan {
	w8 := int64(keyBits / 8)
	pair := 2 * w8
	pl := SpillPlan{SegmentTuples: int(seg)}

	// Fanout: aim for one formation pass. The expected bucket fill gets
	// variance headroom under one segment (at most seg/2), so delivery
	// sorts each bucket straight into its output range and only buckets
	// that skew overflows take the in-place path. The cap is each
	// worker's formation slab (fanout × line × pair), which must fit an
	// eighth of the budget (1/(2T) of it past four workers) with lines of
	// at least minLineTuples.
	buckets := ceilDiv64(max(int64(n), 1), max(seg/2, 1))
	capBits := bits.Len64(uint64(maxAux/int64(max(8, 2*threads))/(minLineTuples*pair))) - 1
	pl.BucketBits = clampInt(bits.Len64(uint64(buckets-1)), 1, clampInt(capBits, 1, MaxBucketBits))
	fanout := int64(1) << pl.BucketBits
	pl.LineTuples = spillLineTuples(pl.BucketBits, keyBits, maxAux, threads)
	line := int64(pl.LineTuples)
	pl.ExtentTuples = ExtentTuples(n, pl.BucketBits, pl.LineTuples, threads)

	// Every buffer is priced at the capacity the workspace arena hands
	// out for it (ws.Capacity), which is what its ledger meters.
	capB := func(elems int64) int64 { return int64(ws.Capacity(int(elems))) * w8 }
	T := int64(threads)
	formation := T * capB(fanout*2*line)
	delivery := T * (capB(2*seg) + Footprint(AlgoMSB, int(seg), keyBits, 1))
	pl.MemBytes = max(formation, delivery, capB(2*seg)) + spillSlackBytes
	return pl
}

// overflowSort is the overflow rule: the worker count t and cache bound
// cacheT of the in-place MSB sort of a bucket larger than one segment,
// and its footprint, priced at n tuples of keyBits-bit keys because one
// bucket can hold the whole input. It takes the most workers, up to
// threads, whose sort at the default cache bound fits maxAux
// (<=0: DefaultAuxBudget) beside the slack. When even one worker does not
// fit, the one worker's cache bound halves, down to minSegmentTuples, and
// shrinks its in-cache buffer pair and its local passes' blocks
// (memmodel.MSBLocalBlock) with it; the first bound that fits is kept,
// or else the one with the smallest footprint (more slot labels can
// outweigh smaller blocks at large n).
func overflowSort(n, keyBits int, maxAux int64, threads int) (t, cacheT int, bytes int64) {
	if maxAux <= 0 {
		maxAux = DefaultAuxBudget()
	}
	fits := func(b int64) bool { return b+spillSlackBytes <= maxAux }
	bound := memmodel.WorkerCacheBytes / (keyBits / 4)
	for t = max(threads, 1); t > 1; t-- {
		if bytes = msbFootprint(n, keyBits, t, bound); fits(bytes) {
			return t, bound, bytes
		}
	}
	cacheT, bytes = bound, msbFootprint(n, keyBits, 1, bound)
	for c := bound / 2; !fits(bytes) && c >= minSegmentTuples; c /= 2 {
		if b := msbFootprint(n, keyBits, 1, c); b < bytes {
			cacheT, bytes = c, b
		}
	}
	return 1, cacheT, bytes
}

// spillLineTuples is the formation line rule for 1<<bucketBits buckets
// of keyBits-bit pairs under maxAux bytes on threads workers: 8 KiB of
// pairs per bucket, halved down to 64 tuples until one worker's slab fits
// its share of the budget.
func spillLineTuples(bucketBits, keyBits int, maxAux int64, threads int) int {
	pair := int64(keyBits / 4)
	line := clampInt64((8<<10)/pair, minLineTuples, 4096)
	for line > minLineTuples && int64(1)<<bucketBits*line*pair > maxAux/int64(max(8, 2*threads)) {
		line /= 2
	}
	return int(line)
}

// ExtentTuples is the formation extent rule, the one reservation unit for
// n tuples scattered over 1<<bucketBits buckets through lineTuples-tuple
// lines by threads workers, each of which fills its own extent chain per
// bucket: a quarter of a chain's expected fill, in whole lines, and at
// least minLinesPerExtent lines. A chain leaves at most its last extent
// part-filled, so reserved spill bytes stay within 1.25× the formation
// bytes (plus a line per chain) whenever the minimum does not bind.
func ExtentTuples(n, bucketBits, lineTuples, threads int) int {
	line := max(int64(lineTuples), 1)
	chains := int64(max(threads, 1)) << clampInt(bucketBits, 0, MaxBucketBits)
	fill := ceilDiv64(max(int64(n), 1), chains)
	lines := max(ceilDiv64(fill, 4*line), minLinesPerExtent)
	return int(lines * line)
}

// ceilDiv64 is ceil(a/b) for positive b.
func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }

// clampInt64 clamps v into [lo, hi].
func clampInt64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// clampInt clamps v into [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
