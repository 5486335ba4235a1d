// Spill planning: the external sort's counterpart of Choose. Given the
// input size and the auxiliary-memory budget, PlanSpill decides whether
// the sort must leave RAM at all and, if so, shapes the external pipeline
// — segment granularity, run-formation fanout, merge fan-in, and buffer
// sizes — so the whole pipeline's peak memory stays inside the budget the
// in-memory planner would have refused. The fanout aims at one pass:
// every byte is spilled and read back once unless skew overflows a
// bucket past its segment.

package tune

import (
	"math/bits"
	"runtime"

	"repro/internal/ws"
)

// Spill-plan clamps. Segments below minSegmentTuples would make the merge
// fan-in explode for no memory win; a write-combining line below
// minLineTuples turns formation into small writes; extents hold at least
// minLinesPerExtent lines so the per-extent bookkeeping stays small.
const (
	minSegmentTuples  = 1 << 10
	maxSegmentTuples  = 1 << 26
	minLineTuples     = 64
	maxMergeWidth     = 16
	minLinesPerExtent = 8
	spillSlackBytes   = 64 << 10
)

// MaxBucketBits is the widest run-formation fanout, in bits, that the
// planner picks and the external sort accepts (wider requests are clamped
// to it). The formation slab budget caps the fanout long before it on any
// real budget.
const MaxBucketBits = 16

// SpillPlan is the external sort's shape: how the one streaming
// run-formation pass fans out, how large the in-memory sorted segments
// are, and how wide the file-backed merge runs.
type SpillPlan struct {
	// Spill reports whether the input exceeds the auxiliary budget at all;
	// false means the in-memory paths fit and the external pipeline is
	// unnecessary.
	Spill bool `json:"spill"`
	// SegmentTuples is the sealed-run granularity and the largest bucket
	// delivered in one piece: a delivery worker's pair buffer, and the
	// overflow path's sort columns and read buffer, are a segment each.
	SegmentTuples int `json:"segment_tuples"`
	// BucketBits is the run-formation fanout in bits: one streaming pass
	// scatters tuples into 1<<BucketBits key-range buckets whose file
	// extents are reserved on first touch (no counting pre-pass). It is
	// sized so the expected bucket fill is at most half a segment: a
	// uniform input is then delivered without sealed runs or merges.
	BucketBits int `json:"bucket_bits"`
	// MergeWidth caps the file-backed merge fan-in of a bucket that
	// overflows one segment; wider ones merge in rounds.
	MergeWidth int `json:"merge_width"`
	// LineTuples is the per-bucket write-combining buffer in tuples; only
	// full lines (and the final drain) reach the spill file.
	LineTuples int `json:"line_tuples"`
	// ExtentTuples is the bucket extent reservation unit in tuples
	// (see ExtentTuples).
	ExtentTuples int `json:"extent_tuples"`
	// BlockTuples is each merge iterator's prefetch block in tuples (two
	// blocks per iterator: one draining, one loading).
	BlockTuples int `json:"block_tuples"`
	// MemBytes is the planned peak auxiliary footprint of the external
	// pipeline, its largest phase's — what an admission ledger should
	// charge for the run.
	MemBytes int64 `json:"mem_bytes"`
	// DiskBytes bounds a run's spill files — what a disk ledger should
	// charge and cap it at: one part-filled extent per worker's chain per
	// bucket, and five copies of the input: formation's, and under the
	// worst skew the sealed segments and three merge rounds of re-spill.
	// A uniform input writes the formation copy alone.
	DiskBytes int64 `json:"disk_bytes"`
}

// PlanSpill shapes the external pipeline for n tuples of keyBits-bit keys
// sorted by threads workers under an auxiliary budget of maxAux bytes
// (<=0: DefaultAuxBudget). The profile contributes the merge width via its
// calibrated CPU count; a nil profile falls back to the live GOMAXPROCS.
// The returned plan keeps MemBytes within the budget even when the budget
// is far below the input — only degenerate budgets (below ~512 KiB, where
// the buffer clamps dominate) are clamped up.
//
// MemBytes is the largest of the three phases' footprints, because the
// sorter holds each phase's buffers only during that phase: formation's
// T line slabs; one-segment delivery's T pair buffers, each beside a
// one-worker MSB sort of its bucket; and the overflow path's read buffer
// and chunk columns beside either a T-worker chunk sort or the merge
// blocks. When the widest phase does not fit, the segment halves (and the
// fanout grows with it) until it does.
func PlanSpill(n, keyBits int, maxAux int64, threads int, p *MachineProfile) SpillPlan {
	if maxAux <= 0 {
		maxAux = DefaultAuxBudget()
	}
	threads = max(threads, 1)
	w8 := int64(keyBits / 8)
	ncpu := runtime.GOMAXPROCS(0)
	if p != nil && p.NumCPU > 0 {
		ncpu = p.NumCPU
	}

	// Segment size: the overflow path holds one interleaved read buffer
	// (segment pairs) plus the two deinterleaved sort columns — 4·seg·w8
	// bytes — so it starts at a quarter of the budget.
	seg := clampInt64(maxAux/(16*w8), minSegmentTuples, maxSegmentTuples)
	if int64(n) < seg {
		seg = max(int64(n), 1)
	}
	pl := spillShape(n, keyBits, maxAux, threads, ncpu, seg)
	for pl.MemBytes > maxAux && seg > minSegmentTuples {
		seg = max(seg/2, minSegmentTuples)
		pl = spillShape(n, keyBits, maxAux, threads, ncpu, seg)
	}
	// The in-memory paths budget roughly two extra columns per input
	// column (scratch ping-pong plus codes); spill once that cannot fit.
	pl.Spill = int64(n)*4*w8 > maxAux
	pl.DiskBytes = (5*int64(n) + int64(threads)<<pl.BucketBits*int64(pl.ExtentTuples)) * 2 * w8
	return pl
}

// spillShape is PlanSpill at a fixed segment size.
func spillShape(n, keyBits int, maxAux int64, threads, ncpu int, seg int64) SpillPlan {
	w8 := int64(keyBits / 8)
	pair := 2 * w8
	pl := SpillPlan{SegmentTuples: int(seg)}

	// Fanout: aim for one formation pass. The expected bucket fill gets
	// variance headroom under one segment (at most seg/2), so delivery
	// sorts each bucket straight into its output range and only buckets
	// that skew overflows are cut into sealed runs and merged. The cap is
	// each worker's formation slab (fanout × line × pair), which must fit
	// an eighth of the budget (1/(2T) of it past four workers) with lines
	// of at least minLineTuples.
	buckets := ceilDiv64(max(int64(n), 1), max(seg/2, 1))
	capBits := bits.Len64(uint64(maxAux/int64(max(8, 2*threads))/(minLineTuples*pair))) - 1
	pl.BucketBits = clampInt(bits.Len64(uint64(buckets-1)), 1, clampInt(capBits, 1, MaxBucketBits))
	fanout := int64(1) << pl.BucketBits
	pl.LineTuples = SpillLineTuples(pl.BucketBits, keyBits, maxAux, threads)
	line := int64(pl.LineTuples)
	pl.ExtentTuples = ExtentTuples(n, pl.BucketBits, pl.LineTuples, threads)

	// Merge: W iterators × 2 prefetch blocks × block pairs ≤ half the
	// budget. The calibrated CPU count bounds useful prefetch concurrency.
	w := clampInt(ncpu, 4, maxMergeWidth)
	block := clampInt64(seg/4, 1<<10, 1<<16)
	for block > 1<<10 && int64(w)*4*block*w8 > maxAux/2 {
		block /= 2
	}
	for w > 2 && int64(w)*4*block*w8 > maxAux/2 {
		w--
	}
	pl.MergeWidth = w
	pl.BlockTuples = int(block)

	// Every buffer is priced at the capacity the workspace arena hands
	// out for it (ws.Capacity), which is what its ledger meters.
	capB := func(elems int64) int64 { return int64(ws.Capacity(int(elems))) * w8 }
	T := int64(threads)
	msb := func(m int64, t int) int64 { return Footprint(AlgoMSB, int(m), keyBits, t) }
	formation := T * capB(fanout*2*line)
	delivery := T * (capB(2*seg) + msb(seg, 1))
	overflow := capB(2*seg) + 2*capB(seg) + max(msb(seg, threads), int64(w)*capB(4*block))
	pl.MemBytes = max(formation, delivery, overflow) + spillSlackBytes
	return pl
}

// SpillLineTuples is the formation line rule for 1<<bucketBits buckets of
// keyBits-bit pairs under maxAux bytes (<=0: DefaultAuxBudget) on threads
// workers: 8 KiB of pairs per bucket, halved down to 64 tuples until one
// worker's slab fits its share of the budget. SortExternal applies it to
// an overridden fanout too.
func SpillLineTuples(bucketBits, keyBits int, maxAux int64, threads int) int {
	if maxAux <= 0 {
		maxAux = DefaultAuxBudget()
	}
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
