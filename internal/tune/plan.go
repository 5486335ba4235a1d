// The adaptive planner: minimize the calibrated cost model over candidate
// plans. This is the runtime replacement for the static decision table of
// Recommend (Section 6) and for the hard-coded "optimal" fanout constants:
// instead of assuming the paper's 2014 platform, the planner prices each
// candidate with the probe measurements of this machine (Section 3.2's
// substitution: probe timing ~= measured cost factor) and the sampled
// workload descriptors.

package tune

import (
	"math"
	"math/bits"

	"repro/internal/memmodel"
	"repro/internal/part"
	"repro/internal/ws"
)

// Algo names a sorting algorithm in a Plan ("LSB", "MSB", or "CMP" — the
// three algorithms of Section 4).
type Algo string

// The algorithm names a Plan can carry.
const (
	AlgoLSB Algo = "LSB"
	AlgoMSB Algo = "MSB"
	AlgoCMP Algo = "CMP"
)

// Requirements are the hard constraints of one planning request — the
// parts of the problem sampling cannot discover.
type Requirements struct {
	// KeyBits is the key type width, 32 or 64.
	KeyBits int
	// NeedStable forces LSB, the only stable algorithm of the three.
	NeedStable bool
	// SpaceTight forces MSB: no linear auxiliary array can be afforded.
	SpaceTight bool
	// Force locks the algorithm choice (the algorithm-specific entry
	// points tune knobs only); empty lets the planner choose.
	Force Algo
	// MaxThreads caps the planned worker count (0: the profile's NumCPU).
	MaxThreads int
	// MaxBytes caps the auxiliary memory a plan may budget for scratch
	// arrays (0: half of the machine's available memory, see
	// DefaultAuxBudget). When LSB's Footprint exceeds the cap, the free
	// algorithm choice takes the in-place MSB instead, and a forced LSB
	// keeps its working-set digits unless tuned ones fit. It does not
	// move CMP, which always plans in place.
	MaxBytes int64
}

// Plan is one tuned sort configuration: the planner's output and the
// record (SortStats.Plan) of what an auto-tuned run actually did.
type Plan struct {
	// Algo is the chosen algorithm.
	Algo Algo `json:"algo"`
	// RadixBits is the per-pass radix fanout in bits.
	RadixBits int `json:"radix_bits"`
	// RangeFanout caps the comparison sort's per-pass fanout (memmodel.CMPFanout).
	RangeFanout int `json:"range_fanout"`
	// Threads is the planned worker count.
	Threads int `json:"threads"`
	// Passes is the predicted partitioning pass count.
	Passes int `json:"passes"`
	// PredictedNs is the modeled wall-clock of this plan in nanoseconds.
	PredictedNs float64 `json:"predicted_ns"`
	// BaselineNs is the modeled wall-clock of the static default knobs
	// (LSB's working-set digit plan, 8-bit MSB passes, single worker) for
	// the same algorithm — the margin the tuner predicts over the untuned
	// path.
	BaselineNs float64 `json:"baseline_ns"`
	// InPlace records that the plan selects the in-place layout: always
	// true for MSB and CMP, false for LSB. The planner does not see the
	// NUMA topology; a CMP run that engages the NUMA-aware layout still
	// takes a linear tmp pair.
	InPlace bool `json:"in_place"`
	// AuxBytes is the modeled peak auxiliary footprint of the chosen
	// layout in bytes (Footprint).
	AuxBytes int64 `json:"aux_bytes"`
}

// Static default knobs (the zero-value SortOptions behavior the baseline
// is priced against). LSB's default digits are the working-set plan,
// radix width 0 (memmodel.LSBDigits).
const (
	defaultRadixBits = 8
	lsbPlanBits      = 0
	// stickyMargin keeps the default radix width unless a candidate beats
	// it by more than this factor: within measurement noise of the probes,
	// matching the static path exactly is worth more than a modeled sliver.
	stickyMargin = 0.95
	// minBits/maxBits bound the searched radix widths; 16 matches the
	// public maxRadixBits bound.
	minBits = 2
	maxBits = 14
	// parallelMinN is the input size below which a second worker costs
	// more in coordination than it recovers.
	parallelMinN = 1 << 16
	// cacheResidentTuples approximates the per-core cache-resident segment
	// size in tuples (256 KiB of 16-byte tuples), the in-cache/out-of-cache
	// boundary the cost functions switch at.
	cacheResidentTuples = 1 << 14
)

// Choose returns the plan minimizing the calibrated cost model for the
// sampled workload under the given requirements. It is a pure function of
// its inputs: the same profile, stats, and requirements always produce the
// same plan.
func Choose(p *MachineProfile, w WorkloadStats, req Requirements) Plan {
	kb := req.KeyBits
	if kb != 32 {
		kb = 64
	}
	threads := p.NumCPU
	if req.MaxThreads > 0 && req.MaxThreads < threads {
		threads = req.MaxThreads
	}
	if w.N < parallelMinN || threads < 1 {
		threads = 1
	}
	budget := req.MaxBytes
	if budget <= 0 {
		budget = DefaultAuxBudget()
	}

	algo := req.Force
	if algo == "" {
		switch {
		case req.NeedStable:
			algo = AlgoLSB
		case req.SpaceTight:
			algo = AlgoMSB
		case w.HeavySkew:
			algo = AlgoCMP
		default:
			// Free choice: the cost model decides (the adaptive version of
			// Recommend's dense-vs-sparse rule — on machines where
			// out-of-cache passes are cheap, LSB's wider applicability
			// shows up as lower modeled cost).
			lsb, _ := bestBits(p, w, kb, threads, lsbPlanBits, lsbCost)
			msb, _ := bestBits(p, w, kb, threads, defaultRadixBits, msbCost)
			if lsb <= msb {
				algo = AlgoLSB
			} else {
				algo = AlgoMSB
			}
			if algo == AlgoLSB && Footprint(AlgoLSB, w.N, kb, threads) > budget {
				// LSB's tmp pair and tables do not fit: MSB sorts in place.
				algo = AlgoMSB
			}
		}
	}

	plan := Plan{Algo: algo, RangeFanout: memmodel.RangeFanout, Threads: threads}
	switch algo {
	case AlgoCMP:
		plan.RadixBits = defaultRadixBits
		plan.PredictedNs, plan.Passes = cmpCost(p, w, kb, threads)
		base, _ := cmpCost(p, w, kb, 1)
		plan.BaselineNs = base
		plan.InPlace = true
		plan.AuxBytes = Footprint(AlgoCMP, w.N, kb, threads)
	case AlgoMSB:
		plan.RadixBits, plan.Passes, plan.PredictedNs = pickBits(p, w, kb, threads, defaultRadixBits, msbCost)
		base, _ := msbCost(p, w, kb, defaultRadixBits, 1)
		plan.BaselineNs = base
		plan.InPlace = true
		plan.AuxBytes = Footprint(AlgoMSB, w.N, kb, threads)
	default:
		plan.RadixBits, plan.Passes, plan.PredictedNs = pickBits(p, w, kb, threads, lsbPlanBits, lsbCost)
		if plan.RadixBits != lsbPlanBits && lsbFootprint(w.N, kb, max(threads, req.MaxThreads), plan.RadixBits) > budget {
			// The tuned digits' tables do not fit at the worker count the
			// run may use; the working-set plan's fit if its Footprint does.
			plan.RadixBits = lsbPlanBits
			plan.PredictedNs, plan.Passes = lsbCost(p, w, kb, lsbPlanBits, threads)
		}
		if plan.RadixBits == lsbPlanBits {
			// The plan stays; report its widest digit, which as a fixed
			// width runs the same number of passes.
			plan.RadixBits = int(lsbDigits(w, kb, lsbPlanBits)[0][1])
		}
		base, _ := lsbCost(p, w, kb, lsbPlanBits, 1)
		plan.BaselineNs = base
		plan.AuxBytes = lsbFootprint(w.N, kb, threads, plan.RadixBits)
	}
	return plan
}

// Footprint is the one in-memory footprint model: the peak auxiliary
// bytes of a sort of n tuples of keyBits-bit keys on threads workers,
// every buffer priced at the capacity the arena meters (ws.Capacity) and
// the key span taken as the full width. The planner, PlanSpill's phases
// and sortd's admission charge all read it.
func Footprint(algo Algo, n, keyBits, threads int) int64 {
	w8 := int64(keyBits / 8)
	tuple := 2 * w8                                // one key + one payload of key width
	bound := cacheResidentTuples * 16 / int(tuple) // the sorts' cache bound in tuples
	capI := func(elems int) int64 { return int64(ws.Capacity(elems)) * 8 }
	switch algo {
	case AlgoCMP:
		// An input within the cache bound is one in-place leaf. Above it,
		// the first pass's block permutation at the fanout and block the
		// sort sizes from n. Its starts stay held while T workers recurse,
		// each through a one-worker pass sized from its partition when
		// that partition is past the cache bound; a partition is priced
		// at twice the mean.
		if n <= bound {
			return 0
		}
		f := memmodel.CMPFanout(n, bound, memmodel.RangeFanout)
		pass := blockPermAux(n, f, memmodel.BlockTuples(n, f, threads, memmodel.MSBLocalBlockTuples), threads, tuple)
		m := 2 * ceilDiv(n, f)
		if m <= bound {
			return pass
		}
		f2 := memmodel.CMPFanout(m, bound, memmodel.RangeFanout)
		rec := blockPermAux(m, f2, memmodel.BlockTuples(m, f2, 1, memmodel.MSBLocalBlockTuples), 1, tuple)
		return max(pass, capI(f+1)+int64(threads)*rec)
	case AlgoMSB:
		// With more than one worker, the first pass: a block permutation
		// over the digit and block of memmodel.MSBFirstPass, whose buffers
		// go back before the recursion starts. Then each worker's larger
		// holding of two, beside the pass's starts. Its in-cache segments,
		// m tuples up to the sort's cache bound (256 KiB of tuples),
		// scatter through a key and a payload buffer of m tuples with a
		// histogram and a cursor table of at most m/4 counts. One worker
		// starts there with m = min(n, bound); past the first pass m is
		// the larger of twice the mean digit bucket and a range of the
		// skew fallback's split (n/4T). A segment past the cache bound
		// runs a one-worker permutation per byte digit over its share of
		// the input. A worker never holds both: BlockPermute returns its
		// blocks before the recursion, and the pair goes back before the
		// in-cache branch recurses. A narrower span narrows the digit.
		seg, pass, starts := n, int64(0), int64(0)
		if threads > 1 {
			digit, block := memmodel.MSBFirstPass(n, keyBits, bound, threads)
			pass = blockPermAux(n, 1<<digit, block, min(threads, max(1, n/block)), tuple)
			seg = max(2*n>>digit, ceilDiv(n, 4*threads))
			starts = capI(1<<digit + 1)
		}
		m := min(seg, bound)
		worker := int64(ws.Capacity(m))*tuple + 2*capI(max(1, m/4))
		if seg > bound {
			worker = max(worker, blockPermAux(ceilDiv(n, threads), 1<<memmodel.MSBLocalBits, memmodel.MSBLocalBlockTuples, 1, tuple))
		}
		return max(pass, starts+int64(threads)*worker)
	default:
		return lsbFootprint(n, keyBits, threads, lsbPlanBits)
	}
}

// lsbFootprint is Footprint's LSB arm for radixBits-wide digits (0: the
// working-set plan): the tmp pair and the tables of the widest digit's
// fanout f. One worker, which also runs every in-cache sort, holds every
// digit's histogram row in one flat buffer, and in cache Algorithm 1's
// offsets, out of cache Algorithm 3's starts, cursors and a 64-byte line
// per partition and column. More workers hold per pass a histogram and a
// starts row each, the chunk bounds, the global starts, and every
// worker's lines and cursors.
func lsbFootprint(n, keyBits, threads, radixBits int) int64 {
	w8 := int64(keyBits / 8)
	inCache := lsbInCache(WorkloadStats{N: n}, keyBits)
	var plan [part.MaxRadixPasses][2]uint
	digits := memmodel.LSBDigits(plan[:0], keyBits, radixBits, inCache, 1)
	f := 0
	for _, d := range digits {
		f = max(f, 1<<(d[1]-d[0]))
	}
	capI := func(elems int) int64 { return int64(ws.Capacity(elems)) * 8 }
	lines := func(t int) int64 { return 2 * int64(ws.Capacity(t*f*64/int(w8))) * w8 }
	pair := 2 * int64(ws.Capacity(n)) * w8
	if threads > 1 && !inCache {
		return pair + 2*int64(threads)*capI(f) + capI(threads+1) + capI(f) + capI(threads*f) + lines(threads)
	}
	pair += capI(part.MultiHistogramFlatLen(digits))
	if inCache {
		return pair + capI(f)
	}
	return pair + 2*capI(f) + lines(1)
}

// blockPermAux prices the scratch of one block permutation of n tuples
// at fanout f with b-tuple blocks (memmodel.BlockTuples) on t workers, at
// the capacity the workspace arena hands each buffer out (ws.Capacity):
// the classify buffers and hand blocks of both columns, the per-slot
// partition column, t histogram rows plus ten more tables of fanout or
// worker size (chunk bounds, flush and hand cursors, stripe starts, claim
// budgets and counters, the caller's starts, the parked-block fix-up's
// two lists), a 256-code batch per worker, and the gap column of slots
// no stripe covers — at most one per partial buffer and stripe head.
func blockPermAux(n, f, b, t int, tuple int64) int64 {
	buffers := int64(ws.Capacity(t*f*b)+ws.Capacity(t*b)) * tuple
	nSlots := ceilDiv(n, b)
	slots := int64(ws.Capacity(nSlots)+ws.Capacity(min(nSlots, (t+1)*f))) * 4
	tables := int64((t+10)*ws.Capacity(f+1))*8 + int64(ws.Capacity(256*t))*4
	return buffers + slots + tables
}

// costFn models one algorithm's wall-clock in ns at a given radix width.
type costFn func(p *MachineProfile, w WorkloadStats, keyBits, radixBits, threads int) (ns float64, passes int)

// pickBits searches the radix widths for the cheapest plan, keeping the
// static default width def unless a candidate beats it by more than
// stickyMargin (probe noise should not move a knob for a modeled sliver).
func pickBits(p *MachineProfile, w WorkloadStats, keyBits, threads, def int, cost costFn) (radixBits, passes int, ns float64) {
	bestNs, bestBits := math.Inf(1), def
	for b := minBits; b <= maxBits; b++ {
		c, _ := cost(p, w, keyBits, b, threads)
		if c < bestNs {
			bestNs, bestBits = c, b
		}
	}
	defNs, defPasses := cost(p, w, keyBits, def, threads)
	if defNs <= 0 || bestNs >= stickyMargin*defNs {
		return def, defPasses, defNs
	}
	_, passes = cost(p, w, keyBits, bestBits, threads)
	return bestBits, passes, bestNs
}

// bestBits returns the minimum modeled cost over the default width def
// and the searched radix widths (for algorithm comparison; the width
// itself comes from pickBits).
func bestBits(p *MachineProfile, w WorkloadStats, keyBits, threads, def int, cost costFn) (ns float64, radixBits int) {
	bestNs, _ := cost(p, w, keyBits, def, threads)
	best := def
	for b := minBits; b <= maxBits; b++ {
		if c, _ := cost(p, w, keyBits, b, threads); c < bestNs {
			bestNs, best = c, b
		}
	}
	return bestNs, best
}

// ceilDiv is ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}

// scatterFor prices one partitioning pass per tuple at the given fanout:
// the out-of-cache curve when the pass's working set exceeds the
// cache-resident budget, the in-cache curve otherwise.
func scatterFor(p *MachineProfile, keyBits, radixBits, segTuples int) float64 {
	return p.scatterNs(keyBits, radixBits, segTuples <= cacheResidentTuples)
}

// lsbCost models the LSB radix-sort (Section 4.2.1): one fused histogram
// scan (radix histograms are value-based, so every pass's histogram comes
// from one read), then one full-width scatter per digit of the plan the
// runtime runs (radixBits 0: the working-set plan), on the in-cache curve
// and on one worker when the sort fits in cache.
func lsbCost(p *MachineProfile, w WorkloadStats, keyBits, radixBits, threads int) (float64, int) {
	digits := lsbDigits(w, keyBits, radixBits)
	inCache := lsbInCache(w, keyBits)
	if inCache {
		threads = 1
	}
	n := float64(w.N)
	ns := n * p.histNs(keyBits) // fused one-scan histogramming
	for _, d := range digits {
		ns += n * p.scatterNs(keyBits, int(d[1]-d[0]), inCache)
	}
	return ns / float64(threads), len(digits)
}

// lsbInCache mirrors the runtime's in-cache test for LSB: the input fits
// the 256 KiB per-worker budget (cacheResidentTuples 16-byte tuples).
func lsbInCache(w WorkloadStats, keyBits int) bool {
	return w.N*keyBits <= cacheResidentTuples*64
}

// lsbDigits is the digit plan an LSB run of this workload executes.
func lsbDigits(w WorkloadStats, keyBits, radixBits int) [][2]uint {
	return memmodel.LSBDigits(nil, max(w.DomainBits, 1), radixBits, lsbInCache(w, keyBits), 1)
}

// msbCost models the MSB radix-sort (Section 4.2.2): passes cover
// min(domainBits, log2 n) bits, segments shrink by the fanout each pass
// (so later passes run in cache), and the cache-resident tail is finished
// by in-cache sorting priced at a few histogram-scan equivalents. The
// first pass pays a histogram scan and the in-place surcharge; with more
// than one worker its digit is the sort's own (memmodel.MSBFirstPass),
// with one it is a radixBits-wide local pass. The out-of-cache local
// passes after it are block permutations whose classify scan counts the
// histogram, priced as a plain scatter.
func msbCost(p *MachineProfile, w WorkloadStats, keyBits, radixBits, threads int) (float64, int) {
	domain := w.DomainBits
	if domain < 1 {
		domain = 1
	}
	logN := bits.Len(uint(max(w.N, 2) - 1))
	effBits := min(domain, logN)
	first := radixBits
	if threads > 1 {
		first, _ = memmodel.MSBFirstPass(w.N, effBits, cacheResidentTuples*64/keyBits, threads)
	}
	n := float64(w.N)
	// A separate histogram scan, and in-place swaps ~25% over the
	// non-in-place scatter the probes measured (extra load per slot).
	// Only the first pass can run in cache: the loop stops once segments
	// fit.
	ns := n*p.histNs(keyBits) + n*1.25*scatterFor(p, keyBits, first, w.N)
	passes := 1
	for bitsLeft, seg := effBits-first, w.N>>first; bitsLeft > 0 && seg > cacheResidentTuples; bitsLeft -= radixBits {
		ns += n * scatterFor(p, keyBits, radixBits, seg)
		seg >>= radixBits
		passes++
	}
	// In-cache finishing of the remaining bits (comb/insertion leaves).
	ns += n * 3 * p.histNs(keyBits)
	return ns / float64(threads), passes
}

// cmpCost models the range-partitioning comparison sort (Section 4.3):
// range passes until segments are cache-resident, each at the fanout f
// memmodel.CMPFanout sizes from its segment and priced as a range lookup
// (~3x a radix histogram probe at 9 tree levels, so per level a third)
// plus an out-of-cache scatter of log2 f bits; then the in-cache
// Quicksort leaves, priced per key-log of the segment the passes leave.
func cmpCost(p *MachineProfile, w WorkloadStats, keyBits, threads int) (float64, int) {
	n := float64(w.N)
	bound := cacheResidentTuples * 64 / keyBits
	// Skewed inputs place their heavy keys in single-key partitions after
	// the first pass; that fraction needs no further passes or sorting.
	dup := w.HeadMass
	var ns float64
	passes := 0
	seg := w.N
	for ; seg > bound; passes++ {
		f := memmodel.CMPFanout(seg, bound, memmodel.RangeFanout)
		levels := bits.Len(uint(f - 1))
		frac := 1.0
		if passes > 0 {
			frac -= dup
		}
		ns += frac * n * (float64(levels)/3*p.histNs(keyBits) + p.scatterNs(keyBits, levels, false))
		seg = ceilDiv(seg, f)
	}
	ns += (1 - dup) * n * math.Log2(float64(max(seg, 2))) * p.histNs(keyBits) / 2
	return ns / float64(threads), max(passes, 1)
}
