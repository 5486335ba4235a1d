// The adaptive planner: the runtime replacement for the static decision
// table of Recommend (Section 6). It prices each candidate algorithm
// with the one sort model, memmodel.Sort, on the profile's calibrated
// projection (Section 3.2's substitution: probe timing ~= measured cost
// factor) and the sampled workload descriptors.

package tune

import (
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
	// points plan the worker count only); empty lets the planner choose.
	Force Algo
	// MaxThreads caps the planned worker count (0: the profile's NumCPU).
	MaxThreads int
	// MaxBytes caps the auxiliary memory a plan may budget for scratch
	// arrays (0: half of the machine's available memory, see
	// DefaultAuxBudget). When LSB's Footprint exceeds the cap, the free
	// algorithm choice takes the in-place MSB instead. It does not move a
	// forced algorithm, nor CMP, which always plans in place.
	MaxBytes int64
}

// Plan is one auto-tuned sort configuration: the planner's output and
// the record (SortStats.Plan) of what an auto-tuned run did. The planner
// decides only what no sort decides for itself, the algorithm and the
// worker count; every sort sizes its own passes from n. Passes and
// PredictedNs are memmodel.Sort's walk of the chosen sort.
type Plan struct {
	// Algo is the chosen algorithm.
	Algo Algo `json:"algo"`
	// Threads is the planned worker count.
	Threads int `json:"threads"`
	// Passes is the predicted partitioning pass count, counted as
	// sortalgo.Stats.Passes counts them: 0 for a sort that stays in one
	// in-cache leaf.
	Passes int `json:"passes"`
	// PredictedNs is the modeled wall-clock of this plan in nanoseconds.
	PredictedNs float64 `json:"predicted_ns"`
	// InPlace records that the plan selects the in-place layout: always
	// true for MSB and CMP, false for LSB. The planner does not see the
	// NUMA topology; a CMP run that engages the NUMA-aware layout still
	// takes a linear tmp pair.
	InPlace bool `json:"in_place"`
	// AuxBytes is the modeled peak auxiliary footprint of the chosen
	// layout in bytes (Footprint).
	AuxBytes int64 `json:"aux_bytes"`
}

// parallelMinN is the input size below which a second worker costs more
// in coordination than it recovers.
const parallelMinN = 1 << 16

// Choose returns the plan for the sampled workload under the given
// requirements: the algorithm and the worker count. Stability forces
// LSB, a tight space budget MSB and heavy skew CMP; otherwise the lower
// of LSB's and MSB's modeled wall-clock (memmodel.Sort on the profile's
// projection, Mem) wins, and MSB sorts in place when LSB's Footprint
// exceeds the budget. It is a pure function of its inputs: the same
// profile, stats, and requirements always produce the same plan.
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
	mem := p.Mem()
	price := func(a Algo) memmodel.SortPhases {
		algo := memmodel.SortLSB
		switch a {
		case AlgoMSB:
			algo = memmodel.SortMSB
		case AlgoCMP:
			algo = memmodel.SortCMP
		}
		return memmodel.Sort(mem, memmodel.SortConfig{Algo: algo, KeyBytes: kb / 8, Threads: threads,
			N: w.N, DomainBits: max(w.DomainBits, 1), PreAllocated: true})
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
			budget := req.MaxBytes
			if budget <= 0 {
				budget = DefaultAuxBudget()
			}
			algo = AlgoLSB
			if price(AlgoMSB).Total() < price(AlgoLSB).Total() || Footprint(AlgoLSB, w.N, kb, threads) > budget {
				// MSB is cheaper, or LSB's tmp pair and tables do not fit
				// and MSB sorts in place.
				algo = AlgoMSB
			}
		}
	}
	ph := price(algo)
	return Plan{
		Algo:        algo,
		Threads:     threads,
		Passes:      ph.Passes,
		PredictedNs: ph.Total() * 1e9,
		InPlace:     algo != AlgoLSB,
		AuxBytes:    Footprint(algo, w.N, kb, threads),
	}
}

// Footprint is the one in-memory footprint model: the peak auxiliary
// bytes of a sort of n tuples of keyBits-bit keys on threads workers,
// every buffer priced at the capacity the arena meters (ws.Capacity) and
// the key span taken as the full width. The planner, PlanSpill's phases
// and sortd's admission charge all read it.
func Footprint(algo Algo, n, keyBits, threads int) int64 {
	w8 := int64(keyBits / 8)
	tuple := 2 * w8                                 // one key + one payload of key width
	bound := memmodel.WorkerCacheBytes / int(tuple) // the sorts' cache bound in tuples
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
		return lsbFootprint(n, keyBits, threads, bound)
	}
}

// lsbFootprint is Footprint's LSB arm for the digits LSB runs on a
// full-width key (memmodel.LSBDigits, in cache within the cache bound of
// bound tuples): the tmp pair and the tables of the widest digit's
// fanout f. One worker, which also runs every in-cache sort, holds every
// digit's histogram row in one flat buffer, and in cache Algorithm 1's
// offsets, out of cache Algorithm 3's starts, cursors and a 64-byte line
// per partition and column. More workers hold per pass a histogram and a
// starts row each, the chunk bounds, the global starts, and every
// worker's lines and cursors.
func lsbFootprint(n, keyBits, threads, bound int) int64 {
	w8 := int64(keyBits / 8)
	inCache := n <= bound
	var plan [part.MaxRadixPasses][2]uint
	digits := memmodel.LSBDigits(plan[:0], keyBits, 0, inCache, 1)
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

// ceilDiv is ceil(a/b) for positive b.
func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}
