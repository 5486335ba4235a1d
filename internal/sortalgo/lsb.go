package sortalgo

import (
	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/splitter"
)

// LSB is the stable least-significant-bit radix-sort of Section 4.2.1,
// NUMA-aware: with a topology of more than one region (Oblivious unset)
// the first pass is the NUMA-aware first pass LSB shares with CMP
// (numaFirstPass), partitioning by a hybrid range-radix function — a
// C-way range split (sampled delimiters, perfect load balance across
// regions regardless of the key distribution) concatenated with low-order
// radix bits — so one shuffle moves every tuple across the NUMA
// interconnect at most once; all later passes are region-local radix
// partitioning. Sorting is stable: payloads of equal keys keep their input
// order.
//
// tmpK/tmpV is the linear auxiliary space (same length as keys); the
// sorted result lands back in keys/vals.
func LSB[K kv.Key](keys, vals, tmpK, tmpV []K, opt Options) {
	opt = opt.withDefaults()
	primePool(opt)
	instrumentWS(opt.Stats, opt.Workspace, "lsb", func() {
		lsbRun(keys, vals, tmpK, tmpV, opt)
	})
}

// lsbRun is LSB after defaults and instrumentation setup.
func lsbRun[K kv.Key](keys, vals, tmpK, tmpV []K, opt Options) {
	n := len(keys)
	if n <= 1 {
		return
	}
	st := opt.Stats
	ctl := opt.Ctl

	domainBits := timedInt(st, "lsb", phHistogram, func() int {
		return kv.DomainBits(keys)
	})

	// The digit plan: one list of bit ranges for the whole sort, so every
	// NUMA region runs the same passes and Stats.Passes counts them once.
	inCache := lsbInCache(opt, n, kv.Width[K]())
	c := opt.regions()
	if c == 1 || opt.Oblivious {
		var planArr [part.MaxRadixPasses][2]uint
		plan := memmodel.LSBDigits(planArr[:0], domainBits, opt.RadixBits, inCache, 1)
		lsbLocalN(keys, vals, tmpK, tmpV, plan, 0, opt, opt.Threads, phLocal, true)
		return
	}

	// Step 1: sample C-1 range delimiters that split the data evenly
	// across the C NUMA regions, then refine duplicates: a key sampled
	// twice or more is skewed enough to unbalance the C-way split, so it
	// gets a single-key range of its own whose tuples can be placed with
	// any region group (Section 5 / [13]). The resulting R >= C ranges are
	// grouped into C contiguous runs of near-equal tuple count after the
	// histograms are known. R is small, so the range part of the hybrid
	// function lives in a register-resident delimiter array (Section
	// 3.5.1), not the cache-resident tree.
	// Oversample to ~4C ranges (the LSB analog of MSB's T+T' trick): finer
	// ranges give the grouping step the granularity to balance regions
	// even when quantile sampling of low-entropy domains wastes splits.
	// The sample holds 64 keys per range.
	rangeTarget := min(4*c, maxRegDelims+1)
	plan := memmodel.LSBDigits(nil, domainBits, opt.RadixBits, inCache, rangeTarget)
	b := int(plan[0][1])
	var fn1 rangeRadix[K]
	timed(st, "lsb", phHistogram, func() {
		ref := splitter.RefineDuplicates(splitter.Delimiters(keys, rangeTarget, 64, opt.Seed))
		delims := ref.Delims
		if len(delims) > maxRegDelims {
			delims = delims[:maxRegDelims]
		}
		fn1 = newRangeRadix(delims, len(delims)+1, pfunc.NewRadix[K](0, uint(b)))
	})

	// Steps 2-3: the shared NUMA-aware first pass partitions each region's
	// segment into tmp by the hybrid function, then shuffles the R ranges
	// (2^b radix partitions each) to their region groups.
	ctl.CheckpointNow()
	fault.Inject(fault.SiteLSBPass)
	starts, outBounds := numaFirstPass("lsb", keys, vals, tmpK, tmpV, fn1, nil, b, opt)
	opt.Workspace.PutInts(starts)

	// Step 4: remaining radix passes, region-local. The regions run
	// concurrently, so the whole step is timed once here (a per-region
	// Stats would race and double-count overlapping wall clock). Regions
	// do not skip trivial digits: one region's histogram cannot show that
	// a digit is trivial everywhere, and every region must run the same
	// passes for Stats.Passes to count the tuples moved.
	regionOpt := opt
	regionOpt.Stats = nil
	rest := plan[1:]
	tpr := threadsPerRegion(opt)
	timed(st, "lsb", phLocal, func() {
		g := hard.NewGroup(ctl)
		for r := 0; r < c; r++ {
			g.Go(func() {
				lo, hi := outBounds[r], outBounds[r+1]
				lsbLocalN(keys[lo:hi], vals[lo:hi], tmpK[lo:hi], tmpV[lo:hi], rest, 1, regionOpt, tpr, phLocal, false)
			})
		}
		g.Wait()
	})
	if st != nil {
		st.Passes += len(rest)
	}
}

// lsbInCache reports whether an n-tuple LSB sort fits the per-worker cache
// budget. Such a sort runs byte-wide digits on one worker and scatters
// with Algorithm 1.
func lsbInCache(opt Options, n, width int) bool {
	return n <= cacheTuples(opt, width)
}

// digitTrivial reports whether the per-worker histograms of one digit put
// all n tuples in a single bucket: the pass is then the identity
// permutation of a stable sort and need not run.
func digitTrivial(hists [][]int, n int) bool {
	for d := range hists[0] {
		s := 0
		for _, h := range hists {
			s += h[d]
		}
		if s != 0 {
			return s == n
		}
	}
	return false
}

// lsbLocalN runs the stable radix passes of ranges over the data
// currently in keys/vals, leaving the result in keys/vals. first is the
// plan ordinal of ranges[0], the pass label; skip lets the drivers drop
// digits whose histogram is trivial. One worker runs lsbSingle: all pass
// histograms in one scan (Section 4.2.1 — radix histograms are
// value-based, so reordering between passes cannot change them). More
// workers run lsbPerPass, which re-scans per-chunk histograms before every
// pass. Both draw their tables from opt.Workspace when one is set and
// allocate them per call otherwise.
//
// A sort that fits in cache runs on one worker whatever threads is, and
// scatters with Algorithm 1 (part.NonInPlaceInCache) instead of the
// line-buffered kernel: at 4096 and 16384 64-bit keys one worker is
// faster than two running lsbPerPass.
func lsbLocalN[K kv.Key](keys, vals, tmpK, tmpV []K, ranges [][2]uint, first int, opt Options, threads int, ph phase, skip bool) {
	n := len(keys)
	if n <= 1 || len(ranges) == 0 {
		return
	}
	inCache := lsbInCache(opt, n, kv.Width[K]())
	if inCache || threads < 1 {
		threads = 1
	}
	r := lsbPasses[K]{srcK: keys, srcV: vals, dstK: tmpK, dstV: tmpV, first: first, opt: opt, ph: ph, skip: skip,
		inCache: inCache}
	defer restoreKeys(keys, vals, &r.srcK, &r.srcV)
	if threads == 1 {
		lsbSingle(&r, ranges)
	} else {
		lsbPerPass(&r, ranges, threads)
	}
	if &r.srcK[0] != &keys[0] {
		timed(opt.Stats, "lsb", ph, func() {
			copy(keys, r.srcK)
			copy(vals, r.srcV)
		})
	}
}

// lsbPasses is the state the LSB pass drivers share: the ping-pong
// between the input and the auxiliary arrays, and how to run a pass. The
// digit ranges travel beside it, not in it: the arrays leak to the heap
// through the kernels, and a field of the struct would drag the caller's
// stack-held plan along.
type lsbPasses[K kv.Key] struct {
	srcK, srcV, dstK, dstV []K // the next pass reads src and writes dst
	first                  int // plan ordinal of the drivers' ranges[0]
	opt                    Options
	ph                     phase
	skip                   bool // drop digits whose histogram is trivial
	inCache                bool // scatter with Algorithm 1
}

// pass runs the scatter of digit i, bits rg, from src to dst between the
// pass's checkpoint, fault site and span, counts it, and swaps src and dst.
func (r *lsbPasses[K]) pass(i int, rg [2]uint, scatter func(sk, sv, dk, dv []K, fn pfunc.Radix[K])) {
	r.opt.Ctl.CheckpointNow()
	fault.Inject(fault.SiteLSBPass)
	fn := pfunc.NewRadix[K](rg[0], rg[1])
	sp := obs.BeginPassIn("lsb", r.first+i, -1)
	timed(r.opt.Stats, "lsb", r.ph, func() {
		scatter(r.srcK, r.srcV, r.dstK, r.dstV, fn)
	})
	sp.EndN(int64(len(r.srcK)))
	if r.opt.Stats != nil {
		r.opt.Stats.Passes++
	}
	r.srcK, r.dstK = r.dstK, r.srcK
	r.srcV, r.dstV = r.dstV, r.srcV
}

// restoreKeys is the deferred restore handler of a step that overwrites
// keys/vals from a source that still holds every tuple: the LSB pass
// drivers (the in-flight scatter's source is untouched) and the NUMA-aware
// first pass's shuffle (tmp is intact). On panic, when *srcK is not keys
// itself, copying the source back makes keys a permutation of the input
// again before the wrapped panic re-raises.
func restoreKeys[K kv.Key](keys, vals []K, srcK, srcV *[]K) {
	e := recover()
	if e == nil {
		return
	}
	if s := *srcK; len(s) > 0 && &s[0] != &keys[0] {
		copy(keys, s)
		copy(vals, *srcV)
	}
	panic(hard.NewPanic(e))
}

// lsbSingle is the single-threaded driver: one histogram scan for all
// passes (accumulated into the flat padded layout so the per-pass rows stay
// cache-set disjoint during the scan), then one scatter per pass, all
// scratch drawn from the workspace. Zero heap allocations in steady state
// with a warm workspace.
func lsbSingle[K kv.Key](r *lsbPasses[K], ranges [][2]uint) {
	n := len(r.srcK)
	w := r.opt.Workspace
	ctl := r.opt.Ctl
	var rowsArr [part.MaxRadixPasses][]int
	rows := rowsArr[:len(ranges)]
	flat := w.Ints(part.MultiHistogramFlatLen(ranges))
	timed(r.opt.Stats, "lsb", phHistogram, func() {
		part.MultiHistogramFlatInto(rows, flat, r.srcK, ranges)
	})
	var starts []int
	if !r.inCache {
		maxP := 0
		for _, row := range rows {
			maxP = max(maxP, len(row))
		}
		starts = w.Ints(maxP)
	}
	for i, row := range rows {
		if r.skip && digitTrivial(rows[i:i+1], n) {
			continue
		}
		r.pass(i, ranges[i], func(sk, sv, dk, dv []K, fn pfunc.Radix[K]) {
			wsp := obs.BeginIn("lsb", "scatter", "worker", 0)
			if r.inCache {
				part.NonInPlaceInCache(w, sk, sv, dk, dv, fn, row, ctl)
			} else {
				part.StartsInto(starts[:len(row)], row)
				part.NonInPlaceOutOfCache(w, sk, sv, dk, dv, fn, starts[:len(row)], ctl)
			}
			wsp.EndN(int64(n))
		})
	}
	w.PutInts(flat)
	w.PutInts(starts)
}

// lsbPerPass is the per-pass parallel driver: per-chunk histograms of the
// current arrangement are recomputed before every scatter (they change as
// the data moves). With a workspace, tables and line buffers are pooled and
// workers run on the persistent pool; without one, behavior matches the
// pre-workspace code (fresh tables, fresh goroutines).
func lsbPerPass[K kv.Key](r *lsbPasses[K], ranges [][2]uint, threads int) {
	n := len(r.srcK)
	w := r.opt.Workspace
	ctl := r.opt.Ctl
	for i, rg := range ranges {
		fn := pfunc.NewRadix[K](rg[0], rg[1])
		var hists [][]int
		var bounds []int
		timed(r.opt.Stats, "lsb", phHistogram, func() {
			hists, bounds = part.ParallelHistograms(w, r.srcK, fn, threads, ctl)
		})
		if !r.skip || !digitTrivial(hists, n) {
			r.pass(i, rg, func(sk, sv, dk, dv []K, fn pfunc.Radix[K]) {
				part.ParallelScatter(w, sk, sv, dk, dv, fn, nil, hists, 0, bounds, ctl)
			})
		}
		w.PutMatrix(hists)
		w.PutInts(bounds)
	}
}

// rangeRadix is the hybrid range-radix partition function of the sorts'
// first pass (Sections 4.2.1/4.2.2), with the small range part held in a
// fixed register-file-sized delimiter array searched by a branch-free
// lane-style count — the register-resident variant of Section 3.5.1. The
// concrete type keeps the hot partitioning loops free of dynamic dispatch.
type rangeRadix[K kv.Key] struct {
	delims [maxRegDelims]K
	nd     int
	rp     int // range fanout
	radix  pfunc.Radix[K]
}

// maxRegDelims bounds the register-resident delimiter set (the paper holds
// 16 delimiters in four SSE registers).
const maxRegDelims = 16

func newRangeRadix[K kv.Key](delims []K, rangeFanout int, radix pfunc.Radix[K]) rangeRadix[K] {
	if len(delims) > maxRegDelims {
		panic("sortalgo: too many register-resident delimiters")
	}
	f := rangeRadix[K]{nd: len(delims), rp: rangeFanout, radix: radix}
	for i := range f.delims {
		f.delims[i] = kv.MaxKey[K]()
	}
	copy(f.delims[:], delims)
	return f
}

func (f rangeRadix[K]) rangeOf(k K) int {
	r := 0
	for i := 0; i < f.nd; i++ {
		if f.delims[i] <= k {
			r++
		}
	}
	if r >= f.rp {
		r = f.rp - 1
	}
	return r
}

// Partition implements pfunc.Func: range result concatenated with the low
// radix bits.
func (f rangeRadix[K]) Partition(k K) int {
	return f.rangeOf(k)*f.radix.Fanout() + f.radix.Partition(k)
}

// Fanout implements pfunc.Func.
func (f rangeRadix[K]) Fanout() int {
	return f.rp * f.radix.Fanout()
}
