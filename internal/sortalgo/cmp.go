package sortalgo

import (
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/rangeidx"
	"repro/internal/splitter"
	"repro/internal/ws"
)

// CMP is the comparison sort of Section 4.3: very few wide-fanout range
// partitioning passes — the range function computed once per tuple
// through the cache-resident index — until segments are cache-resident,
// then an in-place leaf sort. Each pass, the first and every recursive
// one, sizes itself from its own segment of n tuples, as IPS⁴o does
// (Axtmann et al.): its fanout is memmodel.CMPFanout, ⌈4n/ct⌉ capped at
// RangeFanout, so partitions reach the leaf in about one pass; its
// sample is splitter.Oversample(n) keys per partition; its block is
// memmodel.BlockTuples from MSBLocalBlockTuples, so a worker's buffers
// stay cache-sized. The paper's leaf is SIMD comb-sort with
// W-way lane merging (CombSorter); without 128-bit min/max instructions
// that runs as a scalar lane emulation, so the leaf here is Quicksort, a
// branchless-partition introsort.
//
// The first pass is one of two layouts. With a topology of more than one
// region, tmpK/tmpV given and Oblivious unset, it is the NUMA-aware first
// pass CMP shares with LSB (numaFirstPass): regions partition locally
// into tmp through a codes column, so the tree is still evaluated once
// per tuple, and one shuffle moves each tuple across the interconnect at
// most once; tmpK/tmpV are read nowhere else. Otherwise it permutes
// blocks in place (part.BlockPermute) and tmp goes unused.
// Every later range pass is a single-worker block permutation of one
// partition in place, so beyond the NUMA pass's tmp and codes column the
// sort needs only O(threads × fanout × B) scratch. Not stable.
//
// Unlike the radix sorts, CMP's splitters adapt to any distribution:
// sampled delimiters balance the work under skew, and keys sampled twice
// or more get single-key partitions that skip sorting entirely.
func CMP[K kv.Key](keys, vals, tmpK, tmpV []K, opt Options) {
	opt = opt.withDefaults()
	primePool(opt)
	instrumentWS(opt.Stats, opt.Workspace, "cmp", func() {
		cmpRun(keys, vals, tmpK, tmpV, opt)
	})
}

// cmpRun is CMP after defaults and instrumentation setup.
func cmpRun[K kv.Key](keys, vals, tmpK, tmpV []K, opt Options) {
	n := len(keys)
	if n <= 1 {
		return
	}
	st := opt.Stats
	ctl := opt.Ctl
	width := kv.Width[K]()
	ct := cacheTuples(opt, width)

	w := opt.Workspace
	if n <= ct {
		ctl.CheckpointNow()
		fault.Inject(fault.SiteCMPPass)
		timed(st, "cmp", phCache, func() {
			cmpLeaf(keys, vals)
		})
		return
	}

	c := opt.regions()
	t := opt.Threads

	// Pass 1: global splitters, then the block permutation or the
	// region-local partition + shuffle.
	var ref splitter.Refined[K]
	var tree *rangeidx.Tree[K]
	timed(st, "cmp", phHistogram, func() {
		ref, tree = cmpSplitters(keys, opt, ct, opt.Seed)
	})
	fanout := tree.Fanout()

	if tmpK == nil || c == 1 || opt.Oblivious {
		// The first pass fans out in place through the block-permutation
		// kernel: O(threads × fanout × B) scratch, no codes column. The
		// NUMA-aware layout needs tmp (the cross-region shuffle routes
		// through it), so a nil-tmp request runs obliviously regardless of
		// the topology.
		ctl.CheckpointNow()
		fault.Inject(fault.SiteCMPPass)
		pass0 := obs.BeginPassIn("cmp", 0, -1)
		starts := w.Ints(fanout + 1)
		timed(st, "cmp", phPartition, func() {
			part.BlockPermute(w, keys, vals, tree, memmodel.BlockTuples(n, fanout, t, memmodel.MSBLocalBlockTuples), t, starts, nil, ctl)
		})
		pass0.EndN(int64(n))
		cmpRecurseAll(keys, vals, starts, ref.SingleKey, opt, ct)
		w.PutInts(starts)
		if st != nil {
			st.Passes++
		}
		return
	}

	// NUMA-aware: the shared first pass partitions each region's segment
	// into tmp through a codes column, so the tree is evaluated once per
	// tuple, and shuffles every partition to its region group.
	ctl.CheckpointNow()
	fault.Inject(fault.SiteCMPPass)
	codes := w.Int32s(n)
	starts, _ := numaFirstPass("cmp", keys, vals, tmpK, tmpV, tree, codes, 0, opt)
	w.PutInt32s(codes)

	// Recursion: in place on keys (post-shuffle); tmp is no longer read.
	cmpRecurseAll(keys, vals, starts, ref.SingleKey, opt, ct)
	w.PutInts(starts)
}

// cmpWorker is the worker-pool driver of cmpRecurseAll: workers claim
// top-level partitions off an atomic cursor and recurse into each in
// place. Reused via ws.Scratch so a steady-state run allocates no driver
// state.
type cmpWorker[K kv.Key] struct {
	keys, vals []K
	starts     []int
	singleKey  []bool
	opt        Options
	ct         int
	next       atomic.Int64
	tally      cmpTally
}

// cmpTally is what the recursion under one first pass reports: the CPU
// time of its range passes and of its leaves, and the deepest level of
// range passes any partition took.
type cmpTally struct {
	passNs, leafNs, deepest atomic.Int64
}

func (r *cmpWorker[K]) RunTask(wi int) {
	sp := obs.BeginIn("cmp", "cmp-recurse", "worker", wi)
	var done int64
	nq := int64(len(r.starts) - 1)
	for {
		q := r.next.Add(1) - 1
		if q >= nq {
			break
		}
		lo, hi := r.starts[q], r.starts[q+1]
		if hi-lo <= 1 || int(q) < len(r.singleKey) && r.singleKey[q] {
			continue // a lone tuple or a single-key partition: already sorted
		}
		cmpRecurse(r.keys[lo:hi], r.vals[lo:hi], r.opt, r.ct, 1, &r.tally)
		done += int64(hi - lo)
	}
	sp.EndN(done)
}

// cmpRecurseAll distributes the top-level partitions — keys/vals at the
// offsets given by starts — over the worker pool, each sorted in place.
// Leaf and pass CPU time are accumulated separately and the measured wall
// clock of the whole recursion is split proportionally between the
// LocalRadix (range passes) and CacheSort phases. Stats.Passes gains the
// deepest level of range passes below the first pass: the number of
// passes the most-partitioned tuple took.
func cmpRecurseAll[K kv.Key](keys, vals []K, starts []int, singleKey []bool, opt Options, ct int) {
	st := opt.Stats
	w := opt.Workspace
	begin := time.Now()
	r := ws.Scratch[cmpWorker[K]](w, ws.SlotCmpWork)
	r.keys, r.vals = keys, vals
	r.starts, r.singleKey = starts, singleKey
	r.opt, r.ct = opt, ct
	r.next.Store(0)
	r.tally.passNs.Store(0)
	r.tally.leafNs.Store(0)
	r.tally.deepest.Store(0)
	ws.RunWorkersCtl(w, opt.Threads, r, opt.Ctl)
	p, l := r.tally.passNs.Load(), r.tally.leafNs.Load()
	if st != nil {
		st.Passes += int(r.tally.deepest.Load())
	}
	r.keys, r.vals = nil, nil
	r.starts, r.singleKey = nil, nil
	r.opt = Options{}
	ws.PutScratch(w, ws.SlotCmpWork, r)
	st.splitLocal(time.Since(begin), p+l, l)
}

// cmpRecurse sorts one segment in place. A segment above ct runs one
// range pass over freshly sampled splitters (cmpSplitters, sized from the
// segment) as a single-worker block permutation (part.BlockPermute), then
// recurses into each partition that is neither a single-key partition
// nor a lone tuple; a cache-resident segment is a leaf. depth is the
// level such a pass runs at (1 below the first pass). The starts array
// and the kernel's buffers come from the workspace; only the adaptive
// splitter sampling still allocates.
//
// Every interruption point leaves the segment a permutation of its tuples:
// the checkpoint and fault site at entry sit where every ancestor's pass
// has completed, BlockPermute restores its own state before re-raising,
// and the leaf (Quicksort) has no interruption points and only permutes.
func cmpRecurse[K kv.Key](keys, vals []K, opt Options, ct, depth int, tally *cmpTally) {
	opt.Ctl.Checkpoint()
	fault.Inject(fault.SiteCMPPass)
	n := len(keys)
	start := time.Now()
	if n <= ct {
		cmpLeaf(keys, vals)
		tally.leafNs.Add(int64(time.Since(start)))
		return
	}
	storeMax(&tally.deepest, int64(depth))
	w := opt.Workspace
	ref, tree := cmpSplitters(keys, opt, ct, opt.Seed+uint64(n))
	fanout := tree.Fanout()
	starts := part.BlockPermute(w, keys, vals, tree, memmodel.BlockTuples(n, fanout, 1, memmodel.MSBLocalBlockTuples), 1, w.Ints(fanout+1), nil, opt.Ctl)
	tally.passNs.Add(int64(time.Since(start)))
	for q := 0; q < fanout; q++ {
		lo, hi := starts[q], starts[q+1]
		if hi-lo > 1 && !(q < len(ref.SingleKey) && ref.SingleKey[q]) {
			cmpRecurse(keys[lo:hi], vals[lo:hi], opt, ct, depth+1, tally)
		}
	}
	w.PutInts(starts)
}

// cmpSplitters samples the splitters of one range pass over keys at the
// fanout memmodel.CMPFanout sizes from the segment, splitter.Oversample
// keys per partition, isolates keys sampled twice or more in single-key
// partitions, and builds the range index.
func cmpSplitters[K kv.Key](keys []K, opt Options, ct int, seed uint64) (splitter.Refined[K], *rangeidx.Tree[K]) {
	k := memmodel.CMPFanout(len(keys), ct, opt.RangeFanout)
	ref := splitter.RefineDuplicates(splitter.Delimiters(keys, k, splitter.Oversample(len(keys)), seed))
	return ref, rangeidx.NewTreeFor(ref.Delims)
}

// cmpLeaf sorts one cache-resident segment in place and counts it as a
// CMP leaf.
func cmpLeaf[K kv.Key](keys, vals []K) {
	if o := obs.Cur(); o != nil {
		o.Counters.CombSortLeaves.Add(1)
	}
	Quicksort(keys, vals)
}
