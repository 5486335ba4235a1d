package sortalgo

import (
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
	"repro/internal/splitter"
	"repro/internal/ws"
)

// msbInsertionCutoff is the segment size below which MSB recursion falls
// back to insertion sort; the paper generates parts of average size 4-8
// and insertion-sorts them ignoring the remaining radix bits.
const msbInsertionCutoff = 24

// MSB is the fully in-place most-significant-bit radix-sort of Section
// 4.2.2, using a different partitioning variant per memory layer:
//
//  1. With more than one worker, one parallel in-place block permutation
//     (part.BlockPermute: the block partition and block shuffle of
//     Sections 3.2.3, 3.2.4) over one radix digit just below the keys'
//     shared prefix, its width sized from n (memmodel.MSBFirstPass:
//     8 bits at 2^21 64-bit pairs up to 11 at 2^24), so that most inputs
//     reach the in-cache tail after this one shared pass. A sample of 64
//     keys per worker is read as a skew test: when one digit bucket holds
//     more than 1/(T+1) of it, or a topology is set, the pass splits on
//     sampled range delimiters instead, unioned with the boundaries of
//     the top ⌈log2 T⌉ bits and refined so a heavy key gets a single-key
//     partition; that range pass meters cross-region block moves
//     (Section 3.3.2) when a topology is set.
//  2. Shared-nothing recursion per bucket or range: while a segment
//     exceeds the cache, one byte-wide block permutation on the segment's
//     own worker (the same part.BlockPermute kernel, one worker, 128-tuple
//     blocks); below that, Algorithm 1 into a buffer pair of the
//     segment's size (the paper's in-cache choice, Figs. 2-3), whose
//     copy-back insertion-sorts the trivial parts. One worker starts here.
//
// The digits start below the key prefix that every input key shares (the
// highest bit of or ^ and over the keys, found in one scan), not below
// the maximum's bit length, so keys confined to a narrow high range pay
// no pass on their common bits. With Stats set, the time of each
// cache-resident subtree goes to CacheSort and the rest of the
// recursion's to LocalRadix.
//
// MSB is not stable; unlike LSB it covers log n bits instead of log D, so
// it wins on sparse key domains, and it needs no linear auxiliary array:
// its scratch is O(threads × (fanout × B + cache bound)), the first
// pass's buffers shrinking with the block at small n to a quarter of the
// input.
func MSB[K kv.Key](keys, vals []K, opt Options) {
	opt = opt.withDefaults()
	primePool(opt)
	instrumentWS(opt.Stats, opt.Workspace, "msb", func() {
		msbRun(keys, vals, opt)
	})
}

// MSBPairs is MSB on one thread for a caller that already holds a spare
// array: the external sort's bucket, read back as interleaved key/payload
// pairs (pairs holds 2·len(keys) of them). It deinterleaves pairs into
// keys/vals, finding the keys' shared prefix in the same scan, runs the
// first radix pass out of place from keys/vals into the two halves of
// pairs (Algorithm 1, which checkpoints every hard.CkptTuples tuples),
// and copies the parts back, insertion-sorting the trivial ones. That
// pass is not Algorithm 3: its streaming stores would evict the pairs
// buffer that the copy-back reads at once. The larger parts recurse as
// in MSB, their in-cache levels scattering through pairs as well, so the
// sort draws from the workspace only its tables and, for a part that
// skew leaves above the cache bound, a block permutation's buffers.
// pairs is garbage afterwards. Every interruption point leaves keys/vals
// a permutation of the pairs.
func MSBPairs[K kv.Key](pairs, keys, vals []K, opt Options) {
	instrumentWS(opt.Stats, opt.Workspace, "msb", func() {
		msbPairs(pairs, keys, vals, opt)
	})
}

// msbPairs is MSBPairs after instrumentation setup.
func msbPairs[K kv.Key](pairs, keys, vals []K, opt Options) {
	n := len(keys)
	hiBit := deinterleaveSpan(pairs, keys, vals)
	opt.Ctl.Checkpoint()
	fault.Inject(fault.SiteMSBRecurse)
	if n <= msbInsertionCutoff {
		InsertionSort(keys, vals)
		return
	}
	if hiBit == 0 {
		return // all keys equal
	}
	ct := cacheTuples(opt, kv.Width[K]())
	tail := msbTail[K]{keys: pairs[:n], vals: pairs[n : 2*n]}
	msbScatterBack(opt.Workspace, &tail, keys, vals, tail.keys, tail.vals, hiBit, msbDigitBits(n, hiBit, ct), ct, opt.Ctl)
}

// deinterleaveSpan splits pairs (k0 v0 k1 v1 ...) into keys/vals and
// returns kv.SpanBits of the keys, computed in the same scan.
func deinterleaveSpan[K kv.Key](pairs, keys, vals []K) int {
	if len(keys) == 0 {
		return 0
	}
	pairs, vals = pairs[:2*len(keys)], vals[:len(keys)]
	var or K
	and := ^K(0)
	for i := range keys {
		k := pairs[2*i]
		keys[i], vals[i] = k, pairs[2*i+1]
		or |= k
		and &= k
	}
	return bits.Len64(uint64(or ^ and))
}

// msbRun is MSB after defaults and instrumentation setup: one worker
// recurses from the top; more run the shared first pass over the digit
// and block of memmodel.MSBFirstPass, or over the sampled range split
// when a topology is set or msbSkewed fires, and then recurse per
// segment on a worker pool.
func msbRun[K kv.Key](keys, vals []K, opt Options) {
	n := len(keys)
	if n <= 1 {
		return
	}
	st := opt.Stats
	ctl := opt.Ctl
	width := kv.Width[K]()

	// No restore handler: keys stays a permutation of the input at every
	// interruption point — part.BlockPermute restores its own mid-kernel
	// state, and recursion checkpoints sit where in-place steps completed.
	span := timedInt(st, "msb", phHistogram, func() int {
		return kv.SpanBits(keys)
	})

	t := opt.Threads
	ct := cacheTuples(opt, width)
	if t == 1 && opt.regions() == 1 {
		tail := msbTail[K]{timed: st != nil}
		begin := time.Now()
		timed(nil, "msb", phLocal, func() {
			msbEnter(opt.Workspace, &tail, keys, vals, span, ct, ctl)
		})
		wall := time.Since(begin)
		st.splitLocal(wall, int64(wall), tail.cacheNs)
		if st != nil {
			st.Passes += tail.deepest
		}
		return
	}

	if span == 0 {
		return // all keys equal
	}

	// Step 1: one parallel block permutation over a radix digit sized from
	// n, unless a topology asks for metered region moves or the sample
	// finds a digit bucket too heavy for the other workers to help with;
	// then the range split.
	topo := opt.Topo
	if opt.Oblivious {
		topo = nil
	}
	digit, block := memmodel.MSBFirstPass(n, span, ct, t)
	var ref splitter.Refined[K]
	var tree *rangeidx.Tree[K]
	topBits := max(bits.Len(uint(t-1)), 1) // ceil(log2(T)), >= 1
	timed(st, "msb", phHistogram, func() {
		sample := splitter.Draw(keys, min(msbSamplePerThread*t, n), opt.Seed)
		if topo == nil && !msbSkewed(sample, span-digit, t) {
			return
		}
		splitter.Count(len(sample))
		sampled := splitter.EqualDepth(sample, msbRangesPerThread*t)
		ref = splitter.RefineDuplicates(splitter.Union(sampled, splitter.RadixBoundaries[K](topBits)))
		tree = rangeidx.NewTreeFor(ref.Delims)
	})

	// Fan the keys out into contiguous segments in O(threads × fanout × B)
	// scratch. A radix bucket's keys share the bits from span-digit up. A
	// range lies inside one top-bits bucket (the union with the radix
	// boundaries), and every key shares the bits from span up, so a
	// range's keys share the bits above both.
	w := opt.Workspace
	pass0 := obs.BeginPassIn("msb", 0, -1)
	var starts []int
	var hiBit int
	if tree == nil {
		fn := pfunc.NewRadix[K](uint(span-digit), uint(span))
		starts = w.Ints(fn.Fanout() + 1)
		timed(st, "msb", phPartition, func() {
			part.BlockPermute(w, keys, vals, fn, block, t, starts, nil, ctl)
		})
		hiBit = span - digit
	} else {
		starts = w.Ints(tree.Fanout() + 1)
		block = memmodel.BlockTuples(n, tree.Fanout(), t, memmodel.MSBLocalBlockTuples)
		timed(st, "msb", phPartition, func() {
			part.BlockPermute(w, keys, vals, tree, block, t, starts, topo, ctl)
		})
		hiBit = min(width-topBits, span)
	}
	pass0.EndN(int64(n))
	if st != nil {
		st.Passes++
	}
	if topo != nil {
		addRemoteBytes(topo.RemoteBytes())
		if st != nil {
			st.RemoteBytes = topo.RemoteBytes()
		}
	}

	// Step 2: shared-nothing recursion per segment over the bits below
	// hiBit.
	r := ws.Scratch[msbWorker[K]](w, ws.SlotMsbWork)
	r.w, r.keys, r.vals = w, keys, vals
	r.starts, r.singleKey = starts, ref.SingleKey
	r.hiBit, r.ct, r.nq = hiBit, ct, len(starts)-1
	r.ctl, r.timed = ctl, st != nil
	r.next.Store(0)
	r.busyNs.Store(0)
	r.cacheNs.Store(0)
	r.deepest.Store(0)
	begin := time.Now()
	timed(nil, "msb", phLocal, func() {
		ws.RunWorkersCtl(w, t, r, ctl)
	})
	st.splitLocal(time.Since(begin), r.busyNs.Load(), r.cacheNs.Load())
	if st != nil {
		st.Passes += int(r.deepest.Load())
	}
	r.w, r.keys, r.vals, r.starts, r.singleKey = nil, nil, nil, nil, nil
	r.ctl = nil
	ws.PutScratch(w, ws.SlotMsbWork, r)
	w.PutInts(starts)
}

// msbWorker is the worker-pool driver of MSB's shared-nothing recursion:
// workers claim ranges off an atomic cursor (dynamic balancing without a
// work channel) and recurse independently. With timed set, each worker
// adds its busy time and the part of it spent in cache-resident subtrees.
// deepest is the most local passes any worker's recursion stacked.
type msbWorker[K kv.Key] struct {
	w               *ws.Workspace
	keys, vals      []K
	starts          []int
	singleKey       []bool
	hiBit, ct       int
	nq              int
	ctl             *hard.Ctl
	timed           bool
	next            atomic.Int64
	busyNs, cacheNs atomic.Int64
	deepest         atomic.Int64
}

func (r *msbWorker[K]) RunTask(wi int) {
	sp := obs.BeginIn("msb", "msb-recurse", "worker", wi)
	var begin time.Time
	if r.timed {
		begin = time.Now()
	}
	var done int64
	tail := msbTail[K]{timed: r.timed}
	for {
		q := int(r.next.Add(1) - 1)
		if q >= r.nq {
			break
		}
		seg := r.starts[q+1] - r.starts[q]
		if seg <= 1 {
			continue
		}
		if q < len(r.singleKey) && r.singleKey[q] {
			continue // single-key partition: already sorted
		}
		msbEnter(r.w, &tail, r.keys[r.starts[q]:r.starts[q+1]], r.vals[r.starts[q]:r.starts[q+1]], r.hiBit, r.ct, r.ctl)
		done += int64(seg)
	}
	if r.timed {
		r.busyNs.Add(int64(time.Since(begin)))
		r.cacheNs.Add(tail.cacheNs)
	}
	storeMax(&r.deepest, int64(tail.deepest))
	sp.EndN(done)
}

// The first pass's sample: msbSamplePerThread keys per worker, read as a
// skew test (msbSkewed) and, when it sends the pass to the range split,
// cut into msbRangesPerThread ranges per worker — 16 sample keys a range,
// so a key that trips the skew test (over 1/(T+1) of the sample, at least
// 33 keys) fills two delimiter slots and gets a single-key partition.
const (
	msbSamplePerThread = 64
	msbRangesPerThread = 4
)

// msbSkewed sorts the sample and reports whether one bucket of the first
// pass's radix digit (the key bits from shift up; every key shares those
// above the digit) holds more than 1/(t+1) of it: a bucket near one
// worker's share, whose recursion the other workers could not help with.
// A heavy key trips it too, since it fills its own bucket.
func msbSkewed[K kv.Key](sample []K, shift, t int) bool {
	slices.Sort(sample)
	run := 0
	for i, k := range sample {
		if i > 0 && k>>shift == sample[i-1]>>shift {
			run++
		} else {
			run = 1
		}
		if run*(t+1) > len(sample) {
			return true
		}
	}
	return false
}

// cacheTuples returns the per-worker cache-resident segment size in
// tuples (memmodel.WorkerCacheBytes of pairs unless overridden).
func cacheTuples(opt Options, width int) int {
	if opt.CacheTuples > 0 {
		return opt.CacheTuples
	}
	return memmodel.WorkerCacheBytes / (2 * width / 8)
}

// msbDigitBits is the digit width of an MSB pass over n tuples whose
// keys differ only below hiBit: a byte above the cache bound cacheT, and
// ~log n - 2 bits in cache, which makes parts of average size 4-8.
func msbDigitBits(n, hiBit, cacheT int) int {
	if n > cacheT {
		return min(hiBit, memmodel.MSBLocalBits)
	}
	return min(hiBit, max(1, bits.Len(uint(n))-3))
}

// msbEnter is msbRecurse for a segment entered from above the cache
// bound: from the top of the sort, a first-pass range, or a local pass
// over a larger segment. When the tail is timed and the segment is
// cache-resident, the time of its whole subtree goes to the tail's
// cacheNs, so each in-cache subtree is timed once.
func msbEnter[K kv.Key](w *ws.Workspace, tail *msbTail[K], keys, vals []K, hiBit, cacheT int, ctl *hard.Ctl) {
	if !tail.timed || len(keys) > cacheT {
		msbRecurse(w, tail, keys, vals, hiBit, cacheT, ctl)
		return
	}
	begin := time.Now()
	msbRecurse(w, tail, keys, vals, hiBit, cacheT, ctl)
	tail.cacheNs += int64(time.Since(begin))
}

// msbRecurse sorts one segment in place by MSB radix partitioning over the
// bit range [0, hiBit), drawing per-level starts arrays (and the block
// permutation's buffers) from the workspace. Segments above cacheT run one
// single-worker block permutation (part.BlockPermute) over a byte-wide
// digit, whose classify phase also derives the histogram; its buffer
// blocks (256 × 128 tuples, 512 KiB for 64-bit pairs) are the recursion's
// largest scratch. A cache-resident segment of n tuples takes one
// out-of-place level (msbScatterBack) through the tail's buffer pair of n
// tuples. Every interruption point keeps the arrays a permutation of the
// input: the checkpoint and fault site at recursion entry sit where every
// ancestor's partition (the in-cache copy-back included) has completed,
// and BlockPermute checkpoints mid-kernel and restores its own state
// before re-raising.
func msbRecurse[K kv.Key](w *ws.Workspace, tail *msbTail[K], keys, vals []K, hiBit, cacheT int, ctl *hard.Ctl) {
	ctl.Checkpoint()
	fault.Inject(fault.SiteMSBRecurse)
	n := len(keys)
	if n <= msbInsertionCutoff {
		InsertionSort(keys, vals)
		return
	}
	if hiBit <= 0 {
		return // all radix bits consumed: keys are equal
	}
	b := msbDigitBits(n, hiBit, cacheT)
	if n > cacheT {
		fn := pfunc.NewRadix[K](uint(hiBit-b), uint(hiBit))
		starts := part.BlockPermute(w, keys, vals, fn, memmodel.MSBLocalBlockTuples, 1, w.Ints(fn.Fanout()+1), nil, ctl)
		tail.depth++
		tail.deepest = max(tail.deepest, tail.depth)
		for p := 0; p < fn.Fanout(); p++ {
			if lo, hi := starts[p], starts[p+1]; hi-lo > 1 {
				msbEnter(w, tail, keys[lo:hi], vals[lo:hi], hiBit-b, cacheT, ctl)
			}
		}
		tail.depth--
		w.PutInts(starts)
		return
	}
	bufK, bufV := tail.get(w, n, cacheT)
	msbScatterBack(w, tail, keys, vals, bufK, bufV, hiBit, b, cacheT, ctl)
}

// msbScatterBack runs one out-of-place level over the b bits below hiBit:
// a histogram scan, a scatter of keys/vals into bufK/bufV with Algorithm
// 1 (it checkpoints every hard.CkptTuples tuples and leaves keys/vals
// intact until it returns), and a copy-back that insertion-sorts each
// part of at most msbInsertionCutoff tuples into place and copies larger
// ones verbatim. No interruption point lies between the scatter's end
// and the last part's copy-back. The buffers then go back to the tail,
// and the larger parts recurse.
func msbScatterBack[K kv.Key](w *ws.Workspace, tail *msbTail[K], keys, vals, bufK, bufV []K, hiBit, b, cacheT int, ctl *hard.Ctl) {
	fn := pfunc.NewRadix[K](uint(hiBit-b), uint(hiBit))
	hist := part.HistogramInto(w.Ints(fn.Fanout()), keys, fn)
	part.NonInPlaceInCache(w, keys, vals, bufK, bufV, fn, hist, ctl)
	lo := 0
	for _, h := range hist {
		hi := lo + h
		if h <= msbInsertionCutoff {
			insertionSortFrom(keys[lo:hi], vals[lo:hi], bufK[lo:hi], bufV[lo:hi])
		} else {
			copy(keys[lo:hi], bufK[lo:hi])
			copy(vals[lo:hi], bufV[lo:hi])
		}
		lo = hi
	}
	tail.put(w, bufK, bufV)
	lo = 0
	for _, h := range hist {
		if h > msbInsertionCutoff {
			msbRecurse(w, tail, keys[lo:lo+h], vals[lo:lo+h], hiBit-b, cacheT, ctl)
		}
		lo += h
	}
	w.PutInts(hist)
}

// msbTail is one worker's in-cache buffer pair, the depth of its local
// passes (depth now, deepest so far) and, when its sort keeps Stats
// (timed), the time its cache-resident subtrees took. A tail that
// starts out holding a pair (MSBPairs's spare array) serves every
// segment from it. Otherwise, with a workspace each segment draws the
// pair from the arena and returns it, so the ledger sees it; without one
// the pair is kept here, grown geometrically up to the cache bound and
// resliced for every later segment, instead of two allocations per
// segment. A segment puts its pair back before recursing, so one pair
// serves the worker's whole recursion.
type msbTail[K kv.Key] struct {
	keys, vals     []K
	depth, deepest int
	timed          bool
	cacheNs        int64
}

// get returns a key and a payload buffer of n ≤ cacheT tuples.
func (t *msbTail[K]) get(w *ws.Workspace, n, cacheT int) ([]K, []K) {
	if cap(t.keys) < n {
		if w != nil {
			return ws.Keys[K](w, n), ws.Keys[K](w, n)
		}
		c := min(max(n, 2*cap(t.keys)), cacheT)
		t.keys, t.vals = make([]K, c), make([]K, c)
	}
	return t.keys[:n], t.vals[:n]
}

// put releases a pair obtained from get: arena buffers go back, the
// tail's own pair stays.
func (t *msbTail[K]) put(w *ws.Workspace, bufK, bufV []K) {
	if t.keys == nil {
		ws.PutKeys(w, bufK)
		ws.PutKeys(w, bufV)
	}
}

// insertionSortFrom insertion-sorts the pairs of srcK/srcV into
// dstK/dstV, which have the same length: each source tuple is carried up
// through the sorted prefix of dst, so the copy and the sort are one pass.
// The carry runs the whole prefix instead of stopping at the insertion
// point; its compare-exchange compiles to conditional moves, and on the
// 4-8 tuple parts of random keys this beats the early exit, whose branch
// mispredicts about once per tuple.
func insertionSortFrom[K kv.Key](dstK, dstV, srcK, srcV []K) {
	n := len(srcK)
	dstK, dstV, srcV = dstK[:n], dstV[:n], srcV[:n]
	for i, k := range srcK {
		v := srcV[i]
		for j := range i {
			a, av := dstK[j], dstV[j]
			if a > k {
				a, k = k, a
				av, v = v, av
			}
			dstK[j], dstV[j] = a, av
		}
		dstK[i], dstV[i] = k, v
	}
}
