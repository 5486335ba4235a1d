package part

import (
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// NonInPlaceInCache is Algorithm 1: the simplest partitioning loop, two
// random accesses per tuple (offset array and output). It is the variant of
// choice when the working set — output plus offsets — fits in the cache.
// hist must be the histogram of keys under fn. The output is stable: tuples
// keep their input order within each partition. The offset array comes
// from w.
//
// The scatter runs in hard.CkptTuples sub-chunks with a checkpoint of ctl
// between them (the offsets persist across sub-chunks), so an in-cache
// scatter of at most that many tuples, MSB's tail, pays no checkpoint of
// its own. Interruption leaves the source intact, only the destination
// partially written.
func NonInPlaceInCache[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, hist []int, ctl *hard.Ctl) {
	CheckHistogram(hist, len(srcK))
	offset, _ := StartsInto(w.Ints(len(hist)), hist)
	shift, mask, radix := radixParams[K](fn)
	for c := 0; c < len(srcK); c += hard.CkptTuples {
		if c > 0 {
			ctl.Checkpoint()
		}
		e := min(c+hard.CkptTuples, len(srcK))
		if radix {
			inCacheScatterRadix(srcK[c:e], srcV[c:e], dstK, dstV, shift, mask, offset)
		} else {
			inCacheScatter(srcK[c:e], srcV[c:e], dstK, dstV, fn, offset)
		}
	}
	w.PutInts(offset)
	publishTuples(len(srcK))
}

// inCacheScatter is the generic Algorithm 1 loop, the scalar reference of
// inCacheScatterRadix (kernels.go).
func inCacheScatter[K kv.Key, F pfunc.Func[K]](srcK, srcV, dstK, dstV []K, fn F, offset []int) {
	srcV = srcV[:len(srcK)]
	for i, k := range srcK {
		p := fn.Partition(k)
		o := offset[p]
		offset[p] = o + 1
		dstK[o] = k
		dstV[o] = srcV[i]
	}
}

// publishTuples credits tuples moved by an unbuffered kernel to the obs
// counters.
func publishTuples(tuples int) {
	if o := obs.Cur(); o != nil {
		o.Counters.TuplesPartitioned.Add(uint64(tuples))
	}
}

// InPlaceInCacheLowHigh is the low-to-high swap-cycle formulation the
// paper attributes to Albutiu et al. [1] (Section 3.1): cycles start by
// reading a location and swap until the cycle returns to the start to
// write back, closing 1/P of the time via an explicit per-swap branch.
// Kept as the baseline Algorithm 2's branch-free high-to-low formulation
// improves on; results agree (same partition segments, different
// within-partition orders).
func InPlaceInCacheLowHigh[K kv.Key, F pfunc.Func[K]](keys, vals []K, fn F, hist []int) {
	CheckHistogram(hist, len(keys))
	p := len(hist)
	next := make([]int, p) // ascending write cursor per partition
	base := make([]int, p)
	o := 0
	for q := 0; q < p; q++ {
		base[q] = o
		next[q] = o
		o += hist[q]
	}
	for q := 0; q < p; q++ {
		end := base[q] + hist[q]
		for next[q] < end {
			i := next[q]
			// Swap the tuple at i onward until one belonging to q lands
			// here — the per-tuple branch the high-to-low variant avoids.
			for fn.Partition(keys[i]) != q {
				d := fn.Partition(keys[i])
				j := next[d]
				next[d]++
				keys[i], keys[j] = keys[j], keys[i]
				vals[i], vals[j] = vals[j], vals[i]
			}
			next[q]++
		}
	}
	publishTuples(len(keys))
}

// InPlaceInCache is Algorithm 2: in-place partitioning by swap cycles,
// writing partitions high-to-low so that cycles close exactly when a
// partition's last (lowest) slot is filled — no per-tuple branch on the
// cycle head. Each tuple is moved exactly once. The result is not stable.
// The cursor array comes from w.
func InPlaceInCache[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys, vals []K, fn F, hist []int) {
	CheckHistogram(hist, len(keys))
	if shift, mask, ok := radixParams[K](fn); ok {
		offset := w.Ints(len(hist))
		inPlaceInCacheRadix(keys, vals, shift, mask, hist, offset)
		w.PutInts(offset)
		return
	}
	p := len(hist) // number of partitions
	// offset[q] points one past the next write slot of partition q
	// (descending); when offset[q] reaches the partition base, q is done.
	offset := w.Ints(p)
	i := 0
	for q := 0; q < p; q++ {
		i += hist[q]
		offset[q] = i
	}
	q := 0
	iend := 0 // base of the first incomplete partition: the next cycle head
	var cycles uint64
	for q < p && hist[q] == 0 {
		q++
	}
	for q < p {
		cycles++
		// Start a swap cycle by lifting the tuple at the cycle head. The
		// head slot (the base of partition q) is written last for q, so it
		// still holds an unplaced tuple.
		tk, tv := keys[iend], vals[iend]
		for {
			d := fn.Partition(tk)
			offset[d]--
			j := offset[d]
			keys[j], tk = tk, keys[j]
			vals[j], tv = tv, vals[j]
			if j == iend {
				break // cycle closed: partition q fully placed
			}
		}
		// Advance the head past completed (or empty) partitions.
		iend += hist[q]
		q++
		for q < p && (hist[q] == 0 || offset[q] == iend) {
			iend += hist[q]
			q++
		}
	}
	w.PutInts(offset)
	if o := obs.Cur(); o != nil {
		o.Counters.TuplesPartitioned.Add(uint64(len(keys)))
		o.Counters.SwapCycles.Add(cycles)
	}
}
