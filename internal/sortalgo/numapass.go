package sortalgo

import (
	"repro/internal/fault"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pfunc"
)

// numaFirstPass is the NUMA-aware first pass LSB and CMP share (the
// non-in-place layout of Section 3.3.1): each of the topology's C regions
// partitions its own input segment by fn into the same segment of tmp;
// the ranges of fn — runs of 2^rangeBits consecutive partitions, so
// fanout>>rangeBits of them — are grouped into C contiguous runs of
// near-equal tuple count; and one rotated all-to-all shuffle copies every
// partition to its run's region. The output in keys/vals is
// partition-major with each partition's pieces in source-region order, so
// the pass is stable, and every tuple crosses the interconnect at most
// once.
//
// codes, when non-nil, is a len(keys) column that the histogram scan
// fills with each tuple's partition and the scatter reads back, so fn is
// evaluated once per tuple (CMP's cache-resident tree); nil evaluates fn
// in both scans (LSB's register-resident range-radix function).
//
// It returns the global partition starts (fanout+1 offsets from the
// workspace: return them with PutInts) and the C+1 region bounds of the
// output, and counts the pass, its remote bytes and the region bounds in
// opt.Stats. The caller checkpoints and injects its own pass fault site
// before the call.
//
// Interruption never leaves keys anything but a permutation of the input:
// the scans read keys and write tmp, and the shuffle, which overwrites
// keys while tmp still holds every tuple, copies tmp back in its own
// restore handler before the panic re-raises.
func numaFirstPass[K kv.Key, F pfunc.Func[K]](algo string, keys, vals, tmpK, tmpV []K, fn F, codes []int32, rangeBits int, opt Options) (starts, outBounds []int) {
	n := len(keys)
	st, ctl, w, topo := opt.Stats, opt.Ctl, opt.Workspace, opt.Topo
	c := opt.regions()
	tpr := threadsPerRegion(opt)
	inBounds := part.ChunkBounds(n, c)
	np := fn.Fanout()
	regionCodes := func(r int) []int32 {
		if codes == nil {
			return nil
		}
		return codes[inBounds[r]:inBounds[r+1]]
	}

	// Region-local partitioning into the region's own segment of tmp.
	regionHists := make([][][]int, c) // [region][thread][partition], pooled
	regionChunks := make([][]int, c)  // per-region worker bounds, pooled
	pass0 := obs.BeginPassIn(algo, 0, -1)
	timed(st, algo, phHistogram, func() {
		g := hard.NewGroup(ctl)
		for r := 0; r < c; r++ {
			g.Go(func() {
				seg := keys[inBounds[r]:inBounds[r+1]]
				regionHists[r], regionChunks[r] = part.ParallelHistogramsCodes(w, seg, fn, regionCodes(r), tpr, ctl)
			})
		}
		g.Wait()
	})
	timed(st, algo, phPartition, func() {
		g := hard.NewGroup(ctl)
		for r := 0; r < c; r++ {
			g.Go(func() {
				lo, hi := inBounds[r], inBounds[r+1]
				part.ParallelScatter(w, keys[lo:hi], vals[lo:hi], tmpK[lo:hi], tmpV[lo:hi], fn, regionCodes(r), regionHists[r], 0, regionChunks[r], ctl)
			})
		}
		g.Wait()
	})

	// Partition-major global layout. The ranges are grouped into C
	// contiguous runs of near-equal tuple count (range order preserved, so
	// the global order stays a concatenation), and the destination region
	// of partition pid is its range's group.
	perRegion := w.Matrix(c, np) // merged per-region histograms
	for r := 0; r < c; r++ {
		part.MergeHistogramsInto(perRegion[r], regionHists[r])
		w.PutMatrix(regionHists[r])
		w.PutInts(regionChunks[r])
	}
	rangeTotals := make([]int, np>>rangeBits)
	for r := 0; r < c; r++ {
		for pid, h := range perRegion[r] {
			rangeTotals[pid>>rangeBits] += h
		}
	}
	groupOf := groupRanges(rangeTotals, n, c)
	dstOff := w.Matrix(c, np) // dstOff[r][pid]: where region r's piece of pid lands
	starts = w.Ints(np + 1)
	outBounds = make([]int, c+1)
	o, prevGroup := 0, 0
	for pid := 0; pid < np; pid++ {
		starts[pid] = o
		for g := prevGroup + 1; g <= groupOf[pid>>rangeBits]; g++ {
			outBounds[g] = o
		}
		prevGroup = groupOf[pid>>rangeBits]
		for r := 0; r < c; r++ {
			dstOff[r][pid] = o
			o += perRegion[r][pid]
		}
	}
	starts[np] = n
	for g := prevGroup + 1; g <= c; g++ {
		outBounds[g] = n
	}

	ctl.CheckpointNow()
	fault.Inject(fault.SiteShuffleStart)
	timed(st, algo, phShuffle, func() {
		defer restoreKeys(keys, vals, &tmpK, &tmpV)
		numa.RunPerRegion(topo, tpr, func(wk numa.Worker) {
			meter := topo.NewMeter()
			dst := int(wk.Region)
			// Rotate the source order per destination (the all-to-all
			// schedule of [10], Section 3.3): in step s, region r reads
			// from region (r+s) mod C, so no source region is hammered by
			// every destination at once.
			srcStarts := w.Ints(np)
			for s := 0; s < c; s++ {
				src := (dst + s) % c
				part.StartsInto(srcStarts, perRegion[src])
				for pid := 0; pid < np; pid++ {
					// Round-robin partitions among the destination
					// region's threads.
					if groupOf[pid>>rangeBits] != dst || pid%tpr != wk.Index {
						continue
					}
					cnt := perRegion[src][pid]
					if cnt == 0 {
						continue
					}
					// Interrupting between partition copies is safe: tmp
					// stays intact for the restore handler.
					ctl.Checkpoint()
					so := inBounds[src] + srcStarts[pid]
					do := dstOff[src][pid]
					copy(keys[do:do+cnt], tmpK[so:so+cnt])
					copy(vals[do:do+cnt], tmpV[so:so+cnt])
					meter.Record(numa.Region(src), wk.Region, uint64(cnt*2*kv.Width[K]()/8))
				}
			}
			w.PutInts(srcStarts)
			meter.Flush()
		})
	})
	w.PutMatrix(perRegion)
	w.PutMatrix(dstOff)
	pass0.EndN(int64(n))
	addRemoteBytes(topo.RemoteBytes())
	if st != nil {
		st.Passes++
		st.RemoteBytes = topo.RemoteBytes()
		st.RegionBounds = append([]int(nil), outBounds...)
	}
	return starts, outBounds
}

// threadsPerRegion splits opt.Threads across the topology's regions
// (at least 1 each).
func threadsPerRegion(opt Options) int {
	return max(opt.Threads/opt.regions(), 1)
}

// groupRanges assigns each of len(totals) contiguous ranges to one of c
// contiguous groups of near-equal tuple count, by the midpoint rule: a
// range joins the group its center of mass falls in. Monotone by
// construction, so group boundaries preserve range order.
func groupRanges(totals []int, n, c int) []int {
	groupOf := make([]int, len(totals))
	acc := 0
	for rg, tot := range totals {
		g := 0
		if n > 0 {
			g = (acc + tot/2) * c / n
		}
		if g > c-1 {
			g = c - 1
		}
		groupOf[rg] = g
		acc += tot
	}
	return groupOf
}
