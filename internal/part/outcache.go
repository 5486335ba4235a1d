package part

import (
	"unsafe"

	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// LineTuples returns L, the number of K-sized tuples per simulated cache
// line (64 bytes): 16 for 32-bit keys, 8 for 64-bit keys. Out-of-cache
// variants buffer L tuples per partition per column and write them back a
// full line at a time, the software write-combining of Section 3.2.1.
//
// Algorithm 3 writes each full line back with non-temporal stores
// (streamLine: MOVNTI on amd64, stream_amd64.s), as the paper does, so an
// output line is never read for ownership before it is overwritten; a
// plain copy stands in on other architectures and under the race
// detector. Algorithm 4 (InPlaceOutOfCache) reloads the lines it flushes,
// so its flushes stay cached copies.
func LineTuples[K kv.Key]() int {
	return 64 / (kv.Width[K]() / 8)
}

// lineBuffers is the per-partition staging area of the out-of-cache
// variants: one line of keys and one line of payloads per partition, laid
// out flat so partition p's lines are contiguous. The buffers come from the
// workspace arena when one is present; contents start undefined — every
// slot is written before it is flushed, so no clearing is needed.
type lineBuffers[K kv.Key] struct {
	l       int
	keys    []K
	vals    []K
	flushes uint64 // line write-backs, published to obs by the caller
}

func newLineBuffers[K kv.Key](w *ws.Workspace, p int) lineBuffers[K] {
	l := LineTuples[K]()
	return lineBuffers[K]{l: l, keys: ws.Keys[K](w, p*l), vals: ws.Keys[K](w, p*l)}
}

func (b *lineBuffers[K]) release(w *ws.Workspace) {
	ws.PutKeys(w, b.keys)
	ws.PutKeys(w, b.vals)
}

// share returns part t of a buffer set acquired for several callers of p
// partitions each, laid out caller-major: parallel drivers acquire every
// worker's line buffers in one piece before the fan-out.
func (b *lineBuffers[K]) share(t, p int) lineBuffers[K] {
	n := p * b.l
	return lineBuffers[K]{l: b.l, keys: b.keys[t*n : (t+1)*n], vals: b.vals[t*n : (t+1)*n]}
}

// NonInPlaceOutOfCache is Algorithm 3: non-in-place partitioning through
// per-partition cache-line buffers. Tuples accumulate in a partition's
// line; when the line boundary is crossed, the full line is written to the
// output in one sequential burst. TLB misses therefore occur on 1/L of the
// tuples instead of every tuple, and the partitioning fanout is bounded by
// the number of cache lines in the core-private cache rather than by TLB
// entries.
//
// starts[p] is the output offset where this caller's share of partition p
// begins; flushes are clipped to starts[p] so parallel callers writing
// disjoint shares of a shared output never touch each other's slots.
// The output is stable within each caller's share. The line buffers and
// write cursors come from w.
//
// The scatter runs in hard.CkptTuples sub-chunks with a checkpoint of ctl
// between them (the write cursors and line buffers persist across
// sub-chunks, so the output does not depend on the chunking), bounding
// cancellation latency to one sub-chunk. Interruption leaves the source
// intact — only the destination share is partially written — so the
// driver's restore defer can recover the permutation from src. Full lines
// go out as streaming stores, fenced before the call returns or unwinds.
//
// Layout note: the paper stores each partition's output offset in the last
// buffer slot so one iteration touches exactly one cache line; here
// offsets live in a separate (cache-resident) array, because without
// hardware cache control the trick buys nothing — the memmodel prices the
// one-line-per-iteration layout when modeling the paper platform.
func NonInPlaceOutOfCache[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, srcK, srcV, dstK, dstV []K, fn F, starts []int, ctl *hard.Ctl) {
	p := fn.Fanout()
	buf := newLineBuffers[K](w, p)
	off := w.Ints(p)
	scatterChunk(srcK, srcV, dstK, dstV, fn, &buf, off, starts, ctl)
	buf.release(w)
	w.PutInts(off)
}

// scatterChunk is the body of NonInPlaceOutOfCache on caller-provided line
// buffers and write cursors (len(off) partitions). It fences its
// streaming stores before it returns, on the unwind path too: the worker
// that issued them is the one that must fence.
func scatterChunk[K kv.Key, F pfunc.Func[K]](srcK, srcV, dstK, dstV []K, fn F, buf *lineBuffers[K], off, starts []int, ctl *hard.Ctl) {
	defer storeFence()
	copy(off, starts[:len(off)])
	for c := 0; c < len(srcK); c += hard.CkptTuples {
		ctl.Checkpoint()
		e := min(c+hard.CkptTuples, len(srcK))
		scatterLines(srcK[c:e], srcV[c:e], dstK, dstV, fn, buf, off, starts)
	}
	drainBuffers(buf, dstK, dstV, off, starts)
	publishScatter(len(srcK), buf.flushes)
}

// scatterLines is the buffered scatter inner loop: radix functions take the
// specialized kernel (kernels.go), everything else the generic reference
// below.
func scatterLines[K kv.Key, F pfunc.Func[K]](srcK, srcV, dstK, dstV []K, fn F, buf *lineBuffers[K], off, starts []int) {
	if shift, mask, ok := radixParams[K](fn); ok {
		scatterLinesRadix(srcK, srcV, dstK, dstV, shift, mask, buf, off, starts)
		return
	}
	scatterLinesGeneric(srcK, srcV, dstK, dstV, fn, buf, off, starts)
}

// scatterLinesGeneric is the scalar reference scatter loop, structured for
// bounds-check elimination: the payload column is re-sliced to the key
// column's length so srcV[i] piggybacks on the range check, the buffer
// columns live in locals, and the in-line slot index o&(l-1) is provably
// below l (verify with: go build -gcflags='-d=ssa/check_bce' ./internal/part).
func scatterLinesGeneric[K kv.Key, F pfunc.Func[K]](srcK, srcV, dstK, dstV []K, fn F, buf *lineBuffers[K], off, starts []int) {
	if len(srcK) == 0 {
		return
	}
	l := buf.l
	bufK, bufV := buf.keys, buf.vals
	srcV = srcV[:len(srcK)]
	var flushes uint64
	for i, k := range srcK {
		v := srcV[i]
		p := fn.Partition(k)
		o := off[p]
		s := o & (l - 1)
		bi := p*l + s
		bufK[bi] = k
		bufV[bi] = v
		off[p] = o + 1
		if s == l-1 {
			flushLineAt(bufK, bufV, dstK, dstV, starts, p, o, l)
			flushes++
		}
	}
	buf.flushes += flushes
}

// flushLineAt writes partition p's full line ending at offset o (inclusive)
// to the output: streamed when the caller's share holds all of it, else
// clipped at the caller's own start by a copy, so the first (unaligned)
// line never writes below its share.
func flushLineAt[K kv.Key](bufK, bufV, dstK, dstV []K, starts []int, p, o, l int) {
	lo := o + 1 - l
	if lo >= starts[p] {
		b := p * l
		streamCol(dstK[lo:o+1], bufK[b:b+l])
		streamCol(dstV[lo:o+1], bufV[b:b+l])
		return
	}
	lo = starts[p]
	bs := lo & (l - 1)
	copy(dstK[lo:o+1], bufK[p*l+bs:p*l+l])
	copy(dstV[lo:o+1], bufV[p*l+bs:p*l+l])
}

// streamCol writes one full line of a column with streamLine. dst and src
// are one line each, LineTuples elements or 64 bytes: the callers' slice
// expressions bound the destination line, so the stores stay inside the
// column.
func streamCol[K kv.Key](dst, src []K) {
	streamLine(unsafe.Pointer(unsafe.SliceData(dst)), unsafe.Pointer(unsafe.SliceData(src)))
}

// publishScatter credits one buffered scatter call to the obs counters;
// a single pointer load plus two atomic adds when enabled, a nil check
// when not.
func publishScatter(tuples int, flushes uint64) {
	if o := obs.Cur(); o != nil {
		o.Counters.TuplesPartitioned.Add(uint64(tuples))
		o.Counters.BufferFlushes.Add(flushes)
	}
}

// scatterChunkCodes is scatterChunk driven by precomputed partition codes:
// the data-movement half of wide-fanout range partitioning
// (ParallelScatter with a codes column). It performs almost as fast as radix
// partitioning because scanning the short code array is sequential
// (Section 4.3.2). Like scatterChunk, it fences its streaming stores
// before it returns or unwinds.
func scatterChunkCodes[K kv.Key](srcK, srcV, dstK, dstV []K, codes []int32, buf *lineBuffers[K], off, starts []int, ctl *hard.Ctl) {
	defer storeFence()
	copy(off, starts[:len(off)])
	for c := 0; c < len(srcK); c += hard.CkptTuples {
		ctl.Checkpoint()
		e := min(c+hard.CkptTuples, len(srcK))
		scatterLinesCodesFast(srcK[c:e], srcV[c:e], dstK, dstV, codes[c:e], buf, off, starts)
	}
	drainBuffers(buf, dstK, dstV, off, starts)
	publishScatter(len(srcK), buf.flushes)
}

// scatterLinesCodes is scatterLines driven by the code array instead of the
// partition function: the scalar reference of scatterLinesCodesFast
// (kernels.go), which the drivers dispatch to; kernels_test.go asserts the
// two agree bit for bit.
func scatterLinesCodes[K kv.Key](srcK, srcV, dstK, dstV []K, codes []int32, buf *lineBuffers[K], off, starts []int) {
	if len(srcK) == 0 {
		return
	}
	l := buf.l
	bufK, bufV := buf.keys, buf.vals
	srcV = srcV[:len(srcK)]
	codes = codes[:len(srcK)]
	var flushes uint64
	for i, k := range srcK {
		v := srcV[i]
		p := int(codes[i])
		o := off[p]
		s := o & (l - 1)
		bi := p*l + s
		bufK[bi] = k
		bufV[bi] = v
		off[p] = o + 1
		if s == l-1 {
			flushLineAt(bufK, bufV, dstK, dstV, starts, p, o, l)
			flushes++
		}
	}
	buf.flushes += flushes
}

// drainBuffers flushes every partition's final partial line. Runs once per
// scatter call; the buffer columns are hoisted out of the loop so the
// per-partition work is two straight copies.
func drainBuffers[K kv.Key](buf *lineBuffers[K], dstK, dstV []K, off, starts []int) {
	l := buf.l
	bufK, bufV := buf.keys, buf.vals
	var flushes uint64
	for p := range off {
		o := off[p]
		lo := o &^ (l - 1) // start of the (partial) current line
		if lo < starts[p] {
			lo = starts[p]
		}
		if lo >= o {
			continue // line already flushed (or partition empty)
		}
		bs := lo & (l - 1)
		copy(dstK[lo:o], bufK[p*l+bs:p*l+bs+(o-lo)])
		copy(dstV[lo:o], bufV[p*l+bs:p*l+bs+(o-lo)])
		flushes++
	}
	buf.flushes += flushes
}

// InPlaceOutOfCache is Algorithm 4: in-place partitioning with the swap
// cycles of Algorithm 2, but all swaps happen inside per-partition
// cache-line buffers. Each partition keeps the line containing its current
// write frontier staged in the buffer; when the line is fully swapped it is
// streamed back to the array and the next lower line of the partition is
// loaded. RAM is therefore touched one full line at a time — (L-1)/L of the
// swaps run inside the cache-resident buffer and do not miss in the TLB.
// The line buffers and cursor arrays come from w.
//
// No sort or public partition runs it: their out-of-cache in-place passes
// are single-worker BlockPermute calls, about twice as fast. It stays as
// the Algorithm 4 kernel the figures (Figs. 3, 6, 7) and partcli measure.
func InPlaceOutOfCache[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys, vals []K, fn F, hist []int) {
	CheckHistogram(hist, len(keys))
	buf := newLineBuffers[K](w, len(hist))
	cursors := w.Ints(4 * len(hist))
	inPlaceOutOfCache(keys, vals, fn, hist, &buf, cursors)
	buf.release(w)
	w.PutInts(cursors)
}

// InPlaceOutOfCacheWS is InPlaceOutOfCache under its old name. bench/ is
// its only caller.
func InPlaceOutOfCacheWS[K kv.Key, F pfunc.Func[K]](w *ws.Workspace, keys, vals []K, fn F, hist []int) {
	InPlaceOutOfCache(w, keys, vals, fn, hist)
}

// inPlaceOutOfCache is the body of InPlaceOutOfCache on caller-provided
// line buffers (len(hist) partitions) and 4*len(hist) cursors; hist must
// already be checked. Radix functions take the specialized kernel.
func inPlaceOutOfCache[K kv.Key, F pfunc.Func[K]](keys, vals []K, fn F, hist []int, buf *lineBuffers[K], cursors []int) {
	if shift, mask, ok := radixParams[K](fn); ok {
		inPlaceOutOfCacheRadix(keys, vals, shift, mask, hist, buf, cursors)
		return
	}
	np := len(hist)
	l := buf.l
	base := cursors[0*np : 1*np] // first slot of each partition
	off := cursors[1*np : 2*np]  // descending write cursor (one past next slot)
	lo := cursors[2*np : 3*np]   // low bound of the staged line
	hi := cursors[3*np : 4*np]   // high bound (exclusive) of the staged line
	i := 0
	for p := 0; p < np; p++ {
		base[p] = i
		i += hist[p]
		off[p] = i
	}
	// Stage the top line of every non-empty partition.
	for p := 0; p < np; p++ {
		if hist[p] == 0 {
			continue
		}
		loadLine(buf, keys, vals, base, off[p], lo, hi, p, l)
	}

	q := 0
	iend := 0
	var cycles uint64
	for q < np && hist[q] == 0 {
		q++
	}
	for q < np {
		cycles++
		// Lift the cycle head. Its slot may currently be staged in q's
		// buffer (when q's final line is loaded), in which case the array
		// holds stale data and the buffer holds the truth.
		var tk, tv K
		if iend >= lo[q] && iend < hi[q] {
			s := iend - lo[q]
			tk, tv = buf.keys[q*l+s], buf.vals[q*l+s]
		} else {
			tk, tv = keys[iend], vals[iend]
		}
		for {
			d := fn.Partition(tk)
			off[d]--
			j := off[d]
			s := j - lo[d]
			bk, bv := buf.keys[d*l+s], buf.vals[d*l+s]
			buf.keys[d*l+s], buf.vals[d*l+s] = tk, tv
			tk, tv = bk, bv
			if j == lo[d] {
				// Line fully written: stream it out and stage the next one.
				flushLine(buf, keys, vals, lo[d], hi[d], d, l)
				if lo[d] > base[d] {
					loadLine(buf, keys, vals, base, lo[d], lo, hi, d, l)
				}
			}
			if j == iend {
				break
			}
		}
		iend += hist[q]
		q++
		for q < np && (hist[q] == 0 || off[q] == iend) {
			iend += hist[q]
			q++
		}
	}
	if o := obs.Cur(); o != nil {
		o.Counters.TuplesPartitioned.Add(uint64(len(keys)))
		o.Counters.BufferFlushes.Add(buf.flushes)
		o.Counters.SwapCycles.Add(cycles)
	}
}

// loadLine stages the line of partition p that ends at `end` (exclusive):
// [max(base, alignDown(end-1)), end).
func loadLine[K kv.Key](buf *lineBuffers[K], keys, vals []K, base []int, end int, lo, hi []int, p, l int) {
	start := (end - 1) &^ (l - 1)
	if start < base[p] {
		start = base[p]
	}
	lo[p], hi[p] = start, end
	copy(buf.keys[p*l:p*l+end-start], keys[start:end])
	copy(buf.vals[p*l:p*l+end-start], vals[start:end])
}

// flushLine streams partition p's staged line back to the array.
func flushLine[K kv.Key](buf *lineBuffers[K], keys, vals []K, lo, hi, p, l int) {
	copy(keys[lo:hi], buf.keys[p*l:p*l+hi-lo])
	copy(vals[lo:hi], buf.vals[p*l:p*l+hi-lo])
	buf.flushes++
}
