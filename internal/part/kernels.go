package part

// Engineered inner kernels: radix-specialized, unrolled, branch-minimized
// twins of the package's scalar reference loops. The paper's SIMD kernels
// (Section 3.2 cost factors; Wassenberg & Sanders' write-combining loops)
// get their per-tuple cost down with vector registers; the Go port gets the
// same effect with three scalar techniques:
//
//   - direct digit extraction: the generic kernels call fn.Partition through
//     a generics dictionary — an indirect call per tuple. Every kernel here
//     is specialized for pfunc.Radix and computes (k>>shift)&mask inline.
//     Dispatch happens once per kernel call via a non-escaping type
//     assertion (any(fn).(pfunc.Radix[K]) does not allocate), the same
//     dispatch point every kernel uses, so the generic references keep
//     serving every other partition function.
//   - 4x/8x unrolling with hoisted bounds: histogram accumulation indexes
//     the bucket array at its mask first, so the compiler drops the bounds
//     check on every masked increment (verify with
//     go build -gcflags='-d=ssa/check_bce' ./internal/part), and the
//     remainder tail is a straight scalar loop of at most unroll-1 steps.
//   - streaming line flushes: a full line whose partition share holds all
//     of it goes out as one streamLine per column, eight non-temporal
//     stores (MOVNTI, stream_amd64.s) that skip flushLineAt's clipping and
//     never read the destination line for ownership. That read was the
//     scatter's largest cost: with plain copies, a 1M-tuple 256-way radix
//     scatter of 64-bit pairs took over twice as long (EXPERIMENTS.md).
//     The clipped head line of a share and the partial lines
//     drainBuffers writes stay copies.
//
// Every kernel in this file has a scalar reference in part.go, incache.go,
// or outcache.go, and kernels_test.go asserts bit-identical results across
// odd lengths, all tail sizes, fanouts 2^1..2^12, and both key widths.

import (
	"fmt"

	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/pfunc"
)

// radixParams extracts the shift/mask of a radix partition function, the
// dispatch point of the specialized kernels. The interface conversion does
// not escape, so it costs a type comparison, not an allocation.
func radixParams[K kv.Key, F pfunc.Func[K]](fn F) (shift uint, mask K, ok bool) {
	r, ok := any(fn).(pfunc.Radix[K])
	return r.Shift, r.Mask, ok
}

// histogramRadixAccum is histogramAccum for radix functions: 4x-unrolled
// digit extraction into a bounds-check-free bucket array. Counting is
// order-independent, so the unrolled and scalar loops are bit-identical.
func histogramRadixAccum[K kv.Key](hist []int, keys []K, shift uint, mask K) {
	hist = hist[:int(mask)+1] // len(hist) == mask+1: every masked index is in range
	n := len(keys)
	i := 0
	for ; i+4 <= n; i += 4 {
		k0, k1, k2, k3 := keys[i], keys[i+1], keys[i+2], keys[i+3]
		hist[(k0>>shift)&mask]++
		hist[(k1>>shift)&mask]++
		hist[(k2>>shift)&mask]++
		hist[(k3>>shift)&mask]++
	}
	for ; i < n; i++ {
		hist[(keys[i]>>shift)&mask]++
	}
}

// scatterLinesRadix is scatterLines specialized for radix functions:
// direct digit extraction, cursor array bounded once, and full (unclipped)
// line flushes as one streamLine per column. The clipped head line of
// each partition share still goes through flushLineAt, so outputs are
// bit-identical to the generic reference.
func scatterLinesRadix[K kv.Key](srcK, srcV, dstK, dstV []K, shift uint, mask K, buf *lineBuffers[K], off, starts []int) {
	if len(srcK) == 0 {
		return
	}
	l := buf.l
	bufK, bufV := buf.keys, buf.vals
	srcV = srcV[:len(srcK)]
	off = off[:int(mask)+1]
	var flushes uint64
	for i, k := range srcK {
		v := srcV[i]
		p := int((k >> shift) & mask)
		o := off[p]
		s := o & (l - 1)
		bi := p*l + s
		bufK[bi] = k
		bufV[bi] = v
		off[p] = o + 1
		if s == l-1 {
			lo := o + 1 - l
			if lo >= starts[p] {
				b := p * l
				streamCol(dstK[lo:o+1], bufK[b:b+l])
				streamCol(dstV[lo:o+1], bufV[b:b+l])
			} else {
				flushLineAt(bufK, bufV, dstK, dstV, starts, p, o, l)
			}
			flushes++
		}
	}
	buf.flushes += flushes
}

// scatterLinesCodesFast is scatterLinesCodes with the full-line fast flush
// and a 2x-unrolled, software-pipelined main loop: the next tuple's code
// and payload loads issue before the current tuple's dependent
// cursor-load/buffer-store chain completes, overlapping the two chains.
// The tail (at most one tuple) runs the same straight-line body.
func scatterLinesCodesFast[K kv.Key](srcK, srcV, dstK, dstV []K, codes []int32, buf *lineBuffers[K], off, starts []int) {
	n := len(srcK)
	if n == 0 {
		return
	}
	l := buf.l
	bufK, bufV := buf.keys, buf.vals
	srcV = srcV[:n]
	codes = codes[:n]
	var flushes uint64
	i := 0
	for ; i+2 <= n; i += 2 {
		k0, v0, p0 := srcK[i], srcV[i], int(codes[i])
		k1, v1, p1 := srcK[i+1], srcV[i+1], int(codes[i+1])
		o := off[p0]
		s := o & (l - 1)
		bi := p0*l + s
		bufK[bi] = k0
		bufV[bi] = v0
		off[p0] = o + 1
		if s == l-1 {
			flushes++
			lo := o + 1 - l
			if lo >= starts[p0] {
				b := p0 * l
				streamCol(dstK[lo:o+1], bufK[b:b+l])
				streamCol(dstV[lo:o+1], bufV[b:b+l])
			} else {
				flushLineAt(bufK, bufV, dstK, dstV, starts, p0, o, l)
			}
		}
		o = off[p1]
		s = o & (l - 1)
		bi = p1*l + s
		bufK[bi] = k1
		bufV[bi] = v1
		off[p1] = o + 1
		if s == l-1 {
			flushes++
			lo := o + 1 - l
			if lo >= starts[p1] {
				b := p1 * l
				streamCol(dstK[lo:o+1], bufK[b:b+l])
				streamCol(dstV[lo:o+1], bufV[b:b+l])
			} else {
				flushLineAt(bufK, bufV, dstK, dstV, starts, p1, o, l)
			}
		}
	}
	for ; i < n; i++ {
		k, v, p := srcK[i], srcV[i], int(codes[i])
		o := off[p]
		s := o & (l - 1)
		bi := p*l + s
		bufK[bi] = k
		bufV[bi] = v
		off[p] = o + 1
		if s == l-1 {
			flushes++
			flushLineAt(bufK, bufV, dstK, dstV, starts, p, o, l)
		}
	}
	buf.flushes += flushes
}

// inCacheScatterRadix is the NonInPlaceInCache inner loop specialized for
// radix functions: direct digit extraction with the cursor array bounded
// once. Stable, like the reference.
func inCacheScatterRadix[K kv.Key](srcK, srcV, dstK, dstV []K, shift uint, mask K, offset []int) {
	if len(srcK) == 0 {
		return
	}
	srcV = srcV[:len(srcK)]
	offset = offset[:int(mask)+1]
	for i, k := range srcK {
		p := (k >> shift) & mask
		o := offset[p]
		offset[p] = o + 1
		dstK[o] = k
		dstV[o] = srcV[i]
	}
}

// inPlaceInCacheRadix is InPlaceInCache's swap-cycle loop specialized for
// radix functions. The cycle chain is inherently serial (each swap's
// destination depends on the lifted tuple), so the win here is the inlined
// digit extraction replacing a dictionary call per swap. Results are
// bit-identical to the generic reference: the cycle order is fully
// determined by the histogram and the partition function.
func inPlaceInCacheRadix[K kv.Key](keys, vals []K, shift uint, mask K, hist, offset []int) {
	p := len(hist)
	offset = offset[:int(mask)+1]
	i := 0
	for q := 0; q < p; q++ {
		i += hist[q]
		offset[q] = i
	}
	q := 0
	iend := 0
	var cycles uint64
	for q < p && hist[q] == 0 {
		q++
	}
	for q < p {
		cycles++
		tk, tv := keys[iend], vals[iend]
		for {
			d := (tk >> shift) & mask
			o := offset[d] - 1
			offset[d] = o
			keys[o], tk = tk, keys[o]
			vals[o], tv = tv, vals[o]
			if o == iend {
				break
			}
		}
		iend += hist[q]
		q++
		for q < p && (hist[q] == 0 || offset[q] == iend) {
			iend += hist[q]
			q++
		}
	}
	if o := obs.Cur(); o != nil {
		o.Counters.TuplesPartitioned.Add(uint64(len(keys)))
		o.Counters.SwapCycles.Add(cycles)
	}
}

// inPlaceOutOfCacheRadix is inPlaceOutOfCache's buffered swap-cycle body
// specialized for radix functions: inlined digit extraction, and a full
// line flushed by one copy per column. Same cursor discipline as the
// generic reference, so results are bit-identical.
func inPlaceOutOfCacheRadix[K kv.Key](keys, vals []K, shift uint, mask K, hist []int, buf *lineBuffers[K], cursors []int) {
	np := len(hist)
	l := buf.l
	base := cursors[0*np : 1*np]
	off := cursors[1*np : 2*np]
	lo := cursors[2*np : 3*np]
	hi := cursors[3*np : 4*np]
	i := 0
	for p := 0; p < np; p++ {
		base[p] = i
		i += hist[p]
		off[p] = i
	}
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
	bufK, bufV := buf.keys, buf.vals
	for q < np {
		cycles++
		var tk, tv K
		if iend >= lo[q] && iend < hi[q] {
			s := iend - lo[q]
			tk, tv = bufK[q*l+s], bufV[q*l+s]
		} else {
			tk, tv = keys[iend], vals[iend]
		}
		for {
			d := int((tk >> shift) & mask)
			off[d]--
			j := off[d]
			s := j - lo[d] + d*l
			bk, bv := bufK[s], bufV[s]
			bufK[s], bufV[s] = tk, tv
			tk, tv = bk, bv
			if j == lo[d] {
				// Line fully written: stream it out and stage the next one.
				if hi[d]-lo[d] == l {
					b := d * l
					copy(keys[lo[d]:hi[d]], bufK[b:b+l])
					copy(vals[lo[d]:hi[d]], bufV[b:b+l])
					buf.flushes++
				} else {
					flushLine(buf, keys, vals, lo[d], hi[d], d, l)
				}
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

// HistPadInts is the padding between consecutive rows of the flat
// multi-histogram layout: 16 ints (128 bytes, two cache lines). Radix rows
// are power-of-two sized, so rows packed back to back would start at
// power-of-two offsets and their same-digit entries would collide in the
// same L1 sets across every fused pass; the pad staggers row starts so
// concurrent increments from one key spread over distinct sets, and no row
// boundary shares a cache line with its neighbor (no false sharing when
// rows are later read by different workers).
const HistPadInts = 16

// MultiHistogramFlatLen returns the flat buffer length MultiHistogramFlatInto
// needs for the given bit ranges: all rows plus inter-row padding.
func MultiHistogramFlatLen(ranges [][2]uint) int {
	checkRanges(ranges)
	total := 0
	for i, r := range ranges {
		if i > 0 {
			total += HistPadInts
		}
		total += 1 << (r[1] - r[0])
	}
	return total
}

// checkRanges validates a radix bit-range list (shared by the multi-histogram
// entry points).
func checkRanges(ranges [][2]uint) {
	if len(ranges) > MaxRadixPasses {
		panic(fmt.Sprintf("part: %d radix ranges exceed the %d-pass bound", len(ranges), MaxRadixPasses))
	}
	for _, r := range ranges {
		if r[1] <= r[0] || r[1]-r[0] >= 64 {
			panic(fmt.Sprintf("part: invalid radix bit range [%d,%d)", r[0], r[1]))
		}
	}
}

// MultiHistogramFlatInto is MultiHistogramInto accumulating into one flat,
// padded buffer (layout above): rows[i] is returned as a view into flat so
// callers index passes exactly as with the matrix form, but the rows stay
// cache-set disjoint during the fused accumulation scan. rows must have
// len(ranges) slots and flat at least MultiHistogramFlatLen(ranges)
// elements; both are overwritten. It allocates nothing.
func MultiHistogramFlatInto[K kv.Key](rows [][]int, flat []int, keys []K, ranges [][2]uint) {
	checkRanges(ranges)
	o := 0
	for i, r := range ranges {
		p := 1 << (r[1] - r[0])
		rows[i] = flat[o : o+p : o+p]
		o += p + HistPadInts
	}
	multiHistogramRows(rows, keys, ranges)
}

// multiHistogramRows is the shared accumulation scan of MultiHistogramInto
// and MultiHistogramFlatInto: the common pass counts are specialized with
// rows, shifts, and masks hoisted into locals, each row indexed at its mask
// first to drop the per-increment bounds checks, and the key loop
// 2x-unrolled so the independent increments of consecutive keys overlap
// (counting is order-independent, so results are bit-identical to the
// scalar reference loop in the default arm).
func multiHistogramRows[K kv.Key](hists [][]int, keys []K, ranges [][2]uint) {
	var shifts [MaxRadixPasses]uint
	var masks [MaxRadixPasses]K
	for i, r := range ranges {
		shifts[i] = r[0]
		masks[i] = K(1)<<(r[1]-r[0]) - 1
		clear(hists[i])
	}
	n := len(keys)
	switch len(ranges) {
	case 2:
		h0, h1 := hists[0], hists[1]
		s0, s1 := shifts[0], shifts[1]
		m0, m1 := masks[0], masks[1]
		_, _ = h0[m0], h1[m1]
		i := 0
		for ; i+2 <= n; i += 2 {
			ka, kb := keys[i], keys[i+1]
			h0[(ka>>s0)&m0]++
			h1[(ka>>s1)&m1]++
			h0[(kb>>s0)&m0]++
			h1[(kb>>s1)&m1]++
		}
		for ; i < n; i++ {
			k := keys[i]
			h0[(k>>s0)&m0]++
			h1[(k>>s1)&m1]++
		}
	case 3:
		h0, h1, h2 := hists[0], hists[1], hists[2]
		s0, s1, s2 := shifts[0], shifts[1], shifts[2]
		m0, m1, m2 := masks[0], masks[1], masks[2]
		_, _, _ = h0[m0], h1[m1], h2[m2]
		i := 0
		for ; i+2 <= n; i += 2 {
			ka, kb := keys[i], keys[i+1]
			h0[(ka>>s0)&m0]++
			h1[(ka>>s1)&m1]++
			h2[(ka>>s2)&m2]++
			h0[(kb>>s0)&m0]++
			h1[(kb>>s1)&m1]++
			h2[(kb>>s2)&m2]++
		}
		for ; i < n; i++ {
			k := keys[i]
			h0[(k>>s0)&m0]++
			h1[(k>>s1)&m1]++
			h2[(k>>s2)&m2]++
		}
	case 4:
		h0, h1, h2, h3 := hists[0], hists[1], hists[2], hists[3]
		s0, s1, s2, s3 := shifts[0], shifts[1], shifts[2], shifts[3]
		m0, m1, m2, m3 := masks[0], masks[1], masks[2], masks[3]
		_, _, _, _ = h0[m0], h1[m1], h2[m2], h3[m3]
		i := 0
		for ; i+2 <= n; i += 2 {
			ka, kb := keys[i], keys[i+1]
			h0[(ka>>s0)&m0]++
			h1[(ka>>s1)&m1]++
			h2[(ka>>s2)&m2]++
			h3[(ka>>s3)&m3]++
			h0[(kb>>s0)&m0]++
			h1[(kb>>s1)&m1]++
			h2[(kb>>s2)&m2]++
			h3[(kb>>s3)&m3]++
		}
		for ; i < n; i++ {
			k := keys[i]
			h0[(k>>s0)&m0]++
			h1[(k>>s1)&m1]++
			h2[(k>>s2)&m2]++
			h3[(k>>s3)&m3]++
		}
	default:
		for _, k := range keys {
			for i := range hists {
				hists[i][(k>>shifts[i])&masks[i]]++
			}
		}
	}
}
