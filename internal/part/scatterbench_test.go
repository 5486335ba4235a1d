package part

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// Paired A/B benchmarks of each unrolled kernel against its scalar
// reference, on the shape of one LSB pass (1M uniform 64-bit tuples,
// fanout 256). The pairs share one process so machine drift mostly
// cancels; EXPERIMENTS.md ("Kernel engineering") records a run.

// benchScatterKernel times one scatter formulation.
func benchScatterKernel(b *testing.B, radix bool) {
	const n = 1 << 20
	w := ws.New()
	srcK := gen.Uniform[uint64](n, 0, 1)
	srcV := make([]uint64, n)
	dstK := make([]uint64, n)
	dstV := make([]uint64, n)
	fn := pfunc.NewRadix[uint64](0, 8)
	hist := Histogram(srcK, fn)
	starts, _ := Starts(hist)
	off := make([]int, fn.Fanout())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(off, starts)
		buf := newLineBuffers[uint64](w, fn.Fanout())
		if radix {
			scatterLinesRadix(srcK, srcV, dstK, dstV, fn.Shift, fn.Mask, &buf, off, starts)
		} else {
			scatterLinesGeneric(srcK, srcV, dstK, dstV, fn, &buf, off, starts)
		}
		drainBuffers(&buf, dstK, dstV, off, starts)
		buf.release(w)
	}
}

func BenchmarkScatterKernelGeneric(b *testing.B) { benchScatterKernel(b, false) }
func BenchmarkScatterKernelRadix(b *testing.B)   { benchScatterKernel(b, true) }

// benchHistogramKernel times histogram accumulation through one dispatch
// arm: the Radix fn takes the 4x-unrolled kernel, the same-digit wrapper
// type takes the generic reference loop.
func benchHistogramKernel(b *testing.B, radix bool) {
	const n = 1 << 20
	keys := gen.Uniform[uint64](n, 0, 1)
	fn := pfunc.NewRadix[uint64](0, 8)
	hist := make([]int, fn.Fanout())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if radix {
			HistogramInto(hist, keys, fn)
		} else {
			HistogramInto(hist, keys, plainRadix[uint64]{shift: fn.Shift, mask: fn.Mask})
		}
	}
}

func BenchmarkHistogramKernelGeneric(b *testing.B) { benchHistogramKernel(b, false) }
func BenchmarkHistogramKernelRadix(b *testing.B)   { benchHistogramKernel(b, true) }

// benchMultiHistogramKernel times the fused all-passes histogram: matrix
// rows (reference) vs the flat padded layout.
func benchMultiHistogramKernel(b *testing.B, flat bool) {
	const n = 1 << 20
	keys := gen.Uniform[uint64](n, 0, 1)
	ranges := [][2]uint{{0, 8}, {8, 16}, {16, 24}, {24, 32}}
	rows := make([][]int, len(ranges))
	buf := make([]int, MultiHistogramFlatLen(ranges))
	mat := make([][]int, len(ranges))
	for i, r := range ranges {
		mat[i] = make([]int, 1<<(r[1]-r[0]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flat {
			MultiHistogramFlatInto(rows, buf, keys, ranges)
		} else {
			MultiHistogramInto(mat, keys, ranges)
		}
	}
}

func BenchmarkMultiHistogramMatrix(b *testing.B) { benchMultiHistogramKernel(b, false) }
func BenchmarkMultiHistogramFlat(b *testing.B)   { benchMultiHistogramKernel(b, true) }

// benchInPlaceKernel times the buffered in-place partition through one
// dispatch arm (see benchHistogramKernel).
func benchInPlaceKernel(b *testing.B, radix bool) {
	const n = 1 << 20
	w := ws.New()
	keys := gen.Uniform[uint64](n, 0, 1)
	vals := make([]uint64, n)
	work, workV := make([]uint64, n), make([]uint64, n)
	fn := pfunc.NewRadix[uint64](0, 8)
	ref := plainRadix[uint64]{shift: fn.Shift, mask: fn.Mask}
	hist := Histogram(keys, fn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		copy(workV, vals)
		if radix {
			InPlaceOutOfCache(w, work, workV, fn, hist)
		} else {
			InPlaceOutOfCache(w, work, workV, ref, hist)
		}
	}
}

func BenchmarkInPlaceKernelGeneric(b *testing.B) { benchInPlaceKernel(b, false) }
func BenchmarkInPlaceKernelRadix(b *testing.B)   { benchInPlaceKernel(b, true) }
