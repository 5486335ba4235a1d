package part

import (
	"math/rand"
	"testing"

	"repro/internal/pfunc"
	"repro/internal/ws"
)

// plainRadix computes the same digit as pfunc.Radix but is a distinct type,
// so the kernel dispatchers route it through the generic scalar reference:
// running a kernel once with pfunc.Radix and once with plainRadix compares
// the specialized and reference paths on identical inputs.
type plainRadix[K interface{ ~uint32 | ~uint64 }] struct {
	shift uint
	mask  K
}

func (r plainRadix[K]) Partition(k K) int { return int((k >> r.shift) & r.mask) }
func (r plainRadix[K]) Fanout() int       { return int(r.mask) + 1 }

// kernelCases is the agreement-test grid: odd lengths and every tail size
// 0..15 around the 4x/8x unroll widths, crossed with fanouts 2^1..2^12.
func kernelCases() (lengths []int, fanoutBits []int) {
	lengths = []int{0, 1, 3, 7, 15, 17, 33, 63, 65, 129, 1000, 4096}
	for tail := 0; tail <= 15; tail++ {
		lengths = append(lengths, 512+tail)
	}
	fanoutBits = []int{1, 2, 3, 5, 8, 10, 12}
	return
}

func testKeys[K interface{ ~uint32 | ~uint64 }](rng *rand.Rand, n int) []K {
	keys := make([]K, n)
	for i := range keys {
		keys[i] = K(rng.Uint64())
	}
	return keys
}

// testHistogramAgreement asserts the radix histogram kernel matches the
// scalar reference for one key width.
func testHistogramAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	lengths, fanoutBits := kernelCases()
	for _, b := range fanoutBits {
		fn := pfunc.NewRadix[K](0, uint(b))
		ref := plainRadix[K]{shift: fn.Shift, mask: fn.Mask}
		for _, n := range lengths {
			keys := testKeys[K](rng, n)
			got := HistogramInto(make([]int, fn.Fanout()), keys, fn)
			want := HistogramInto(make([]int, fn.Fanout()), keys, ref)
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("fanout 2^%d n=%d: hist[%d]=%d, reference %d", b, n, p, got[p], want[p])
				}
			}
		}
	}
}

func TestHistogramRadixAgreement32(t *testing.T) { testHistogramAgreement[uint32](t) }
func TestHistogramRadixAgreement64(t *testing.T) { testHistogramAgreement[uint64](t) }

// testScatterAgreement asserts the radix scatter kernel produces the exact
// output of the generic reference, including the clipped head line of a
// nonzero share start.
func testScatterAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	w := ws.New()
	defer w.Close()
	lengths, fanoutBits := kernelCases()
	for _, b := range fanoutBits {
		fn := pfunc.NewRadix[K](3, uint(3+b))
		ref := plainRadix[K]{shift: fn.Shift, mask: fn.Mask}
		for _, n := range lengths {
			keys := testKeys[K](rng, n)
			vals := testKeys[K](rng, n)
			hist := Histogram(keys, fn)
			starts, _ := Starts(hist)
			gotK, gotV := make([]K, n), make([]K, n)
			wantK, wantV := make([]K, n), make([]K, n)
			NonInPlaceOutOfCache(w, keys, vals, gotK, gotV, fn, starts, nil)
			NonInPlaceOutOfCache(w, keys, vals, wantK, wantV, ref, starts, nil)
			for i := range wantK {
				if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
					t.Fatalf("fanout 2^%d n=%d: tuple %d = (%v,%v), reference (%v,%v)",
						b, n, i, gotK[i], gotV[i], wantK[i], wantV[i])
				}
			}
		}
	}
}

func TestScatterRadixAgreement32(t *testing.T) { testScatterAgreement[uint32](t) }
func TestScatterRadixAgreement64(t *testing.T) { testScatterAgreement[uint64](t) }

// testScatterSharesAgreement drives the radix and reference scatters as two
// parallel callers writing disjoint shares of one output, so the clipped
// (below-share) head-line path of the fast flush is exercised.
func testScatterSharesAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	w := ws.New()
	defer w.Close()
	const n = 1001
	fn := pfunc.NewRadix[K](0, 4)
	ref := plainRadix[K]{shift: fn.Shift, mask: fn.Mask}
	keys := testKeys[K](rng, n)
	vals := testKeys[K](rng, n)
	half := n / 2
	histLo := Histogram(keys[:half], fn)
	histHi := Histogram(keys[half:], fn)
	startsLo := make([]int, fn.Fanout())
	startsHi := make([]int, fn.Fanout())
	o := 0
	for p := 0; p < fn.Fanout(); p++ {
		startsLo[p] = o
		startsHi[p] = o + histLo[p]
		o += histLo[p] + histHi[p]
	}
	gotK, gotV := make([]K, n), make([]K, n)
	wantK, wantV := make([]K, n), make([]K, n)
	NonInPlaceOutOfCache(w, keys[:half], vals[:half], gotK, gotV, fn, startsLo, nil)
	NonInPlaceOutOfCache(w, keys[half:], vals[half:], gotK, gotV, fn, startsHi, nil)
	NonInPlaceOutOfCache(w, keys[:half], vals[:half], wantK, wantV, ref, startsLo, nil)
	NonInPlaceOutOfCache(w, keys[half:], vals[half:], wantK, wantV, ref, startsHi, nil)
	for i := range wantK {
		if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
			t.Fatalf("tuple %d = (%v,%v), reference (%v,%v)", i, gotK[i], gotV[i], wantK[i], wantV[i])
		}
	}
}

func TestScatterRadixSharesAgreement32(t *testing.T) { testScatterSharesAgreement[uint32](t) }
func TestScatterRadixSharesAgreement64(t *testing.T) { testScatterSharesAgreement[uint64](t) }

// testCodesScatterAgreement asserts the unrolled code-driven scatter matches
// its scalar reference on identical buffers.
func testCodesScatterAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	w := ws.New()
	defer w.Close()
	lengths, fanoutBits := kernelCases()
	for _, b := range fanoutBits {
		fn := pfunc.NewRadix[K](0, uint(b))
		p := fn.Fanout()
		for _, n := range lengths {
			keys := testKeys[K](rng, n)
			vals := testKeys[K](rng, n)
			codes := make([]int32, n)
			hist := HistogramCodes(keys, fn, codes)
			starts, _ := Starts(hist)
			gotK, gotV := make([]K, n), make([]K, n)
			wantK, wantV := make([]K, n), make([]K, n)

			runScatter := func(dstK, dstV []K, fast bool) {
				buf := newLineBuffers[K](w, p)
				off := make([]int, p)
				copy(off, starts)
				if fast {
					scatterLinesCodesFast(keys, vals, dstK, dstV, codes, &buf, off, starts)
				} else {
					scatterLinesCodes(keys, vals, dstK, dstV, codes, &buf, off, starts)
				}
				drainBuffers(&buf, dstK, dstV, off, starts)
				buf.release(w)
			}
			runScatter(gotK, gotV, true)
			runScatter(wantK, wantV, false)
			for i := range wantK {
				if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
					t.Fatalf("fanout 2^%d n=%d: tuple %d = (%v,%v), reference (%v,%v)",
						b, n, i, gotK[i], gotV[i], wantK[i], wantV[i])
				}
			}
		}
	}
}

func TestCodesScatterFastAgreement32(t *testing.T) { testCodesScatterAgreement[uint32](t) }
func TestCodesScatterFastAgreement64(t *testing.T) { testCodesScatterAgreement[uint64](t) }

// testInPlaceAgreement asserts both in-place radix kernels (in-cache swap
// cycles and out-of-cache buffered cycles) produce the exact permutation of
// the generic reference.
func testInPlaceAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	w := ws.New()
	defer w.Close()
	lengths, fanoutBits := kernelCases()
	for _, b := range fanoutBits {
		fn := pfunc.NewRadix[K](1, uint(1+b))
		ref := plainRadix[K]{shift: fn.Shift, mask: fn.Mask}
		for _, n := range lengths {
			keys := testKeys[K](rng, n)
			vals := testKeys[K](rng, n)
			for _, inCache := range []bool{true, false} {
				gotK, gotV := append([]K(nil), keys...), append([]K(nil), vals...)
				wantK, wantV := append([]K(nil), keys...), append([]K(nil), vals...)
				hist := Histogram(keys, fn)
				if inCache {
					InPlaceInCache(w, gotK, gotV, fn, hist)
					InPlaceInCache(w, wantK, wantV, ref, hist)
				} else {
					InPlaceOutOfCache(w, gotK, gotV, fn, hist)
					InPlaceOutOfCache(w, wantK, wantV, ref, hist)
				}
				for i := range wantK {
					if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
						t.Fatalf("fanout 2^%d n=%d inCache=%v: tuple %d = (%v,%v), reference (%v,%v)",
							b, n, inCache, i, gotK[i], gotV[i], wantK[i], wantV[i])
					}
				}
			}
		}
	}
}

func TestInPlaceRadixAgreement32(t *testing.T) { testInPlaceAgreement[uint32](t) }
func TestInPlaceRadixAgreement64(t *testing.T) { testInPlaceAgreement[uint64](t) }

// testInCacheScatterAgreement asserts the non-in-place in-cache radix
// scatter matches the generic loop.
func testInCacheScatterAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	w := ws.New()
	defer w.Close()
	lengths, fanoutBits := kernelCases()
	for _, b := range fanoutBits {
		fn := pfunc.NewRadix[K](0, uint(b))
		ref := plainRadix[K]{shift: fn.Shift, mask: fn.Mask}
		for _, n := range lengths {
			keys := testKeys[K](rng, n)
			vals := testKeys[K](rng, n)
			hist := Histogram(keys, fn)
			gotK, gotV := make([]K, n), make([]K, n)
			wantK, wantV := make([]K, n), make([]K, n)
			NonInPlaceInCache(w, keys, vals, gotK, gotV, fn, hist, nil)
			NonInPlaceInCache(w, keys, vals, wantK, wantV, ref, hist, nil)
			for i := range wantK {
				if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
					t.Fatalf("fanout 2^%d n=%d: tuple %d = (%v,%v), reference (%v,%v)",
						b, n, i, gotK[i], gotV[i], wantK[i], wantV[i])
				}
			}
		}
	}
}

func TestInCacheScatterRadixAgreement32(t *testing.T) { testInCacheScatterAgreement[uint32](t) }
func TestInCacheScatterRadixAgreement64(t *testing.T) { testInCacheScatterAgreement[uint64](t) }

// testMultiHistogramFlatAgreement asserts the flat padded multi-histogram
// matches the matrix-form reference row for row, across pass counts
// covering every specialized arm plus the generic fallback.
func testMultiHistogramFlatAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	lengths, _ := kernelCases()
	width := 32
	if _, is64 := any(K(0)).(uint64); is64 {
		width = 64
	}
	for passes := 1; passes <= 6; passes++ {
		var ranges [][2]uint
		bits := uint(width / passes)
		if bits > 8 {
			bits = 8
		}
		for i := 0; i < passes; i++ {
			lo := uint(i) * bits
			ranges = append(ranges, [2]uint{lo, lo + bits})
		}
		for _, n := range lengths {
			keys := testKeys[K](rng, n)
			want := MultiHistogram(keys, ranges)
			rows := make([][]int, len(ranges))
			flat := make([]int, MultiHistogramFlatLen(ranges))
			MultiHistogramFlatInto(rows, flat, keys, ranges)
			for i := range want {
				if len(rows[i]) != len(want[i]) {
					t.Fatalf("passes=%d n=%d: row %d has %d buckets, reference %d", passes, n, i, len(rows[i]), len(want[i]))
				}
				for p := range want[i] {
					if rows[i][p] != want[i][p] {
						t.Fatalf("passes=%d n=%d: rows[%d][%d]=%d, reference %d", passes, n, i, p, rows[i][p], want[i][p])
					}
				}
			}
		}
	}
}

func TestMultiHistogramFlatAgreement32(t *testing.T) { testMultiHistogramFlatAgreement[uint32](t) }
func TestMultiHistogramFlatAgreement64(t *testing.T) { testMultiHistogramFlatAgreement[uint64](t) }

// FuzzScatterRadixAgreement fuzzes the radix scatter against the generic
// reference over arbitrary lengths, bit ranges, and key seeds.
func FuzzScatterRadixAgreement(f *testing.F) {
	f.Add(uint16(100), uint8(3), uint8(4), int64(1))
	f.Add(uint16(513), uint8(0), uint8(8), int64(2))
	f.Add(uint16(31), uint8(7), uint8(1), int64(3))
	w := ws.New()
	f.Fuzz(func(t *testing.T, n16 uint16, lo8, bits8 uint8, seed int64) {
		n := int(n16)
		lo := uint(lo8 % 48)
		bits := uint(bits8%12) + 1
		fn := pfunc.NewRadix[uint64](lo, lo+bits)
		ref := plainRadix[uint64]{shift: fn.Shift, mask: fn.Mask}
		rng := rand.New(rand.NewSource(seed))
		keys := testKeys[uint64](rng, n)
		vals := testKeys[uint64](rng, n)
		hist := Histogram(keys, fn)
		starts, _ := Starts(hist)
		gotK, gotV := make([]uint64, n), make([]uint64, n)
		wantK, wantV := make([]uint64, n), make([]uint64, n)
		NonInPlaceOutOfCache(w, keys, vals, gotK, gotV, fn, starts, nil)
		NonInPlaceOutOfCache(w, keys, vals, wantK, wantV, ref, starts, nil)
		for i := range wantK {
			if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
				t.Fatalf("tuple %d = (%v,%v), reference (%v,%v)", i, gotK[i], gotV[i], wantK[i], wantV[i])
			}
		}
	})
}
