package part

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
)

// checkPartitioned verifies the partitioning contract: every tuple is in
// its partition's segment, segments follow the histogram layout, and the
// (key, payload) multiset is unchanged.
func checkPartitioned[K kv.Key, F pfunc.Func[K]](t *testing.T, origK, origV, keys, vals []K, fn F, hist []int) {
	t.Helper()
	if kv.ChecksumPairs(origK, origV) != kv.ChecksumPairs(keys, vals) {
		t.Fatal("tuple multiset changed")
	}
	starts, total := Starts(hist)
	if total != len(keys) {
		t.Fatalf("histogram total %d != n %d", total, len(keys))
	}
	for p := range hist {
		end := starts[p] + hist[p]
		for i := starts[p]; i < end; i++ {
			if got := fn.Partition(keys[i]); got != p {
				t.Fatalf("tuple at %d has partition %d, expected %d", i, got, p)
			}
		}
	}
}

// checkStable verifies payloads (original positions) are increasing within
// each partition.
func checkStable[K kv.Key](t *testing.T, vals []K, hist []int) {
	t.Helper()
	starts, _ := Starts(hist)
	for p := range hist {
		for i := starts[p] + 1; i < starts[p]+hist[p]; i++ {
			if vals[i-1] >= vals[i] {
				t.Fatalf("partition %d not stable at index %d: %d then %d", p, i, vals[i-1], vals[i])
			}
		}
	}
}

func workloads32(n int) map[string][]uint32 {
	return map[string][]uint32{
		"uniform":  gen.Uniform[uint32](n, 0, 1),
		"dense":    gen.Dense[uint32](n, 2),
		"zipf":     gen.ZipfKeys[uint32](n, 1<<20, 1.2, 3),
		"sorted":   gen.Sorted[uint32](n, 1<<30, 4),
		"reversed": gen.Reversed[uint32](n, 1<<30, 5),
		"allequal": gen.AllEqual[uint32](n, 12345),
		"empty":    nil,
		"single":   {42},
	}
}

func TestHistogram(t *testing.T) {
	keys := []uint32{0, 1, 2, 3, 0, 1, 0}
	fn := pfunc.NewRadix[uint32](0, 2)
	hist := Histogram(keys, fn)
	want := []int{3, 2, 1, 1}
	for p := range want {
		if hist[p] != want[p] {
			t.Fatalf("hist = %v", hist)
		}
	}
}

func TestHistogramCodes(t *testing.T) {
	keys := gen.Uniform[uint32](1000, 0, 7)
	fn := pfunc.NewHash[uint32](64)
	codes := make([]int32, len(keys))
	hist := HistogramCodes(keys, fn, codes)
	plain := Histogram(keys, fn)
	for p := range hist {
		if hist[p] != plain[p] {
			t.Fatal("codes histogram differs from plain histogram")
		}
	}
	for i, k := range keys {
		if int(codes[i]) != fn.Partition(k) {
			t.Fatalf("code[%d] wrong", i)
		}
	}
}

func TestCheckHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CheckHistogram([]int{1, 2}, 4)
}

func TestNonInPlaceInCache(t *testing.T) {
	for name, keys := range workloads32(4096) {
		t.Run(name, func(t *testing.T) {
			vals := gen.RIDs[uint32](len(keys))
			fn := pfunc.NewRadix[uint32](0, 4)
			hist := Histogram(keys, fn)
			dstK := make([]uint32, len(keys))
			dstV := make([]uint32, len(keys))
			NonInPlaceInCache(nil, keys, vals, dstK, dstV, fn, hist, nil)
			checkPartitioned(t, keys, vals, dstK, dstV, fn, hist)
			checkStable(t, dstV, hist)
		})
	}
}

func TestInPlaceInCache(t *testing.T) {
	for name, orig := range workloads32(4096) {
		t.Run(name, func(t *testing.T) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			fn := pfunc.NewHash[uint32](16)
			hist := Histogram(keys, fn)
			InPlaceInCache(nil, keys, vals, fn, hist)
			checkPartitioned(t, orig, origV, keys, vals, fn, hist)
		})
	}
}

func TestInPlaceInCacheLowHigh(t *testing.T) {
	for name, orig := range workloads32(4096) {
		t.Run(name, func(t *testing.T) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			fn := pfunc.NewHash[uint32](16)
			hist := Histogram(keys, fn)
			InPlaceInCacheLowHigh(keys, vals, fn, hist)
			checkPartitioned(t, orig, origV, keys, vals, fn, hist)
		})
	}
}

func TestInPlaceVariantsAgreePerPartition(t *testing.T) {
	// Both swap-cycle formulations yield the same per-partition multisets.
	keys := gen.Uniform[uint32](8192, 0, 31)
	fn := pfunc.NewRadix[uint32](0, 4)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)

	aK := append([]uint32(nil), keys...)
	aV := gen.RIDs[uint32](len(keys))
	InPlaceInCache(nil, aK, aV, fn, hist)
	bK := append([]uint32(nil), keys...)
	bV := gen.RIDs[uint32](len(keys))
	InPlaceInCacheLowHigh(bK, bV, fn, hist)
	for p := range hist {
		lo, hi := starts[p], starts[p]+hist[p]
		if kv.ChecksumPairs(aK[lo:hi], aV[lo:hi]) != kv.ChecksumPairs(bK[lo:hi], bV[lo:hi]) {
			t.Fatalf("partition %d multisets differ between formulations", p)
		}
	}
}

func TestNonInPlaceOutOfCache(t *testing.T) {
	for name, keys := range workloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			vals := gen.RIDs[uint32](len(keys))
			fn := pfunc.NewRadix[uint32](3, 10) // 128-way on inner bits
			hist := Histogram(keys, fn)
			starts, _ := Starts(hist)
			dstK := make([]uint32, len(keys))
			dstV := make([]uint32, len(keys))
			NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fn, starts, nil)
			checkPartitioned(t, keys, vals, dstK, dstV, fn, hist)
			checkStable(t, dstV, hist)
		})
	}
}

func TestInPlaceOutOfCache(t *testing.T) {
	for name, orig := range workloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			fn := pfunc.NewRadix[uint32](0, 7) // 128-way
			hist := Histogram(keys, fn)
			InPlaceOutOfCache(nil, keys, vals, fn, hist)
			checkPartitioned(t, orig, origV, keys, vals, fn, hist)
		})
	}
}

func TestVariantsAgree64(t *testing.T) {
	// All four variants must produce identical per-partition multisets.
	keys := gen.Uniform[uint64](1<<13, 0, 9)
	vals := gen.RIDs[uint64](len(keys))
	fn := pfunc.NewHash[uint64](32)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)

	aK := make([]uint64, len(keys))
	aV := make([]uint64, len(keys))
	NonInPlaceInCache(nil, keys, vals, aK, aV, fn, hist, nil)

	bK := make([]uint64, len(keys))
	bV := make([]uint64, len(keys))
	NonInPlaceOutOfCache(nil, keys, vals, bK, bV, fn, starts, nil)

	cK := append([]uint64(nil), keys...)
	cV := append([]uint64(nil), vals...)
	InPlaceInCache(nil, cK, cV, fn, hist)

	dK := append([]uint64(nil), keys...)
	dV := append([]uint64(nil), vals...)
	InPlaceOutOfCache(nil, dK, dV, fn, hist)

	for i := range aK {
		if aK[i] != bK[i] || aV[i] != bV[i] {
			t.Fatalf("stable variants disagree at %d", i)
		}
	}
	for p := range hist {
		lo, hi := starts[p], starts[p]+hist[p]
		want := kv.ChecksumPairs(aK[lo:hi], aV[lo:hi])
		if kv.ChecksumPairs(cK[lo:hi], cV[lo:hi]) != want {
			t.Fatalf("in-place in-cache partition %d multiset differs", p)
		}
		if kv.ChecksumPairs(dK[lo:hi], dV[lo:hi]) != want {
			t.Fatalf("in-place out-of-cache partition %d multiset differs", p)
		}
	}
}

func TestInPlaceQuick(t *testing.T) {
	// Property test across random data and fanouts for both in-place
	// variants.
	f := func(raw []uint32, fanoutBits uint8) bool {
		bits := uint(fanoutBits%8) + 1
		fn := pfunc.NewRadix[uint32](0, bits)
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		hist := Histogram(keys, fn)
		InPlaceInCache(nil, keys, vals, fn, hist)

		keys2 := append([]uint32(nil), raw...)
		vals2 := gen.RIDs[uint32](len(keys2))
		InPlaceOutOfCache(nil, keys2, vals2, fn, hist)

		starts, _ := Starts(hist)
		for p := range hist {
			lo, hi := starts[p], starts[p]+hist[p]
			for i := lo; i < hi; i++ {
				if fn.Partition(keys[i]) != p || fn.Partition(keys2[i]) != p {
					return false
				}
			}
		}
		origK := append([]uint32(nil), raw...)
		origV := gen.RIDs[uint32](len(raw))
		sum := kv.ChecksumPairs(origK, origV)
		return kv.ChecksumPairs(keys, vals) == sum && kv.ChecksumPairs(keys2, vals2) == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelScatterCodesOneWorker runs the codes-driven scatter on
// one worker, whose histogram is the serial one: the output must be the
// stable partition.
func TestParallelScatterCodesOneWorker(t *testing.T) {
	keys := gen.Uniform[uint32](1<<13, 0, 11)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewHash[uint32](64)
	codes := make([]int32, len(keys))
	hist := HistogramCodes(keys, fn, codes)
	dstK := make([]uint32, len(keys))
	dstV := make([]uint32, len(keys))
	ParallelScatter(nil, keys, vals, dstK, dstV, fn, codes, [][]int{hist}, 0, nil, nil)
	checkPartitioned(t, keys, vals, dstK, dstV, fn, hist)
	checkStable(t, dstV, hist)
}

func TestParallelNonInPlace(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		keys := gen.Uniform[uint32](1<<14, 0, 13)
		vals := gen.RIDs[uint32](len(keys))
		fn := pfunc.NewRadix[uint32](0, 8)
		dstK := make([]uint32, len(keys))
		dstV := make([]uint32, len(keys))
		hist := ParallelNonInPlace(nil, keys, vals, dstK, dstV, fn, workers, nil)
		checkPartitioned(t, keys, vals, dstK, dstV, fn, hist)
		checkStable(t, dstV, hist)
	}
}

func TestParallelNonInPlaceMatchesSerial(t *testing.T) {
	keys := gen.Uniform[uint32](1<<12, 0, 15)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewRadix[uint32](0, 6)
	hist := Histogram(keys, fn)

	serialK := make([]uint32, len(keys))
	serialV := make([]uint32, len(keys))
	NonInPlaceInCache(nil, keys, vals, serialK, serialV, fn, hist, nil)

	parK := make([]uint32, len(keys))
	parV := make([]uint32, len(keys))
	ParallelNonInPlace(nil, keys, vals, parK, parV, fn, 4, nil)

	// Both are stable, so outputs must be bit-identical.
	for i := range serialK {
		if serialK[i] != parK[i] || serialV[i] != parV[i] {
			t.Fatalf("parallel stable output differs at %d", i)
		}
	}
}

func TestParallelInPlaceSharedNothing(t *testing.T) {
	orig := gen.Uniform[uint32](1<<14, 0, 17)
	keys := append([]uint32(nil), orig...)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewRadix[uint32](0, 5)
	hists, bounds := ParallelInPlaceSharedNothing(nil, keys, vals, fn, 4)
	// Each worker's chunk is partitioned independently.
	for t2 := 0; t2 < 4; t2++ {
		lo, hi := bounds[t2], bounds[t2+1]
		starts, _ := Starts(hists[t2])
		for p := range hists[t2] {
			for i := lo + starts[p]; i < lo+starts[p]+hists[t2][p]; i++ {
				if fn.Partition(keys[i]) != p {
					t.Fatalf("worker %d partition %d misplaced tuple at %d", t2, p, i)
				}
			}
		}
		_ = hi
	}
	if kv.ChecksumOf(keys) != kv.ChecksumOf(orig) {
		t.Fatal("keys multiset changed")
	}
}

func TestThreadStarts(t *testing.T) {
	hists := [][]int{{2, 3}, {1, 4}}
	starts, global := ThreadStartsInto([][]int{make([]int, 2), make([]int, 2)}, make([]int, 2), hists, 10)
	// layout: p0: t0 at 10 (2), t1 at 12 (1); p1: t0 at 13 (3), t1 at 16 (4).
	if global[0] != 10 || global[1] != 13 {
		t.Fatalf("global = %v", global)
	}
	if starts[0][0] != 10 || starts[1][0] != 12 || starts[0][1] != 13 || starts[1][1] != 16 {
		t.Fatalf("starts = %v", starts)
	}
}

func TestInPlaceSynchronized(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for name, orig := range workloads32(1 << 12) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			fn := pfunc.NewHash[uint32](8)
			hist := Histogram(keys, fn)
			InPlaceSynchronized(keys, vals, fn, hist, workers)
			checkPartitioned(t, orig, origV, keys, vals, fn, hist)
			_ = name
		}
	}
}

func TestInPlaceSynchronizedQuick(t *testing.T) {
	f := func(raw []uint32, fanoutBits, w uint8) bool {
		bits := uint(fanoutBits%6) + 1
		workers := int(w%7) + 1
		fn := pfunc.NewRadix[uint32](0, bits)
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		hist := Histogram(keys, fn)
		InPlaceSynchronized(keys, vals, fn, hist, workers)
		starts, _ := Starts(hist)
		for p := range hist {
			for i := starts[p]; i < starts[p]+hist[p]; i++ {
				if fn.Partition(keys[i]) != p {
					return false
				}
			}
		}
		return kv.ChecksumPairs(keys, vals) == kv.ChecksumPairs(raw, gen.RIDs[uint32](len(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkBounds(t *testing.T) {
	b := ChunkBounds(10, 3)
	if b[0] != 0 || b[3] != 10 {
		t.Fatalf("bounds = %v", b)
	}
	for i := 1; i <= 3; i++ {
		if b[i] < b[i-1] {
			t.Fatalf("bounds not monotone: %v", b)
		}
	}
	if got := ChunkBounds(0, 4); got[4] != 0 {
		t.Fatalf("empty bounds = %v", got)
	}
}
