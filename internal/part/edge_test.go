package part

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
	"repro/internal/splitter"
)

// TestInPlaceOutOfCacheLineBoundaries hammers the buffered in-place
// variant with partition sizes engineered around the cache-line tuple
// count L (16 for uint32): empty, 1, L-1, L, L+1, 2L, unaligned bases.
func TestInPlaceOutOfCacheLineBoundaries(t *testing.T) {
	l := LineTuples[uint32]()
	sizes := []int{0, 1, 2, l - 1, l, l + 1, 2*l - 1, 2 * l, 3*l + 5, 0, 7}
	var keys []uint32
	for p, s := range sizes {
		for j := 0; j < s; j++ {
			keys = append(keys, uint32(p))
		}
	}
	// Shuffle deterministically.
	r := gen.NewRNG(5)
	for i := len(keys) - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		keys[i], keys[j] = keys[j], keys[i]
	}
	vals := gen.RIDs[uint32](len(keys))
	orig := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)

	fn := pfunc.Identity[uint32]{P: len(sizes)}
	hist := Histogram(keys, fn)
	for p, s := range sizes {
		if hist[p] != s {
			t.Fatalf("setup: hist[%d] = %d, want %d", p, hist[p], s)
		}
	}
	InPlaceOutOfCache(nil, keys, vals, fn, hist)
	checkPartitioned(t, orig, origV, keys, vals, fn, hist)
}

func TestInPlaceInCacheLineBoundaries(t *testing.T) {
	// Same adversarial layout through Algorithm 2.
	sizes := []int{1, 0, 31, 32, 33, 5, 0, 64}
	var keys []uint32
	for p, s := range sizes {
		for j := 0; j < s; j++ {
			keys = append(keys, uint32(p))
		}
	}
	r := gen.NewRNG(9)
	for i := len(keys) - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		keys[i], keys[j] = keys[j], keys[i]
	}
	vals := gen.RIDs[uint32](len(keys))
	orig := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)
	fn := pfunc.Identity[uint32]{P: len(sizes)}
	hist := Histogram(keys, fn)
	InPlaceInCache(nil, keys, vals, fn, hist)
	checkPartitioned(t, orig, origV, keys, vals, fn, hist)
}

func TestNonInPlaceOutOfCacheUnalignedShares(t *testing.T) {
	// Parallel callers write disjoint shares at odd offsets; line flushes
	// must clip so neighbors are never touched.
	n := 1 << 12
	keys := gen.Uniform[uint32](n, 0, 3)
	vals := gen.RIDs[uint32](n)
	fn := pfunc.NewHash[uint32](8)
	hists, bounds := ParallelHistograms(nil, keys, fn, 3, nil)
	starts, _ := ThreadStartsInto([][]int{make([]int, 8), make([]int, 8), make([]int, 8)}, make([]int, 8), hists, 0)

	dstK := make([]uint32, n)
	dstV := make([]uint32, n)
	// Run the three shares sequentially in reverse order: if a flush wrote
	// outside its clip, a later share would overwrite an earlier one.
	for t2 := 2; t2 >= 0; t2-- {
		lo, hi := bounds[t2], bounds[t2+1]
		NonInPlaceOutOfCache(nil, keys[lo:hi], vals[lo:hi], dstK, dstV, fn, starts[t2], nil)
	}
	hist := MergeHistograms(hists)
	checkPartitioned(t, keys, vals, dstK, dstV, fn, hist)
	checkStable(t, dstV, hist)
}

func TestHistogramCodesBatchMatchesScalar(t *testing.T) {
	keys := gen.Uniform[uint32](5001, 0, 3)
	delims := splitter.EqualDepth(gen.Uniform[uint32](4096, 0, 9), 360)
	tree := rangeidx.NewTreeFor(delims)
	c1 := make([]int32, len(keys))
	c2 := make([]int32, len(keys))
	h1 := HistogramCodesBatch(keys, tree, tree.Fanout(), c1)
	h2 := HistogramCodes(keys, treeAsFunc{tree}, c2)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("codes differ at %d", i)
		}
	}
	for p := range h1 {
		if h1[p] != h2[p] {
			t.Fatal("histograms differ")
		}
	}
}

type treeAsFunc struct{ t *rangeidx.Tree[uint32] }

func (f treeAsFunc) Partition(k uint32) int { return f.t.Partition(k) }
func (f treeAsFunc) Fanout() int            { return f.t.Fanout() }

func TestSyncPermuteMatchesInPlace(t *testing.T) {
	// Single-worker synchronized permute produces the same per-partition
	// multisets as Algorithm 2.
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		fn := pfunc.NewHash[uint32](4)
		a := append([]uint32(nil), raw...)
		av := gen.RIDs[uint32](len(a))
		hist := Histogram(a, fn)
		InPlaceInCache(nil, a, av, fn, hist)

		b := append([]uint32(nil), raw...)
		bv := gen.RIDs[uint32](len(b))
		InPlaceSynchronized(b, bv, fn, hist, 1)

		starts, _ := Starts(hist)
		for p := range hist {
			lo, hi := starts[p], starts[p]+hist[p]
			if kv.ChecksumPairs(a[lo:hi], av[lo:hi]) != kv.ChecksumPairs(b[lo:hi], bv[lo:hi]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiHistogramMatchesSeparate(t *testing.T) {
	keys := gen.Uniform[uint32](10000, 0, 3)
	ranges := [][2]uint{{0, 8}, {8, 16}, {16, 24}, {24, 32}}
	multi := MultiHistogram(keys, ranges)
	for i, r := range ranges {
		want := Histogram(keys, pfunc.NewRadix[uint32](r[0], r[1]))
		for p := range want {
			if multi[i][p] != want[p] {
				t.Fatalf("range %v partition %d: %d vs %d", r, p, multi[i][p], want[p])
			}
		}
	}
}

func TestMultiHistogramReorderInvariant(t *testing.T) {
	// The property the one-scan LSB optimization depends on: the global
	// histogram of any bit range is unchanged by reordering the keys.
	keys := gen.Uniform[uint64](5000, 0, 7)
	ranges := [][2]uint{{0, 6}, {30, 40}}
	before := MultiHistogram(keys, ranges)
	// Reorder by partitioning on an unrelated bit range.
	vals := gen.RIDs[uint64](len(keys))
	fn := pfunc.NewRadix[uint64](10, 14)
	InPlaceInCache(nil, keys, vals, fn, Histogram(keys, fn))
	after := MultiHistogram(keys, ranges)
	for i := range before {
		for p := range before[i] {
			if before[i][p] != after[i][p] {
				t.Fatal("histogram changed after reordering")
			}
		}
	}
}

func TestMultiHistogramValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty range")
		}
	}()
	MultiHistogram([]uint32{1}, [][2]uint{{4, 4}})
}

func TestStartsAndMerge(t *testing.T) {
	starts, total := Starts([]int{3, 0, 5})
	if total != 8 || starts[0] != 0 || starts[1] != 3 || starts[2] != 3 {
		t.Fatalf("Starts = %v total %d", starts, total)
	}
	m := MergeHistograms([][]int{{1, 2}, {3, 4}})
	if m[0] != 4 || m[1] != 6 {
		t.Fatalf("Merge = %v", m)
	}
}

func TestLineTuples(t *testing.T) {
	if LineTuples[uint32]() != 16 || LineTuples[uint64]() != 8 {
		t.Fatal("cache line should hold 16x4B or 8x8B tuples")
	}
}

func TestParallelHistogramsCodesBatchPath(t *testing.T) {
	// The batch path (range tree) and the scalar path must agree when
	// driven through the parallel dispatcher.
	keys := gen.Uniform[uint32](10000, 0, 3)
	delims := splitter.EqualDepth(gen.Uniform[uint32](4096, 0, 9), 100)
	tree := rangeidx.NewTreeFor(delims)
	codes1 := make([]int32, len(keys))
	h1, _ := ParallelHistogramsCodes(nil, keys, batchFunc{tree}, codes1, 4, nil)
	codes2 := make([]int32, len(keys))
	h2, _ := ParallelHistogramsCodes(nil, keys, treeAsFunc{tree}, codes2, 4, nil)
	for i := range codes1 {
		if codes1[i] != codes2[i] {
			t.Fatalf("codes differ at %d", i)
		}
	}
	if len(MergeHistograms(h1)) != len(MergeHistograms(h2)) {
		t.Fatal("histogram shapes differ")
	}
}

type batchFunc struct{ t *rangeidx.Tree[uint32] }

func (f batchFunc) Partition(k uint32) int               { return f.t.Partition(k) }
func (f batchFunc) Fanout() int                          { return f.t.Fanout() }
func (f batchFunc) LookupBatch(keys []uint32, o []int32) { f.t.LookupBatch(keys, o) }
