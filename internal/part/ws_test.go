package part

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// sameTuples fails unless the two (key, payload) columns are identical.
func sameTuples[K kv.Key](t *testing.T, what string, aK, aV, bK, bV []K) {
	t.Helper()
	for i := range aK {
		if aK[i] != bK[i] || aV[i] != bV[i] {
			t.Fatalf("%s: nil workspace and workspace diverge at %d: (%d,%d) vs (%d,%d)",
				what, i, aK[i], aV[i], bK[i], bV[i])
		}
	}
}

// wsEquiv runs the same partitioning through every kernel with a nil
// workspace and with a workspace and verifies identical output.
func wsEquiv[K kv.Key](t *testing.T, keys []K, bits uint) {
	t.Helper()
	w := ws.New()
	fn := pfunc.NewRadix[K](0, bits)
	vals := gen.RIDs[K](len(keys))
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)

	n := len(keys)
	plainK, plainV := make([]K, n), make([]K, n)
	NonInPlaceOutOfCache(nil, keys, vals, plainK, plainV, fn, starts, nil)

	wsK, wsV := make([]K, n), make([]K, n)
	NonInPlaceOutOfCache(w, keys, vals, wsK, wsV, fn, starts, nil)
	sameTuples(t, "NonInPlaceOutOfCache", plainK, plainV, wsK, wsV)

	inK, inV := append([]K(nil), keys...), append([]K(nil), vals...)
	InPlaceOutOfCache(w, inK, inV, fn, hist)
	checkPartitioned(t, keys, vals, inK, inV, fn, hist)
	inNilK, inNilV := append([]K(nil), keys...), append([]K(nil), vals...)
	InPlaceOutOfCache(nil, inNilK, inNilV, fn, hist)
	sameTuples(t, "InPlaceOutOfCache", inNilK, inNilV, inK, inV)

	icK, icV := append([]K(nil), keys...), append([]K(nil), vals...)
	InPlaceInCache(w, icK, icV, fn, hist)
	checkPartitioned(t, keys, vals, icK, icV, fn, hist)
	icNilK, icNilV := append([]K(nil), keys...), append([]K(nil), vals...)
	InPlaceInCache(nil, icNilK, icNilV, fn, hist)
	sameTuples(t, "InPlaceInCache", icNilK, icNilV, icK, icV)

	// Both non-in-place kernels are stable, so they agree with each other.
	ncK, ncV := make([]K, n), make([]K, n)
	NonInPlaceInCache(w, keys, vals, ncK, ncV, fn, hist, nil)
	sameTuples(t, "NonInPlaceInCache", plainK, plainV, ncK, ncV)
	ncNilK, ncNilV := make([]K, n), make([]K, n)
	NonInPlaceInCache(nil, keys, vals, ncNilK, ncNilV, fn, hist, nil)
	sameTuples(t, "NonInPlaceInCache", ncNilK, ncNilV, ncK, ncV)
}

func TestWSKernelsMatchPlain(t *testing.T) {
	for name, keys := range workloads32(5000) {
		t.Run(name, func(t *testing.T) {
			wsEquiv(t, keys, 6)
		})
	}
	wsEquiv(t, gen.Uniform[uint64](5000, 1<<40, 9), 8)
}

func TestWSCodesScatterMatchesPlain(t *testing.T) {
	w := ws.New()
	keys := gen.Uniform[uint32](4000, 0, 11)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewHash[uint32](128)
	codes := make([]int32, len(keys))
	hist := HistogramCodes(keys, fn, codes)
	hists := [][]int{slices.Clone(hist)}

	n := len(keys)
	plainK, plainV := make([]uint32, n), make([]uint32, n)
	ParallelScatter(nil, keys, vals, plainK, plainV, fn, codes, hists, 0, nil, nil)

	wsK, wsV := make([]uint32, n), make([]uint32, n)
	ParallelScatter(w, keys, vals, wsK, wsV, fn, codes, hists, 0, nil, nil)
	sameTuples(t, "ParallelScatter with codes", plainK, plainV, wsK, wsV)

	// The kernel must not mutate the caller's histogram (it derives its
	// write cursors into pooled arrays instead).
	if !slices.Equal(hists[0], hist) {
		t.Fatal("ParallelScatter with codes mutated the caller's histogram")
	}
}

func TestWSScatterZeroAlloc(t *testing.T) {
	w := ws.New()
	keys := gen.Uniform[uint32](1<<14, 0, 21)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewRadix[uint32](0, 8)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	n := len(keys)
	dstK, dstV := make([]uint32, n), make([]uint32, n)

	// Warm once so line buffers and offset arrays enter the arena.
	NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, fn, starts, nil)
	if a := testing.AllocsPerRun(10, func() {
		NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, fn, starts, nil)
	}); a != 0 {
		t.Fatalf("warm NonInPlaceOutOfCache allocates %v times", a)
	}

	inK, inV := append([]uint32(nil), keys...), append([]uint32(nil), vals...)
	InPlaceOutOfCache(w, inK, inV, fn, hist)
	if a := testing.AllocsPerRun(10, func() {
		InPlaceOutOfCache(w, inK, inV, fn, hist)
	}); a != 0 {
		t.Fatalf("warm InPlaceOutOfCache allocates %v times", a)
	}

	InPlaceInCache(w, inK, inV, fn, hist)
	if a := testing.AllocsPerRun(10, func() {
		InPlaceInCache(w, inK, inV, fn, hist)
	}); a != 0 {
		t.Fatalf("warm InPlaceInCache allocates %v times", a)
	}

	NonInPlaceInCache(w, keys, vals, dstK, dstV, fn, hist, nil)
	if a := testing.AllocsPerRun(10, func() {
		NonInPlaceInCache(w, keys, vals, dstK, dstV, fn, hist, nil)
	}); a != 0 {
		t.Fatalf("warm NonInPlaceInCache allocates %v times", a)
	}

	// The generic dispatch arm (non-Radix fn) must stay zero-alloc too: the
	// radix specialization is a fast path, not a requirement.
	hfn := pfunc.NewHash[uint32](256)
	hh := Histogram(keys, hfn)
	hs, _ := Starts(hh)
	NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, hfn, hs, nil)
	if a := testing.AllocsPerRun(10, func() {
		NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, hfn, hs, nil)
	}); a != 0 {
		t.Fatalf("warm generic NonInPlaceOutOfCache allocates %v times", a)
	}

	// Unrolled code-driven scatter.
	codes := make([]int32, len(keys))
	ch := [][]int{HistogramCodes(keys, fn, codes)}
	ParallelScatter(w, keys, vals, dstK, dstV, fn, codes, ch, 0, nil, nil)
	if a := testing.AllocsPerRun(10, func() {
		ParallelScatter(w, keys, vals, dstK, dstV, fn, codes, ch, 0, nil, nil)
	}); a != 0 {
		t.Fatalf("warm one-worker ParallelScatter with codes allocates %v times", a)
	}
}

// TestMultiHistogramFlatZeroAlloc pins the flat padded layout's contract:
// one pooled buffer, no per-row allocations.
func TestMultiHistogramFlatZeroAlloc(t *testing.T) {
	w := ws.New()
	defer w.Close()
	keys := gen.Uniform[uint64](1<<14, 0, 23)
	ranges := [][2]uint{{0, 8}, {8, 16}, {16, 24}}
	var rows [3][]int
	flat := w.Ints(MultiHistogramFlatLen(ranges))
	defer w.PutInts(flat)
	if a := testing.AllocsPerRun(10, func() {
		MultiHistogramFlatInto(rows[:], flat, keys, ranges)
	}); a != 0 {
		t.Fatalf("MultiHistogramFlatInto allocates %v times", a)
	}
}

func TestMergeHistogramsInto(t *testing.T) {
	hists := [][]int{{1, 2, 3}, {4, 5, 6}, {0, 1, 0}}
	out := make([]int, 3)
	out[0] = 99 // must be cleared
	got := MergeHistogramsInto(out, hists)
	want := []int{5, 8, 9}
	for p := range want {
		if got[p] != want[p] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	plain := MergeHistograms(hists)
	for p := range want {
		if plain[p] != want[p] {
			t.Fatalf("MergeHistograms = %v", plain)
		}
	}
}

// TestThreadStartsInto checks that pooled (dirty) tables are fully
// overwritten.
func TestThreadStartsInto(t *testing.T) {
	hists := [][]int{{2, 0, 3}, {1, 4, 0}}
	// p0: t0 at 10 (2), t1 at 12 (1); p1: t0 at 13 (0), t1 at 13 (4);
	// p2: t0 at 17 (3), t1 at 20 (0).
	wantStarts := [][]int{{10, 13, 17}, {12, 13, 20}}
	wantGlobal := []int{10, 13, 17}
	starts := [][]int{{-1, -1, -1}, {-1, -1, -1}}
	global := []int{-1, -1, -1}
	gotStarts, gotGlobal := ThreadStartsInto(starts, global, hists, 10)
	for t2 := range wantStarts {
		for p := range wantStarts[t2] {
			if gotStarts[t2][p] != wantStarts[t2][p] {
				t.Fatalf("starts[%d][%d] = %d, want %d", t2, p, gotStarts[t2][p], wantStarts[t2][p])
			}
		}
	}
	for p := range wantGlobal {
		if gotGlobal[p] != wantGlobal[p] {
			t.Fatalf("global[%d] = %d, want %d", p, gotGlobal[p], wantGlobal[p])
		}
	}
}

func TestChunkBoundsInto(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 100, 1001} {
			want := ChunkBounds(n, workers)
			got := ChunkBoundsInto(make([]int, workers+1), n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("bounds(%d,%d)[%d] = %d, want %d", n, workers, i, got[i], want[i])
				}
			}
			if got[0] != 0 || got[workers] != n {
				t.Fatalf("bounds(%d,%d) endpoints %v", n, workers, got)
			}
		}
	}
}

// TestParallelWSMatchesPlain drives the parallel drivers with a workspace
// against the same drivers with a nil (allocating) workspace.
func TestParallelWSMatchesPlain(t *testing.T) {
	w := ws.New()
	defer w.Close()
	keys := gen.ZipfKeys[uint32](8000, 1<<20, 1.1, 17)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewRadix[uint32](4, 12)
	workers := 4
	n := len(keys)

	hists, bounds := ParallelHistograms(w, keys, fn, workers, nil)
	plainHists, plainBounds := ParallelHistograms(nil, keys, fn, workers, nil)
	for t2 := range plainHists {
		if bounds[t2+1] != plainBounds[t2+1] {
			t.Fatalf("bounds = %v, want %v", bounds, plainBounds)
		}
		for p := range plainHists[t2] {
			if hists[t2][p] != plainHists[t2][p] {
				t.Fatalf("hists[%d][%d] = %d, want %d", t2, p, hists[t2][p], plainHists[t2][p])
			}
		}
	}

	wsK, wsV := make([]uint32, n), make([]uint32, n)
	ParallelScatter(w, keys, vals, wsK, wsV, fn, nil, hists, 0, bounds, nil)
	plainK, plainV := make([]uint32, n), make([]uint32, n)
	ParallelScatter(nil, keys, vals, plainK, plainV, fn, nil, plainHists, 0, nil, nil)
	sameTuples(t, "ParallelScatter", plainK, plainV, wsK, wsV)
	w.PutMatrix(hists)
	w.PutInts(bounds)

	npK, npV := make([]uint32, n), make([]uint32, n)
	ParallelNonInPlace(w, keys, vals, npK, npV, fn, workers, nil)
	sameTuples(t, "ParallelNonInPlace", plainK, plainV, npK, npV)

	ipK, ipV := append([]uint32(nil), keys...), append([]uint32(nil), vals...)
	h2, b2 := ParallelInPlaceSharedNothing(w, ipK, ipV, fn, workers)
	for t2 := 0; t2 < workers; t2++ {
		seg := ipK[b2[t2]:b2[t2+1]]
		segV := ipV[b2[t2]:b2[t2+1]]
		checkPartitioned(t, keys[b2[t2]:b2[t2+1]], vals[b2[t2]:b2[t2+1]], seg, segV, fn, h2[t2])
	}
	ipNilK, ipNilV := append([]uint32(nil), keys...), append([]uint32(nil), vals...)
	ParallelInPlaceSharedNothing(nil, ipNilK, ipNilV, fn, workers)
	sameTuples(t, "ParallelInPlaceSharedNothing", ipNilK, ipNilV, ipK, ipV)
	w.PutMatrix(h2)
	w.PutInts(b2)
}
