package sortalgo

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
)

func TestInsertionSort(t *testing.T) {
	for name, orig := range sortWorkloads32(64) {
		keys := append([]uint32(nil), orig...)
		vals := gen.RIDs[uint32](len(keys))
		origV := append([]uint32(nil), vals...)
		InsertionSort(keys, vals)
		t.Run(name, func(t *testing.T) {
			checkSorted(t, orig, origV, keys, vals, true)
		})
	}
}

func TestCombSortScalar(t *testing.T) {
	for name, orig := range sortWorkloads32(2000) {
		keys := append([]uint32(nil), orig...)
		vals := gen.RIDs[uint32](len(keys))
		origV := append([]uint32(nil), vals...)
		CombSortScalar(keys, vals)
		t.Run(name, func(t *testing.T) {
			checkSorted(t, orig, origV, keys, vals, false)
		})
	}
}

func TestCombSorterSortInto(t *testing.T) {
	cs := NewCombSorter[uint32](4096)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1000, 4095, 4096} {
		keys := gen.Uniform[uint32](n, 0, uint64(n)+11)
		vals := gen.RIDs[uint32](n)
		dstK := make([]uint32, n)
		dstV := make([]uint32, n)
		cs.SortInto(keys, vals, dstK, dstV)
		checkSorted(t, keys, vals, dstK, dstV, false)
	}
}

func TestCombSorterMaxKeyPayloads(t *testing.T) {
	// Real MaxKey keys must keep their payloads despite MaxKey padding.
	keys := []uint32{5, ^uint32(0), 1, ^uint32(0), 9, 2, 7} // n=7, not a lane multiple
	vals := []uint32{0, 1, 2, 3, 4, 5, 6}
	cs := NewCombSorter[uint32](16)
	dstK := make([]uint32, len(keys))
	dstV := make([]uint32, len(keys))
	cs.SortInto(keys, vals, dstK, dstV)
	checkSorted(t, keys, vals, dstK, dstV, false)
	if dstK[5] != ^uint32(0) || dstK[6] != ^uint32(0) {
		t.Fatalf("MaxKey keys misplaced: %v", dstK)
	}
	got := map[uint32]bool{dstV[5]: true, dstV[6]: true}
	if !got[1] || !got[3] {
		t.Fatalf("MaxKey payloads lost: %v", dstV)
	}
}

func TestCombSorterInPlaceAliasing(t *testing.T) {
	keys := gen.Uniform[uint32](1000, 0, 77)
	orig := append([]uint32(nil), keys...)
	vals := gen.RIDs[uint32](len(keys))
	origV := append([]uint32(nil), vals...)
	cs := NewCombSorter[uint32](1000)
	cs.SortInPlace(keys, vals)
	checkSorted(t, orig, origV, keys, vals, false)
}

func TestCombSorterGrowsBuffer(t *testing.T) {
	cs := NewCombSorter[uint32](8)
	keys := gen.Uniform[uint32](1024, 0, 3)
	vals := gen.RIDs[uint32](1024)
	dstK := make([]uint32, 1024)
	dstV := make([]uint32, 1024)
	cs.SortInto(keys, vals, dstK, dstV)
	checkSorted(t, keys, vals, dstK, dstV, false)
}

func TestCombSorter64(t *testing.T) {
	cs := NewCombSorter[uint64](2048)
	keys := gen.Uniform[uint64](2000, 0, 13)
	vals := gen.RIDs[uint64](2000)
	dstK := make([]uint64, 2000)
	dstV := make([]uint64, 2000)
	cs.SortInto(keys, vals, dstK, dstV)
	checkSorted(t, keys, vals, dstK, dstV, false)
}

func TestCombSorterQuick(t *testing.T) {
	cs := NewCombSorter[uint32](1 << 12)
	f := func(raw []uint32) bool {
		vals := gen.RIDs[uint32](len(raw))
		dstK := make([]uint32, len(raw))
		dstV := make([]uint32, len(raw))
		cs.SortInto(raw, vals, dstK, dstV)
		return kv.IsSorted(dstK) &&
			kv.ChecksumPairs(dstK, dstV) == kv.ChecksumPairs(raw, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLanes(t *testing.T) {
	if Lanes[uint32]() != 4 || Lanes[uint64]() != 2 {
		t.Fatal("lane counts should match 128-bit SSE")
	}
}

func TestMergeSortKWay(t *testing.T) {
	for _, k := range []int{2, 4, 16} {
		for name, orig := range sortWorkloads32(5000) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			tmpK := make([]uint32, len(keys))
			tmpV := make([]uint32, len(keys))
			MergeSortKWay(keys, vals, tmpK, tmpV, k, 256)
			t.Run(name, func(t *testing.T) {
				checkSorted(t, orig, origV, keys, vals, false)
			})
		}
	}
}

func TestQuicksort(t *testing.T) {
	for name, orig := range sortWorkloads32(5000) {
		keys := append([]uint32(nil), orig...)
		vals := gen.RIDs[uint32](len(keys))
		origV := append([]uint32(nil), vals...)
		Quicksort(keys, vals)
		t.Run(name, func(t *testing.T) {
			checkSorted(t, orig, origV, keys, vals, false)
		})
	}
}
