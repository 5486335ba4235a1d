package partsort

import (
	"encoding/binary"
	"testing"

	"repro/internal/rangeidx"
	"repro/internal/splitter"
)

// bytesToKeys decodes a fuzz payload into a key column.
func bytesToKeys(data []byte) []uint32 {
	keys := make([]uint32, len(data)/4)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	return keys
}

// FuzzSorts feeds arbitrary byte strings through all three sorting
// algorithms and checks the full contract: sorted output, preserved
// multiset, and LSB stability.
func FuzzSorts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(make([]byte, 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		orig := bytesToKeys(data)
		n := len(orig)
		origV := RIDs[uint32](n)

		runs := []struct {
			name   string
			stable bool
			sort   func(k, v []uint32)
		}{
			{"LSB", true, func(k, v []uint32) { SortLSB(k, v, &SortOptions{Threads: 2, Regions: 2}) }},
			{"MSB", false, func(k, v []uint32) { SortMSB(k, v, &SortOptions{Threads: 2, CacheTuples: 64}) }},
			{"MSB-NUMA", false, func(k, v []uint32) {
				SortMSB(k, v, &SortOptions{Threads: 2, Regions: 2, CacheTuples: 64})
			}},
			{"CMP", false, func(k, v []uint32) {
				SortCMP(k, v, &SortOptions{Threads: 2, CacheTuples: 64, RangeFanout: 8})
			}},
			// Leaves up to 4096 tuples reach the quicksort's partition
			// loop, not only its insertion sort.
			{"CMP-leaf", false, func(k, v []uint32) {
				SortCMP(k, v, &SortOptions{Threads: 2, CacheTuples: 4096})
			}},
		}
		for _, r := range runs {
			keys := append([]uint32(nil), orig...)
			vals := RIDs[uint32](n)
			r.sort(keys, vals)
			if !IsSorted(keys) {
				t.Fatalf("%s: not sorted", r.name)
			}
			if !SameMultiset(orig, origV, keys, vals) {
				t.Fatalf("%s: multiset changed", r.name)
			}
			if r.stable && !IsStableSorted(keys, vals) {
				t.Fatalf("%s: stability violated", r.name)
			}
		}
	})
}

// FuzzPartitionInPlace checks the in-place variants against the
// partitioning contract for arbitrary inputs and fanouts.
func FuzzPartitionInPlace(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, bits uint8) {
		keys := bytesToKeys(data)
		n := len(keys)
		vals := RIDs[uint32](n)
		orig := append([]uint32(nil), keys...)
		origV := append([]uint32(nil), vals...)
		fn := Radix[uint32](0, uint(bits%8)+1)
		hist := PartitionInPlace(keys, vals, fn, 64) // force the buffered path on larger inputs
		o := 0
		for p, h := range hist {
			for i := o; i < o+h; i++ {
				if fn.Partition(keys[i]) != p {
					t.Fatalf("tuple at %d misplaced", i)
				}
			}
			o += h
		}
		if o != n || !SameMultiset(orig, origV, keys, vals) {
			t.Fatal("contract violated")
		}
	})
}

// FuzzRangeIndex checks the range index's single-key and batch lookups
// against binary search over the refined delimiters.
func FuzzRangeIndex(f *testing.F) {
	f.Add([]byte{10, 0, 0, 0, 20, 0, 0, 0}, []byte{5, 0, 0, 0})
	// Nine keys: one full 8-key batch plus a tail.
	f.Add([]byte{10, 0, 0, 0, 20, 0, 0, 0, 20, 0, 0, 0}, []byte{
		0, 0, 0, 0, 9, 0, 0, 0, 10, 0, 0, 0, 11, 0, 0, 0, 19, 0, 0, 0,
		20, 0, 0, 0, 21, 0, 0, 0, 255, 255, 255, 255, 15, 0, 0, 0})
	f.Fuzz(func(t *testing.T, delimBytes, keyBytes []byte) {
		delims := bytesToKeys(delimBytes)
		if len(delims) > 2000 {
			delims = delims[:2000]
		}
		// Delimiters must be sorted; sort them with the library itself.
		rids := RIDs[uint32](len(delims))
		SortLSB(delims, rids, nil)
		ref := splitter.RefineDuplicates(delims)
		tree := rangeidx.NewTreeFor(ref.Delims)
		keys := bytesToKeys(keyBytes)
		out := make([]int32, len(keys))
		tree.LookupBatch(keys, out)
		for i, k := range keys {
			want := rangeidx.Search(ref.Delims, k)
			if got := tree.Partition(k); got != want {
				t.Fatalf("Partition(%d) = %d, want %d", k, got, want)
			}
			if int(out[i]) != want {
				t.Fatalf("LookupBatch[%d] (key %d) = %d, want %d", i, k, out[i], want)
			}
		}
	})
}
