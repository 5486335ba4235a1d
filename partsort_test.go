package partsort

import (
	"sort"
	"testing"

	"repro/internal/gen"
)

func TestPublicPartition(t *testing.T) {
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 1)
	vals := RIDs[uint32](n)
	dstK := make([]uint32, n)
	dstV := make([]uint32, n)
	fn := Radix[uint32](0, 8)
	hist := Partition(keys, vals, dstK, dstV, fn, 4)
	if len(hist) != 256 {
		t.Fatalf("histogram size %d", len(hist))
	}
	o := 0
	for p, h := range hist {
		for i := o; i < o+h; i++ {
			if fn.Partition(dstK[i]) != p {
				t.Fatal("misplaced tuple")
			}
		}
		o += h
	}
	if !SameMultiset(keys, vals, dstK, dstV) {
		t.Fatal("multiset changed")
	}
}

func TestPublicPartitionInPlaceBothLayers(t *testing.T) {
	for _, n := range []int{1 << 10, 1 << 15} { // below and above the cache threshold
		keys := gen.Uniform[uint64](n, 0, 3)
		vals := RIDs[uint64](n)
		origK := append([]uint64(nil), keys...)
		origV := append([]uint64(nil), vals...)
		fn := Hash[uint64](16)
		hist := PartitionInPlace(keys, vals, fn, 1<<12)
		o := 0
		for p, h := range hist {
			for i := o; i < o+h; i++ {
				if fn.Partition(keys[i]) != p {
					t.Fatal("misplaced tuple")
				}
			}
			o += h
		}
		if !SameMultiset(origK, origV, keys, vals) {
			t.Fatal("multiset changed")
		}
	}
}

func TestPublicPartitionInPlaceShared(t *testing.T) {
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 5)
	vals := RIDs[uint32](n)
	origK := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)
	fn := Hash[uint32](8)
	hist := PartitionInPlaceShared(keys, vals, fn, 4)
	o := 0
	for p, h := range hist {
		for i := o; i < o+h; i++ {
			if fn.Partition(keys[i]) != p {
				t.Fatal("misplaced tuple")
			}
		}
		o += h
	}
	if !SameMultiset(origK, origV, keys, vals) {
		t.Fatal("multiset changed")
	}
}

func TestPublicSorts(t *testing.T) {
	n := 1 << 15
	mk := func() ([]uint32, []uint32) {
		return gen.ZipfKeys[uint32](n, 1<<20, 1.0, 9), RIDs[uint32](n)
	}
	origK, origV := mk()

	type runFn func(k, v []uint32)
	runs := map[string]runFn{
		"LSB": func(k, v []uint32) { SortLSB(k, v, &SortOptions{Threads: 4, Regions: 2}) },
		"MSB": func(k, v []uint32) { SortMSB(k, v, &SortOptions{Threads: 4, Regions: 2, CacheTuples: 2048}) },
		"CMP": func(k, v []uint32) { SortCMP(k, v, &SortOptions{Threads: 4, Regions: 2, CacheTuples: 2048}) },
		"nil": func(k, v []uint32) { SortLSB(k, v, nil) },
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			keys, vals := mk()
			run(keys, vals)
			if !IsSorted(keys) {
				t.Fatal("not sorted")
			}
			if !SameMultiset(origK, origV, keys, vals) {
				t.Fatal("multiset changed")
			}
			if name == "LSB" || name == "nil" {
				if !IsStableSorted(keys, vals) {
					t.Fatal("LSB must be stable")
				}
			}
		})
	}
}

func TestPublicRangeIndex(t *testing.T) {
	delims := gen.Uniform[uint32](999, 0, 13)
	sort.Slice(delims, func(i, j int) bool { return delims[i] < delims[j] })
	ix := NewRangeIndex(delims)
	if ix.Fanout() != 1000 {
		t.Fatalf("Fanout = %d", ix.Fanout())
	}
	keys := gen.Uniform[uint32](5000, 0, 17)
	out := make([]int32, len(keys))
	ix.LookupBatch(keys, out)
	for i, k := range keys {
		want := sort.Search(len(delims), func(j int) bool { return delims[j] > k })
		if ix.Lookup(k) != want || int(out[i]) != want {
			t.Fatalf("Lookup(%d) = %d/%d, want %d", k, ix.Lookup(k), out[i], want)
		}
	}
}

func TestPublicDictionary(t *testing.T) {
	keys := gen.Uniform[uint64](1000, 0, 19)
	d := BuildDictionary(keys)
	codes, err := d.EncodeAll(keys)
	if err != nil {
		t.Fatal(err)
	}
	rids := RIDs[uint64](len(codes))
	SortLSB(codes, rids, &SortOptions{Threads: 2})
	if !IsSorted(codes) {
		t.Fatal("codes not sorted")
	}
	back, err := d.DecodeAll(codes)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(back) {
		t.Fatal("order-preserving decode violated")
	}
}

func TestPublicValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("mismatched pair", func() { SortLSB([]uint32{1, 2}, []uint32{1}, nil) })
	mustPanic("mismatched dst", func() {
		Partition([]uint32{1}, []uint32{1}, []uint32{}, []uint32{}, Hash[uint32](2), 1)
	})
}

// TestSortCMPSingleThreadPeakAux pins single-threaded SortCMP to the
// in-place layout: with a warm workspace, 2^18 64-bit pairs peak below
// the 2·n·8 bytes a linear tmp pair alone would take.
func TestSortCMPSingleThreadPeakAux(t *testing.T) {
	const n = 1 << 18
	w := NewWorkspace()
	defer w.Close()
	var st SortStats
	opt := &SortOptions{Threads: 1, Workspace: w, Stats: &st}
	for run := 0; run < 2; run++ { // the second run is warm
		keys, vals := gen.Uniform[uint64](n, 0, 13), RIDs[uint64](n)
		origK, origV := append([]uint64(nil), keys...), append([]uint64(nil), vals...)
		st = SortStats{}
		SortCMP(keys, vals, opt)
		if !IsSorted(keys) || !SameMultiset(origK, origV, keys, vals) {
			t.Fatal("SortCMP output is not a sorted permutation of its input")
		}
	}
	if limit := uint64(2 * n * 8); st.PeakAuxBytes == 0 || st.PeakAuxBytes >= limit {
		t.Fatalf("warm PeakAuxBytes %d, want 1..%d", st.PeakAuxBytes, limit-1)
	}
}
