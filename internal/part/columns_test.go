package part

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
)

func TestNonInPlaceOutOfCacheCols(t *testing.T) {
	n := 1 << 13
	keys := gen.Uniform[uint32](n, 0, 3)
	colA := gen.RIDs[uint32](n)
	colB := gen.Uniform[uint32](n, 1000, 5)
	colC := gen.Uniform[uint32](n, 0, 9)
	fn := pfunc.NewHash[uint32](64)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)

	dstKey := make([]uint32, n)
	dst := [][]uint32{make([]uint32, n), make([]uint32, n), make([]uint32, n)}
	NonInPlaceOutOfCacheCols(keys, [][]uint32{colA, colB, colC}, dstKey, dst, fn, starts)

	// Equivalent to partitioning each payload column with the 2-column
	// kernel: compare against the reference for each column.
	for c, src := range [][]uint32{colA, colB, colC} {
		refK := make([]uint32, n)
		refV := make([]uint32, n)
		NonInPlaceOutOfCache(nil, keys, src, refK, refV, fn, starts, nil)
		for i := range refK {
			if dstKey[i] != refK[i] || dst[c][i] != refV[i] {
				t.Fatalf("column %d differs from reference at %d", c, i)
			}
		}
	}
}

func TestColsZeroPayloads(t *testing.T) {
	// Key-only partitioning: zero payload columns.
	n := 4096
	keys := gen.Uniform[uint64](n, 0, 7)
	fn := pfunc.NewRadix[uint64](0, 4)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	dstKey := make([]uint64, n)
	NonInPlaceOutOfCacheCols(keys, nil, dstKey, nil, fn, starts)
	o := 0
	for p, h := range hist {
		for i := o; i < o+h; i++ {
			if fn.Partition(dstKey[i]) != p {
				t.Fatal("misplaced key")
			}
		}
		o += h
	}
	if kv.ChecksumOf(dstKey) != kv.ChecksumOf(keys) {
		t.Fatal("keys changed")
	}
}

func TestColsValidation(t *testing.T) {
	keys := []uint32{1, 2}
	fn := pfunc.NewRadix[uint32](0, 1)
	starts := []int{0, 1}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("count mismatch", func() {
		NonInPlaceOutOfCacheCols(keys, [][]uint32{{1, 2}}, make([]uint32, 2), nil, fn, starts)
	})
	mustPanic("length mismatch", func() {
		NonInPlaceOutOfCacheCols(keys, [][]uint32{{1}}, make([]uint32, 2), [][]uint32{make([]uint32, 2)}, fn, starts)
	})
}

func TestInterleaveRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		keys := raw
		vals := gen.RIDs[uint32](len(raw))
		packed := InterleaveTuples(keys, vals)
		if len(packed) != 2*len(keys) {
			return false
		}
		k2, v2 := DeinterleaveTuples(packed)
		for i := range keys {
			if k2[i] != keys[i] || v2[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedPartitionEquivalence(t *testing.T) {
	// Partitioning the interleaved layout with a wide "tuple" equals
	// partitioning columns separately: the paper's two buffering layouts
	// agree on the result.
	n := 1 << 12
	keys := gen.Uniform[uint32](n, 0, 11)
	vals := gen.RIDs[uint32](n)
	fn := pfunc.NewRadix[uint32](0, 5)
	hist := Histogram(keys, fn)

	colK := make([]uint32, n)
	colV := make([]uint32, n)
	NonInPlaceInCache(nil, keys, vals, colK, colV, fn, hist)

	packed := InterleaveTuples(keys, vals)
	outPacked := make([]uint32, 2*n)
	// Partition the packed pairs using the key of each pair.
	off, _ := Starts(hist)
	for i := 0; i < n; i++ {
		p := fn.Partition(packed[2*i])
		o := off[p]
		off[p] = o + 1
		outPacked[2*o] = packed[2*i]
		outPacked[2*o+1] = packed[2*i+1]
	}
	k2, v2 := DeinterleaveTuples(outPacked)
	for i := range colK {
		if k2[i] != colK[i] || v2[i] != colV[i] {
			t.Fatalf("layouts disagree at %d", i)
		}
	}
}
