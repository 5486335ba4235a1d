package part

import (
	"testing"

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
