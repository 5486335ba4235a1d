package partsort

import (
	"testing"

	"repro/internal/gen"
)

func TestPublicHistogramAndColumns(t *testing.T) {
	n := 1 << 12
	keys := gen.Uniform[uint32](n, 0, 3)
	fn := Hash[uint32](16)
	hist := Histogram(keys, fn)
	total := 0
	for _, h := range hist {
		total += h
	}
	if total != n {
		t.Fatalf("histogram total %d", total)
	}

	colA := RIDs[uint32](n)
	colB := gen.Uniform[uint32](n, 100, 5)
	dstKey := make([]uint32, n)
	dst := [][]uint32{make([]uint32, n), make([]uint32, n)}
	hist2 := PartitionColumns(keys, [][]uint32{colA, colB}, dstKey, dst, fn)
	o := 0
	for p, h := range hist2 {
		for i := o; i < o+h; i++ {
			if fn.Partition(dstKey[i]) != p {
				t.Fatal("misplaced tuple")
			}
		}
		o += h
	}
	// colA carries original positions: cross-check colB moved with it.
	for i := range dstKey {
		if dst[1][i] != colB[dst[0][i]] {
			t.Fatalf("columns desynchronized at %d", i)
		}
	}
}

func TestIsStableSortedNegativeCases(t *testing.T) {
	if IsStableSorted([]uint32{2, 1}, []uint32{0, 1}) {
		t.Fatal("unsorted keys accepted")
	}
	if IsStableSorted([]uint32{1, 1}, []uint32{1, 0}) {
		t.Fatal("payload inversion accepted")
	}
	if !IsStableSorted([]uint32{1, 1, 2}, []uint32{0, 1, 0}) {
		t.Fatal("valid stable order rejected")
	}
}
