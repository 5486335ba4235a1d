package part

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
)

func TestParallelScatterMatchesParallelNonInPlace(t *testing.T) {
	keys := gen.Uniform[uint64](1<<13, 0, 9)
	vals := gen.RIDs[uint64](len(keys))
	fn := pfunc.NewRadix[uint64](0, 6)
	hists, _ := ParallelHistograms(nil, keys, fn, 4, nil)
	aK := make([]uint64, len(keys))
	aV := make([]uint64, len(keys))
	ParallelScatter(nil, keys, vals, aK, aV, fn, nil, hists, 0, nil, nil)
	bK := make([]uint64, len(keys))
	bV := make([]uint64, len(keys))
	ParallelNonInPlace(nil, keys, vals, bK, bV, fn, 4, nil)
	for i := range aK {
		if aK[i] != bK[i] || aV[i] != bV[i] {
			t.Fatalf("scatter differs at %d", i)
		}
	}
}

func TestParallelScatterCodesDirect(t *testing.T) {
	keys := gen.Uniform[uint32](1<<13, 0, 11)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewHash[uint32](64)
	codes := make([]int32, len(keys))
	hists, _ := ParallelHistogramsCodes(nil, keys, fn, codes, 3, nil)
	dstK := make([]uint32, len(keys))
	dstV := make([]uint32, len(keys))
	ParallelScatter(nil, keys, vals, dstK, dstV, fn, codes, hists, 0, nil, nil)
	hist := MergeHistograms(hists)
	starts, _ := Starts(hist)
	for p := range hist {
		for i := starts[p]; i < starts[p]+hist[p]; i++ {
			if fn.Partition(dstK[i]) != p {
				t.Fatal("misplaced tuple")
			}
		}
	}
	if kv.ChecksumPairs(dstK, dstV) != kv.ChecksumPairs(keys, vals) {
		t.Fatal("multiset changed")
	}
}

func TestChunkBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero workers")
		}
	}()
	ChunkBounds(10, 0)
}
