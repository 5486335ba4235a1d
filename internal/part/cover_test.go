package part

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
)

func TestToBlocksInPlaceParallelDirect(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for _, n := range []int{0, 100, 5000, 1 << 15} {
			orig := gen.Uniform[uint32](n, 0, uint64(n+workers)+1)
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](n)
			origV := append([]uint32(nil), vals...)
			fn := pfunc.NewHash[uint32](16)
			blocks := ToBlocksInPlaceParallel(keys, vals, fn, 64, workers, nil)
			checkBlocks(t, blocks, orig, origV, fn)
		}
	}
}

func TestToBlocksParallelMoreWorkersThanBlocks(t *testing.T) {
	// 100 tuples, 64-tuple blocks: only one full block; workers clamp.
	keys := gen.Uniform[uint32](100, 0, 7)
	vals := gen.RIDs[uint32](100)
	orig := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)
	fn := pfunc.NewRadix[uint32](0, 2)
	blocks := ToBlocksInPlaceParallel(keys, vals, fn, 64, 16, nil)
	checkBlocks(t, blocks, orig, origV, fn)
}

func TestParallelScatterMatchesParallelNonInPlace(t *testing.T) {
	keys := gen.Uniform[uint64](1<<13, 0, 9)
	vals := gen.RIDs[uint64](len(keys))
	fn := pfunc.NewRadix[uint64](0, 6)
	hists, _ := ParallelHistograms(nil, keys, fn, 4, nil)
	aK := make([]uint64, len(keys))
	aV := make([]uint64, len(keys))
	ParallelScatter(nil, keys, vals, aK, aV, fn, hists, 0, nil, nil)
	bK := make([]uint64, len(keys))
	bV := make([]uint64, len(keys))
	ParallelNonInPlace(nil, keys, vals, bK, bV, fn, 4, nil)
	for i := range aK {
		if aK[i] != bK[i] || aV[i] != bV[i] {
			t.Fatalf("scatter differs at %d", i)
		}
	}
}

func TestParallelNonInPlaceCodesDirect(t *testing.T) {
	keys := gen.Uniform[uint32](1<<13, 0, 11)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewHash[uint32](64)
	codes := make([]int32, len(keys))
	hists, _ := ParallelHistogramsCodes(nil, keys, fn, codes, 3, nil)
	dstK := make([]uint32, len(keys))
	dstV := make([]uint32, len(keys))
	ParallelNonInPlaceCodes(nil, keys, vals, dstK, dstV, codes, hists, 0, nil)
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

func TestNewBlockStoreValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero block size")
		}
	}()
	NewBlockStore([]uint32{}, []uint32{}, 0, 1)
}

func TestChunkBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero workers")
		}
	}()
	ChunkBounds(10, 0)
}
