package part

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/pfunc"
)

func TestRepackLists(t *testing.T) {
	// Build blocks, then artificially fragment lists by splitting fills.
	keys := gen.Uniform[uint32](5000, 0, 41)
	vals := gen.RIDs[uint32](len(keys))
	fn := pfunc.NewHash[uint32](8)
	blocks := ToBlocksInPlaceParallel(keys, vals, fn, 64, 1, nil)

	before := make([][]uint32, len(blocks.Lists))
	beforeV := make([][]uint32, len(blocks.Lists))
	for p := range blocks.Lists {
		blocks.ForEach(p, func(bk, bv []uint32) {
			before[p] = append(before[p], bk...)
			beforeV[p] = append(beforeV[p], bv...)
		})
	}

	RepackLists(blocks, 4)
	for p, list := range blocks.Lists {
		var after, afterV []uint32
		blocks.ForEach(p, func(bk, bv []uint32) {
			after = append(after, bk...)
			afterV = append(afterV, bv...)
		})
		if kv.ChecksumPairs(after, afterV) != kv.ChecksumPairs(before[p], beforeV[p]) {
			t.Fatalf("partition %d changed during repack", p)
		}
		for i, ref := range list {
			if i < len(list)-1 && int(ref.Len) != blocks.Store.B {
				t.Fatalf("partition %d block %d partial after repack", p, i)
			}
		}
	}
}

func TestRepackFragmentedLists(t *testing.T) {
	// Simulate concatenated per-thread lists: many partial blocks.
	const b = 16
	n := 10 * b
	storeK := make([]uint32, 20*b)
	storeV := make([]uint32, 20*b)
	store := NewBlockStore(storeK, storeV, b, 0)
	blocks := &Blocks[uint32]{Store: store, Lists: make([][]BlockRef, 1), Counts: []int{0}}
	// Fill 10 blocks with varying partial lengths.
	lens := []int32{16, 3, 16, 1, 7, 16, 16, 2, 9, 5}
	rng := gen.NewRNG(7)
	var wantK, wantV []uint32
	for i, l := range lens {
		ks, vs := store.Block(int32(i))
		for j := int32(0); j < l; j++ {
			ks[j] = rng.Uint32()
			vs[j] = rng.Uint32()
			wantK = append(wantK, ks[j])
			wantV = append(wantV, vs[j])
		}
		blocks.Lists[0] = append(blocks.Lists[0], BlockRef{ID: int32(i), Len: l})
		blocks.Counts[0] += int(l)
	}
	_ = n
	RepackLists(blocks, 2)
	var gotK, gotV []uint32
	blocks.ForEach(0, func(bk, bv []uint32) {
		gotK = append(gotK, bk...)
		gotV = append(gotV, bv...)
	})
	if len(gotK) != len(wantK) {
		t.Fatalf("repack lost tuples: %d vs %d", len(gotK), len(wantK))
	}
	// Repack preserves order (stable slide-forward).
	for i := range wantK {
		if gotK[i] != wantK[i] || gotV[i] != wantV[i] {
			t.Fatalf("repack reordered tuples at %d", i)
		}
	}
	list := blocks.Lists[0]
	for i, ref := range list {
		if i < len(list)-1 && ref.Len != int32(b) {
			t.Fatalf("block %d partial after repack", i)
		}
	}
}

func TestShuffleBlocksInPlace(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 100, 5000, 1 << 15} {
			orig := gen.Uniform[uint32](n, 0, uint64(n)+3)
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](n)
			origV := append([]uint32(nil), vals...)
			fn := pfunc.NewRadix[uint32](0, 4)
			blocks := ToBlocksInPlaceParallel(keys, vals, fn, 64, 1, nil)
			starts := ShuffleBlocksInPlace(blocks, ShuffleOptions{Workers: workers})
			if starts[len(starts)-1] != n {
				t.Fatalf("workers=%d n=%d: starts end at %d", workers, n, starts[len(starts)-1])
			}
			for p := 0; p < fn.Fanout(); p++ {
				for i := starts[p]; i < starts[p+1]; i++ {
					if fn.Partition(keys[i]) != p {
						t.Fatalf("workers=%d n=%d: tuple at %d in wrong partition", workers, n, i)
					}
				}
			}
			if kv.ChecksumPairs(keys, vals) != kv.ChecksumPairs(orig, origV) {
				t.Fatalf("workers=%d n=%d: multiset changed", workers, n)
			}
		}
	}
}

func TestShuffleBlocksSkew(t *testing.T) {
	keys := gen.ZipfKeys[uint32](1<<14, 1<<20, 1.2, 5)
	orig := append([]uint32(nil), keys...)
	vals := gen.RIDs[uint32](len(keys))
	origV := append([]uint32(nil), vals...)
	fn := pfunc.NewHash[uint32](16)
	blocks := ToBlocksInPlaceParallel(keys, vals, fn, 128, 1, nil)
	starts := ShuffleBlocksInPlace(blocks, ShuffleOptions{Workers: 4})
	for p := 0; p < 16; p++ {
		for i := starts[p]; i < starts[p+1]; i++ {
			if fn.Partition(keys[i]) != p {
				t.Fatal("tuple in wrong partition")
			}
		}
	}
	if kv.ChecksumPairs(keys, vals) != kv.ChecksumPairs(orig, origV) {
		t.Fatal("multiset changed")
	}
}

func TestShuffleBlocksQuick(t *testing.T) {
	f := func(raw []uint32, pb, w uint8) bool {
		bits := uint(pb%4) + 1
		workers := int(w%4) + 1
		fn := pfunc.NewRadix[uint32](0, bits)
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		blocks := ToBlocksInPlaceParallel(keys, vals, fn, 16, 1, nil)
		starts := ShuffleBlocksInPlace(blocks, ShuffleOptions{Workers: workers})
		for p := 0; p < fn.Fanout(); p++ {
			for i := starts[p]; i < starts[p+1]; i++ {
				if fn.Partition(keys[i]) != p {
					return false
				}
			}
		}
		return kv.ChecksumPairs(keys, vals) ==
			kv.ChecksumPairs(raw, gen.RIDs[uint32](len(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleBlocksNUMAMetering(t *testing.T) {
	topo := numa.NewTopology(4)
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 51)
	vals := gen.RIDs[uint32](n)
	fn := pfunc.NewRadix[uint32](0, 4)
	blocks := ToBlocksInPlaceParallel(keys, vals, fn, 64, 1, nil)
	bounds := []int{0, n / 4, n / 2, 3 * n / 4, n}
	ShuffleBlocksInPlace(blocks, ShuffleOptions{
		Workers: 4,
		Topo:    topo,
		RegionOfTuple: func(i int) numa.Region {
			for r := 1; r < 5; r++ {
				if i < bounds[r] {
					return numa.Region(r - 1)
				}
			}
			return 3
		},
	})
	tupleBytes := uint64(8) // 4-byte key + 4-byte payload
	// Section 3.3.2: in-place block shuffling crosses the interconnect at
	// most twice per tuple (read leg + write leg).
	if got, bound := topo.RemoteBytes(), 2*uint64(n)*tupleBytes; got > bound {
		t.Fatalf("remote bytes %d exceed the 2-crossing bound %d", got, bound)
	}
	if topo.RemoteBytes() == 0 {
		t.Fatal("expected some remote transfers on 4 regions")
	}
}
