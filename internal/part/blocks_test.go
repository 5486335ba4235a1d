package part

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/pfunc"
)

// collect gathers a Blocks result back into per-partition key/val slices.
func collect[K kv.Key](b *Blocks[K]) ([][]K, [][]K) {
	ks := make([][]K, len(b.Lists))
	vs := make([][]K, len(b.Lists))
	for p := range b.Lists {
		b.ForEach(p, func(bk, bv []K) {
			ks[p] = append(ks[p], bk...)
			vs[p] = append(vs[p], bv...)
		})
	}
	return ks, vs
}

func checkBlocks[K kv.Key, F pfunc.Func[K]](t *testing.T, b *Blocks[K], origK, origV []K, fn F) {
	t.Helper()
	ks, vs := collect(b)
	var allK, allV []K
	for p := range ks {
		if len(ks[p]) != b.Counts[p] {
			t.Fatalf("partition %d: list has %d tuples, Counts says %d", p, len(ks[p]), b.Counts[p])
		}
		for i, k := range ks[p] {
			if fn.Partition(k) != p {
				t.Fatalf("partition %d contains key %v of partition %d", p, k, fn.Partition(k))
			}
			_ = i
		}
		allK = append(allK, ks[p]...)
		allV = append(allV, vs[p]...)
	}
	if kv.ChecksumPairs(allK, allV) != kv.ChecksumPairs(origK, origV) {
		t.Fatal("tuple multiset changed")
	}
}

func TestToBlocksInPlace(t *testing.T) {
	sizes := []int{0, 1, 63, 64, 65, 1000, 10000, 1 << 15}
	for _, n := range sizes {
		orig := gen.Uniform[uint32](n, 0, uint64(n)+1)
		keys := append([]uint32(nil), orig...)
		vals := gen.RIDs[uint32](n)
		origV := append([]uint32(nil), vals...)
		fn := pfunc.NewRadix[uint32](0, 3)
		blocks := ToBlocksInPlaceParallel(keys, vals, fn, 64, 1, nil)
		checkBlocks(t, blocks, orig, origV, fn)
	}
}

func TestToBlocksInPlaceSkew(t *testing.T) {
	// All keys to one partition: worst case for the space invariant.
	keys := gen.AllEqual[uint32](10000, 5)
	vals := gen.RIDs[uint32](len(keys))
	orig := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)
	fn := pfunc.NewRadix[uint32](0, 4)
	blocks := ToBlocksInPlaceParallel(keys, vals, fn, 64, 1, nil)
	checkBlocks(t, blocks, orig, origV, fn)
	if blocks.Counts[5] != len(orig) {
		t.Fatalf("partition 5 has %d tuples", blocks.Counts[5])
	}
}

func TestToBlocksInPlaceZipf(t *testing.T) {
	keys := gen.ZipfKeys[uint32](1<<15, 1<<20, 1.2, 9)
	vals := gen.RIDs[uint32](len(keys))
	orig := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)
	fn := pfunc.NewHash[uint32](32)
	blocks := ToBlocksInPlaceParallel(keys, vals, fn, 128, 1, nil)
	checkBlocks(t, blocks, orig, origV, fn)
}

func TestToBlocksInPlaceQuick(t *testing.T) {
	f := func(raw []uint32, pb, bb uint8) bool {
		bits := uint(pb%5) + 1
		blockTuples := 16 << (bb % 4) // 16..128, multiples of L=16
		fn := pfunc.NewRadix[uint32](0, bits)
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		blocks := ToBlocksInPlaceParallel(keys, vals, fn, blockTuples, 1, nil)
		var allK, allV []uint32
		for p := range blocks.Lists {
			ok := true
			blocks.ForEach(p, func(bk, bv []uint32) {
				for _, k := range bk {
					if fn.Partition(k) != p {
						ok = false
					}
				}
				allK = append(allK, bk...)
				allV = append(allV, bv...)
			})
			if !ok {
				return false
			}
		}
		return kv.ChecksumPairs(allK, allV) == kv.ChecksumPairs(raw, gen.RIDs[uint32](len(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockStoreGeometry(t *testing.T) {
	ks := make([]uint32, 1000)
	vs := make([]uint32, 1000)
	store := NewBlockStore(ks, vs, 64, 3)
	if store.PrimarySlots() != 15 {
		t.Fatalf("PrimarySlots = %d", store.PrimarySlots())
	}
	if store.Slots() != 18 {
		t.Fatalf("Slots = %d", store.Slots())
	}
	bk, _ := store.Block(14)
	bk[0] = 7
	if ks[14*64] != 7 {
		t.Fatal("primary block does not alias the array")
	}
	sk, _ := store.Block(15) // first scratch slot
	sk[0] = 9
	if ks[15*64-40] == 9 {
		t.Fatal("scratch block aliases the array")
	}
}

func TestBlocks64(t *testing.T) {
	keys := gen.Uniform[uint64](5000, 0, 31)
	vals := gen.RIDs[uint64](len(keys))
	orig := append([]uint64(nil), keys...)
	origV := append([]uint64(nil), vals...)
	fn := pfunc.NewHash[uint64](8)
	blocks := ToBlocksInPlaceParallel(keys, vals, fn, 64, 1, nil)
	checkBlocks(t, blocks, orig, origV, fn)
}
