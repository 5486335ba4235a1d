package tune

import (
	"fmt"
	"math/bits"
	"testing"
)

// TestPlanSpillShape checks PlanSpill over n = 2^16…2^28 under fixed and
// input-relative budgets, at both key widths and 1, 2 and 4 workers.
// Above the planner's floor MemBytes stays inside the budget, and above
// 512 KiB, where the buffer clamps stop binding, each worker's formation
// slab inside an eighth of it. The floor is the larger of 512 KiB and the
// overflow phase at its least: the one-worker in-place sort of all n
// tuples at the cache bound that makes it smallest.
// Everywhere the overflow sort's workers number 1 to T, lines hold at
// least 64 tuples,
// and the expected bucket fill is at most half a segment unless the
// fanout already sits at the slab's cap. Extents are whole lines, at
// least 8 of them, and no larger than a quarter of a worker's chain fill
// needs.
func TestPlanSpillShape(t *testing.T) {
	const clampFloor = 512 << 10
	for _, threads := range []int{1, 2, 4} {
		for _, keyBits := range []int{32, 64} {
			pair := int64(keyBits / 4)
			for lg := 16; lg <= 28; lg++ {
				n := 1 << lg
				in := int64(n) * pair
				_, _, least := overflowSort(n, keyBits, 1, 1) // nothing fits: the least footprint
				floor := max(clampFloor, least+spillSlackBytes)
				for _, maxAux := range []int64{256 << 10, clampFloor, 4 << 20, 64 << 20, 1 << 30, in / 8, in / 64} {
					pl := PlanSpill(n, keyBits, maxAux, threads)
					fanout := int64(1) << pl.BucketBits
					slab := fanout * int64(pl.LineTuples) * pair
					fill := (int64(n) + fanout - 1) / fanout
					capBits := min(bits.Len64(uint64(maxAux/(8*64*pair)))-1, MaxBucketBits)
					where := fmt.Sprintf("n=2^%d w=%d aux=%d T=%d", lg, keyBits, maxAux, threads)
					switch {
					case pl.LineTuples < 64:
						t.Fatalf("%s: line %d < 64 tuples", where, pl.LineTuples)
					case maxAux >= floor && pl.MemBytes > maxAux:
						t.Fatalf("%s: MemBytes %d over budget", where, pl.MemBytes)
					case maxAux >= clampFloor && slab > maxAux/8:
						t.Fatalf("%s: slab %d over an eighth of the budget", where, slab)
					case pl.OverflowThreads < 1 || pl.OverflowThreads > threads:
						t.Fatalf("%s: %d overflow workers", where, pl.OverflowThreads)
					case fill > int64(pl.SegmentTuples)/2 && pl.BucketBits < capBits:
						t.Fatalf("%s: fill %d over half a %d-tuple segment at %d bits, slab allows %d",
							where, fill, pl.SegmentTuples, pl.BucketBits, capBits)
					}
					ext, line := pl.ExtentTuples, pl.LineTuples
					chain := (fill + int64(threads) - 1) / int64(threads)
					if ext%line != 0 || ext < 8*line || (ext > 8*line && int64(ext) >= chain/4+int64(line)) {
						t.Fatalf("%s: extent %d tuples for chain fill %d, line %d", where, ext, chain, line)
					}
				}
			}
		}
	}
}

// TestPlanSpillExtSpillShape pins the plan of the benchmark's ext-spill
// workload, 2^23 64-bit pairs under an eighth of their bytes (16 MiB), on
// 1, 2 and 4 workers: its uniform buckets take no overflow path, so the
// overflow phase's pricing must leave the shape formation and one-segment
// delivery run on unchanged.
func TestPlanSpillExtSpillShape(t *testing.T) {
	for _, c := range []struct {
		threads, seg, bits, line, extent int
	}{
		{1, 1 << 17, 7, 512, 16384},
		{2, 1 << 17, 7, 512, 8192},
		{4, 1 << 17, 7, 512, 4096},
	} {
		pl := PlanSpill(1<<23, 64, 16<<20, c.threads)
		if !pl.Spill || pl.SegmentTuples != c.seg || pl.BucketBits != c.bits || pl.LineTuples != c.line || pl.ExtentTuples != c.extent {
			t.Fatalf("T=%d: plan %+v, want segment %d, %d bucket bits, line %d, extent %d",
				c.threads, pl, c.seg, c.bits, c.line, c.extent)
		}
		if pl.MemBytes > 16<<20 {
			t.Fatalf("T=%d: MemBytes %d over the 16 MiB budget", c.threads, pl.MemBytes)
		}
	}
}
