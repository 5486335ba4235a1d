package tune

import (
	"fmt"
	"math/bits"
	"testing"
)

// TestPlanSpillShape checks PlanSpill over n = 2^16…2^28 under fixed and
// input-relative budgets, at both key widths and 1, 2 and 4 workers.
// Above the planner's floor (512 KiB, where the buffer clamps stop
// binding) MemBytes stays inside the budget and each worker's formation
// slab inside an eighth of it. Everywhere lines hold at least 64 tuples,
// and the expected bucket fill is at most half a segment unless the
// fanout already sits at the slab's cap. Extents are whole lines, at
// least 8 of them, and no larger than a quarter of a worker's chain fill
// needs.
func TestPlanSpillShape(t *testing.T) {
	const floor = 512 << 10
	for _, threads := range []int{1, 2, 4} {
		for _, keyBits := range []int{32, 64} {
			pair := int64(keyBits / 4)
			for lg := 16; lg <= 28; lg++ {
				n := 1 << lg
				in := int64(n) * pair
				for _, maxAux := range []int64{256 << 10, floor, 4 << 20, 64 << 20, 1 << 30, in / 8, in / 64} {
					pl := PlanSpill(n, keyBits, maxAux, threads, nil)
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
					case maxAux >= floor && slab > maxAux/8:
						t.Fatalf("%s: slab %d over an eighth of the budget", where, slab)
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
