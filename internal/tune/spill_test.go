package tune

import (
	"math/bits"
	"testing"
)

// TestPlanSpillShape checks PlanSpill over n = 2^16…2^28 under fixed and
// input-relative budgets, at both key widths. Above the planner's floor
// (512 KiB, where the buffer clamps stop binding) MemBytes and the
// formation slab stay inside their budgets. Everywhere lines hold at least
// 64 tuples, and the expected bucket fill is at most half a segment unless
// the fanout already sits at the slab's cap. Extents are whole lines, at
// least 16 of them, and no larger than a quarter of the fill needs.
func TestPlanSpillShape(t *testing.T) {
	const floor = 512 << 10
	for _, keyBits := range []int{32, 64} {
		pair := int64(keyBits / 4)
		for lg := 16; lg <= 28; lg++ {
			n := 1 << lg
			in := int64(n) * pair
			for _, maxAux := range []int64{256 << 10, floor, 4 << 20, 64 << 20, 1 << 30, in / 8, in / 64} {
				pl := PlanSpill(n, keyBits, maxAux, nil)
				fanout := int64(1) << pl.BucketBits
				slab := fanout * int64(pl.LineTuples) * pair
				fill := (int64(n) + fanout - 1) / fanout
				capBits := min(bits.Len64(uint64(maxAux/(8*64*pair)))-1, MaxBucketBits)
				switch {
				case pl.LineTuples < 64:
					t.Fatalf("n=2^%d w=%d aux=%d: line %d < 64 tuples", lg, keyBits, maxAux, pl.LineTuples)
				case maxAux >= floor && pl.MemBytes > maxAux:
					t.Fatalf("n=2^%d w=%d aux=%d: MemBytes %d over budget", lg, keyBits, maxAux, pl.MemBytes)
				case maxAux >= floor && slab > maxAux/8:
					t.Fatalf("n=2^%d w=%d aux=%d: slab %d over an eighth of the budget", lg, keyBits, maxAux, slab)
				case fill > int64(pl.SegmentTuples)/2 && pl.BucketBits < capBits:
					t.Fatalf("n=2^%d w=%d aux=%d: fill %d over half a %d-tuple segment at %d bits, slab allows %d",
						lg, keyBits, maxAux, fill, pl.SegmentTuples, pl.BucketBits, capBits)
				}
				ext, line := pl.ExtentTuples, pl.LineTuples
				if ext%line != 0 || ext < 16*line || (ext > 16*line && int64(ext) >= fill/4+int64(line)) {
					t.Fatalf("n=2^%d w=%d aux=%d: extent %d tuples for fill %d, line %d", lg, keyBits, maxAux, ext, fill, line)
				}
			}
		}
	}
}
