package sortalgo

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

// testCombLanesBranchFreeAgreement asserts the unrolled branch-free lane
// kernels (combLanes2/combLanes4) match combLanesGeneric byte for byte —
// same passes, same exchanges — for one key width and lane count.
func testCombLanesBranchFreeAgreement[K interface{ ~uint32 | ~uint64 }](t *testing.T, w int) {
	t.Helper()
	f := func(seed uint64, sz uint16) bool {
		nvec := int(sz%512) + 2
		n := nvec * w
		keys := gen.Uniform[K](n, 0, seed)
		vals := gen.RIDs[K](n)

		ak := append([]K(nil), keys...)
		av := append([]K(nil), vals...)
		switch w {
		case 2:
			combLanes2(ak, av, nvec)
		case 4:
			combLanes4(ak, av, nvec)
		}

		bk := append([]K(nil), keys...)
		bv := append([]K(nil), vals...)
		combLanesGeneric(bk, bv, nvec, w)

		for i := range ak {
			if ak[i] != bk[i] || av[i] != bv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The dispatcher pairs W=2 with 64-bit keys and W=4 with 32-bit keys, but
// the kernels are width-generic; test both widths at both lane counts so
// laneMask is exercised across the full domain.
func TestCombLanes2Agreement32(t *testing.T) { testCombLanesBranchFreeAgreement[uint32](t, 2) }
func TestCombLanes2Agreement64(t *testing.T) { testCombLanesBranchFreeAgreement[uint64](t, 2) }
func TestCombLanes4Agreement32(t *testing.T) { testCombLanesBranchFreeAgreement[uint32](t, 4) }
func TestCombLanes4Agreement64(t *testing.T) { testCombLanesBranchFreeAgreement[uint64](t, 4) }

// TestCombLanesSortsEachLane verifies the post-comb invariant the W-way
// merge depends on: after the production dispatcher runs, every lane is
// independently sorted and every payload still rides with its key, at
// both lane counts the sort uses (W=4 on 32-bit keys, W=2 on 64-bit keys).
func TestCombLanesSortsEachLane(t *testing.T) {
	t.Run("W=4/uint32", func(t *testing.T) { testCombLanesSortsEachLane[uint32](t) })
	t.Run("W=2/uint64", func(t *testing.T) { testCombLanesSortsEachLane[uint64](t) })
}

func testCombLanesSortsEachLane[K interface{ ~uint32 | ~uint64 }](t *testing.T) {
	const nvec = 257
	w := Lanes[K]()
	keys := gen.Uniform[K](nvec*w, 0, 3)
	vals := gen.RIDs[K](nvec * w)
	orig := append([]K(nil), keys...)
	combLanes(keys, vals, nvec, w)
	for i, v := range vals {
		if keys[i] != orig[v] {
			t.Fatalf("payload %d at %d does not follow its key", v, i)
		}
	}
	for l := 0; l < w; l++ {
		for v := 1; v < nvec; v++ {
			if keys[(v-1)*w+l] > keys[v*w+l] {
				t.Fatalf("lane %d unsorted at vector %d", l, v)
			}
		}
	}
}
