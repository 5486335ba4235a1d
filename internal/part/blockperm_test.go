package part

import (
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// checkBlockPerm runs the kernel and verifies the three partition
// postconditions: starts form the exact histogram prefix, every tuple lies
// inside its partition's range, and the key/val multiset is unchanged.
func checkBlockPerm[K kv.Key, F pfunc.Func[K]](t *testing.T, w *ws.Workspace, keys []K, fn F, blockTuples, workers int) []int {
	t.Helper()
	n := len(keys)
	vals := gen.RIDs[K](n)
	origK := append([]K(nil), keys...)
	origV := append([]K(nil), vals...)
	hist := Histogram(keys, fn)
	wantStarts, _ := Starts(hist)

	starts := BlockPermute(w, keys, vals, fn, blockTuples, workers, nil, nil, nil)
	if len(starts) != fn.Fanout()+1 || starts[fn.Fanout()] != n {
		t.Fatalf("starts shape wrong: len %d end %d (n=%d)", len(starts), starts[len(starts)-1], n)
	}
	for p := 0; p < fn.Fanout(); p++ {
		if starts[p] != wantStarts[p] {
			t.Fatalf("starts[%d] = %d, histogram says %d", p, starts[p], wantStarts[p])
		}
		for i := starts[p]; i < starts[p+1]; i++ {
			if fn.Partition(keys[i]) != p {
				t.Fatalf("tuple at %d in partition %d's range belongs to %d",
					i, p, fn.Partition(keys[i]))
			}
		}
	}
	if kv.ChecksumPairs(keys, vals) != kv.ChecksumPairs(origK, origV) {
		t.Fatalf("multiset changed (n=%d fanout=%d workers=%d b=%d)",
			n, fn.Fanout(), workers, blockTuples)
	}
	return starts
}

func TestBlockPermuteFanoutsAndTails(t *testing.T) {
	w := ws.New()
	defer w.Close()
	for bits := uint(1); bits <= 12; bits++ {
		for tail := 0; tail <= 15; tail++ {
			n := 6*64 + tail
			keys := gen.Uniform[uint32](n, 0, uint64(bits)*31+uint64(tail))
			checkBlockPerm(t, w, keys, pfunc.NewRadix[uint32](0, bits), 64, 3)
		}
	}
}

func TestBlockPermuteWide(t *testing.T) {
	w := ws.New()
	defer w.Close()
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 63, 64, 100, 5000, 1 << 15} {
			keys := gen.Uniform[uint64](n, 0, uint64(n)+7)
			checkBlockPerm(t, w, keys, pfunc.NewRadix[uint64](3, 5), 64, workers)
		}
	}
}

func TestBlockPermuteGenericFn(t *testing.T) {
	// Hash partitioning exercises the non-radix classify loop.
	for _, workers := range []int{1, 4} {
		keys := gen.Uniform[uint32](20000, 0, 91)
		checkBlockPerm(t, nil, keys, pfunc.NewHash[uint32](8), 128, workers)
	}
}

func TestBlockPermuteSkew(t *testing.T) {
	w := ws.New()
	defer w.Close()
	// Zipf keys: most blocks land in a few partitions, stressing the
	// park/fix-up protocol (stripes of wildly different lengths).
	keys := gen.ZipfKeys[uint32](1<<15, 1<<20, 1.2, 5)
	checkBlockPerm(t, w, keys, pfunc.NewHash[uint32](16), 64, 4)
	keys64 := gen.ZipfKeys[uint64](1<<14, 1<<30, 1.1, 9)
	checkBlockPerm(t, w, keys64, pfunc.NewRadix[uint64](6, 12), 32, 4)
}

func TestBlockPermuteTailOnly(t *testing.T) {
	// n < blockTuples: zero slots, everything through the buffers and the
	// cleanup append.
	keys := gen.Uniform[uint32](700, 0, 3)
	checkBlockPerm(t, nil, keys, pfunc.NewRadix[uint32](0, 4), 1024, 4)
}

// TestBlockPermuteAgainstBlocksReference drives the same input through an
// out-of-place reference — starts from the prefix sums of Histogram,
// content from a NonInPlaceInCache scatter — and the block-permutation
// kernel: identical partition boundaries and identical per-partition
// content multisets (the kernel is unstable, so order inside a partition
// is free).
func TestBlockPermuteAgainstBlocksReference(t *testing.T) {
	w := ws.New()
	defer w.Close()
	// 1, 63, 65 and 100 are not multiples of swapBlockHand's 64-tuple
	// chunk: a partial chunk alone, and after full ones.
	for _, b := range []int{1, 16, 63, 64, 65, 100, 256} {
		for _, n := range []int{0, 1, 997, 1 << 14, 1<<14 + 11} {
			orig := gen.Uniform[uint32](n, 0, uint64(n+b))
			fn := pfunc.NewRadix[uint32](2, 6)

			hist := Histogram(orig, fn)
			refStarts, total := Starts(hist)
			refStarts = append(refStarts, total)
			refK, refV := make([]uint32, n), make([]uint32, n)
			NonInPlaceInCache(nil, orig, gen.RIDs[uint32](n), refK, refV, fn, hist, nil)

			gotK := append([]uint32(nil), orig...)
			gotV := gen.RIDs[uint32](n)
			gotStarts := BlockPermute(w, gotK, gotV, fn, b, 4, nil, nil, nil)

			for p := 0; p <= fn.Fanout(); p++ {
				if refStarts[p] != gotStarts[p] {
					t.Fatalf("b=%d n=%d: starts[%d] %d vs reference %d",
						b, n, p, gotStarts[p], refStarts[p])
				}
			}
			for p := 0; p < fn.Fanout(); p++ {
				lo, hi := refStarts[p], refStarts[p+1]
				if kv.ChecksumPairs(gotK[lo:hi], gotV[lo:hi]) != kv.ChecksumPairs(refK[lo:hi], refV[lo:hi]) {
					t.Fatalf("b=%d n=%d: partition %d content differs from reference", b, n, p)
				}
			}
		}
	}
}

// TestShuffleBlocksNUMAMetering checks the kernel's block-shuffle metering
// on 4 regions against the crossing bound derived in DESIGN.md: each
// block tuple crosses at most twice on the permute legs (one lift, one
// store), each buffered tuple once, and at most fanout·(B-1) stripe-head
// tuples once more in cleanup. Key-only calls meter key bytes only, and an
// unmetered call on the same pooled runner records nothing.
func TestShuffleBlocksNUMAMetering(t *testing.T) {
	w := ws.New()
	defer w.Close()
	const b = 64
	n := 1<<14 + 37
	for _, withVals := range []bool{true, false} {
		for _, workers := range []int{1, 4, 8} {
			for _, bits := range []uint{2, 4, 7} {
				topo := numa.NewTopology(4)
				keys := gen.Uniform[uint32](n, 0, uint64(51+bits))
				var vals []uint32
				tupleBytes := uint64(4)
				if withVals {
					vals = gen.RIDs[uint32](n)
					tupleBytes = 8
				}
				fn := pfunc.NewRadix[uint32](0, bits)
				starts := BlockPermute(w, keys, vals, fn, b, workers, nil, topo, nil)
				for p := 0; p < fn.Fanout(); p++ {
					for i := starts[p]; i < starts[p+1]; i++ {
						if fn.Partition(keys[i]) != p {
							t.Fatalf("workers=%d bits=%d: tuple at %d misplaced", workers, bits, i)
						}
					}
				}
				bound := (2*uint64(n) + uint64(fn.Fanout()*(b-1))) * tupleBytes
				if got := topo.RemoteBytes(); got > bound {
					t.Fatalf("vals=%v workers=%d bits=%d: remote bytes %d exceed the crossing bound %d",
						withVals, workers, bits, got, bound)
				}
				if topo.RemoteBytes() == 0 {
					t.Fatalf("vals=%v workers=%d bits=%d: no remote transfers on 4 regions",
						withVals, workers, bits)
				}
			}
		}
	}

	topo := numa.NewTopology(4)
	keys := gen.Uniform[uint32](n, 0, 3)
	BlockPermute(w, keys, nil, pfunc.NewRadix[uint32](0, 4), b, 4, nil, topo, nil)
	metered := topo.RemoteBytes() + topo.LocalBytes()
	BlockPermute(w, gen.Uniform[uint32](n, 0, 5), nil, pfunc.NewRadix[uint32](0, 4), b, 4, nil, nil, nil)
	if got := topo.RemoteBytes() + topo.LocalBytes(); got != metered {
		t.Fatalf("unmetered call moved the previous topology's bytes from %d to %d", metered, got)
	}
}

func TestBlockPermuteQuick(t *testing.T) {
	w := ws.New()
	defer w.Close()
	f := func(raw []uint32, pb, wk, bt uint8) bool {
		bits := uint(pb%6) + 1
		workers := int(wk%4) + 1
		b := 8 << (bt % 4)
		fn := pfunc.NewRadix[uint32](0, bits)
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		starts := BlockPermute(w, keys, vals, fn, b, workers, nil, nil, nil)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockPermuteFaultRestore arms each of the kernel's injection sites
// and asserts the re-raised *hard.PanicError leaves the input a
// permutation: the permute-loop park-on-unwind restore and the
// pre-cleanup restore point.
func TestBlockPermuteFaultRestore(t *testing.T) {
	defer fault.Disable()
	for _, site := range []fault.Site{fault.SiteBlockPermute, fault.SiteBlockCleanup} {
		for _, after := range []int{0, 3, 17} {
			for _, useWS := range []bool{false, true} {
				var w *ws.Workspace
				if useWS {
					w = ws.New()
				}
				n := 1 << 14
				orig := gen.Uniform[uint32](n, 0, uint64(after)+13)
				keys := append([]uint32(nil), orig...)
				vals := gen.RIDs[uint32](n)
				origV := gen.RIDs[uint32](n)
				fn := pfunc.NewRadix[uint32](0, 5)

				fault.Enable(site, after)
				err := func() (err error) {
					defer func() {
						if e := recover(); e != nil {
							pe, ok := e.(*hard.PanicError)
							if !ok {
								t.Fatalf("site %s: panic value %T, want *hard.PanicError", site, e)
							}
							err = pe
						}
					}()
					BlockPermute(w, keys, vals, fn, 64, 4, nil, nil, nil)
					return nil
				}()
				fault.Disable()
				if fault.Fired() {
					t.Fatalf("site %s: Fired() true after Disable", site)
				}
				if err == nil {
					// Plan did not fire (site not reached with this
					// countdown): the partition must simply be correct.
					continue
				}
				if kv.ChecksumPairs(keys, vals) != kv.ChecksumPairs(orig, origV) {
					t.Fatalf("site %s after=%d ws=%v: input not a permutation after restore",
						site, after, useWS)
				}
				w.Close()
			}
		}
	}
}

// TestBlockPermuteCancel cancels mid-kernel through hard.Ctl and asserts
// the bail leaves a permutation.
func TestBlockPermuteCancel(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 15
	orig := gen.Uniform[uint32](n, 0, 77)
	keys := append([]uint32(nil), orig...)
	vals := gen.RIDs[uint32](n)
	origV := gen.RIDs[uint32](n)
	fn := pfunc.NewRadix[uint32](0, 6)
	starts := make([]int, fn.Fanout()+1)

	ctl := hard.NewCtl(nil)
	ctl.Stop()
	// A stopped ctl surfaces as the hard bail sentinel (converted to a
	// context error by the public sort calls); only the restore matters here.
	bailed := func() (bailed bool) {
		defer func() {
			if e := recover(); e != nil {
				bailed = true
			}
		}()
		BlockPermute(w, keys, vals, fn, 64, 4, starts, nil, ctl)
		return false
	}()
	if !bailed {
		t.Fatal("stopped ctl did not interrupt the kernel")
	}
	if kv.ChecksumPairs(keys, vals) != kv.ChecksumPairs(orig, origV) {
		t.Fatal("input not a permutation after cancellation restore")
	}
}

// TestBlockPermuteAllocs is the steady-state allocation guard: with a warm
// workspace the single-worker kernel (which provably never parks) performs
// zero heap allocations per call.
func TestBlockPermuteAllocs(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 13
	keys := gen.Uniform[uint32](n, 0, 15)
	vals := gen.RIDs[uint32](n)
	fn := pfunc.NewRadix[uint32](0, 6)
	starts := make([]int, fn.Fanout()+1)
	run := func() {
		BlockPermute(w, keys, vals, fn, 64, 1, starts, nil, nil)
	}
	run() // warm the arena
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("steady-state kernel allocates %.1f times per run, want 0", avg)
	}
}
