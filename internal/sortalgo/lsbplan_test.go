package sortalgo

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/ws"
)

// domainKeys returns n pseudo-random keys spanning exactly domainBits
// bits: the top bit is set in the first key.
func domainKeys(n, domainBits int, seed uint64) []uint64 {
	keys := gen.Uniform[uint64](n, 0, seed)
	mask := ^uint64(0) >> (64 - domainBits)
	for i := range keys {
		keys[i] &= mask
	}
	keys[0] |= 1 << (domainBits - 1)
	return keys
}

// TestLSBPlanBoundaries sweeps the digit plan's switch points: the
// in-cache bound (cacheTuples vs one more tuple), domains on either side
// of one and two 11-bit digits, and every driver (single-threaded and
// parallel, with and without a workspace). Each run must come out sorted,
// stable and a permutation, in exactly the plan's pass count.
func TestLSBPlanBoundaries(t *testing.T) {
	w := ws.New()
	defer w.Close()
	ct := cacheTuples(Options{}, 64)
	for _, n := range []int{ct, ct + 1} {
		for _, bits := range []int{1, 11, 12, 22, 23, 32, 64} {
			orig := domainKeys(n, bits, uint64(n+bits))
			want := len(memmodel.LSBDigits(nil, bits, 0, n <= ct, 1))
			for _, threads := range []int{1, 2} {
				for _, wsp := range []*ws.Workspace{w, nil} {
					t.Run(fmt.Sprintf("n=%d/bits=%d/threads=%d/ws=%v", n, bits, threads, wsp != nil), func(t *testing.T) {
						keys := append([]uint64(nil), orig...)
						vals := gen.RIDs[uint64](n)
						origV := append([]uint64(nil), vals...)
						var st Stats
						LSB(keys, vals, make([]uint64, n), make([]uint64, n),
							Options{Threads: threads, Workspace: wsp, Stats: &st})
						checkSorted(t, orig, origV, keys, vals, true)
						if st.Passes != want {
							t.Fatalf("%d passes, want the plan's %d", st.Passes, want)
						}
					})
				}
			}
		}
	}
}

// TestLSBExplicitRadixBits pins the knob's meaning: a fixed width gives
// ceil(span/RadixBits) passes on either side of the in-cache bound.
func TestLSBExplicitRadixBits(t *testing.T) {
	const span = 22
	for _, n := range []int{1 << 12, 1 << 16} {
		orig := gen.Permutation[uint32](1<<span, 3)[:n]
		orig[0] = 1<<span - 1
		for _, b := range []int{3, 5, 8, 11, 16} {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](n)
			origV := append([]uint32(nil), vals...)
			var st Stats
			LSB(keys, vals, make([]uint32, n), make([]uint32, n), Options{RadixBits: b, Stats: &st})
			checkSorted(t, orig, origV, keys, vals, true)
			if want := (span + b - 1) / b; st.Passes != want {
				t.Fatalf("n=%d RadixBits=%d: %d passes, want %d", n, b, st.Passes, want)
			}
		}
	}
}

// TestLSBSkipsTrivialDigits gives keys a constant middle: the digits
// inside it have one-bucket histograms and must not run, on every
// driver, while the output stays sorted and stable and the moved tuples
// still reconcile as passes * n.
func TestLSBSkipsTrivialDigits(t *testing.T) {
	w := ws.New()
	defer w.Close()
	const n = 1 << 16
	// Bits [8,16) and, for the 11-bit plan, [11,22) are constant.
	byteKeys := gen.Uniform[uint32](n, 0, 9)
	planKeys := gen.Uniform[uint32](n, 0, 10)
	for i := range byteKeys {
		byteKeys[i] = byteKeys[i]&^0xff00 | 0xab00
		planKeys[i] = planKeys[i]&0x7ff | 0x2a5<<11 | 1<<21
	}
	cases := []struct {
		name           string
		keys           []uint32
		threads, radix int
		wsp            *ws.Workspace
		want           int
	}{
		{"single", byteKeys, 1, 8, w, 3},
		{"perpass", byteKeys, 2, 8, w, 3},
		{"perpass-nows", byteKeys, 2, 8, nil, 3},
		{"fused", byteKeys, 4, 4, w, 6}, // narrow digits, per-pass on 4 workers
		{"plan-single", planKeys, 1, 0, w, 1},
		{"plan-perpass", planKeys, 2, 0, nil, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			keys := append([]uint32(nil), c.keys...)
			vals := gen.RIDs[uint32](n)
			origV := append([]uint32(nil), vals...)
			obs.Start(nil)
			t.Cleanup(func() { _ = obs.Stop() })
			var st Stats
			LSB(keys, vals, make([]uint32, n), make([]uint32, n),
				Options{Threads: c.threads, RadixBits: c.radix, Workspace: c.wsp, Stats: &st})
			checkSorted(t, c.keys, origV, keys, vals, true)
			if st.Passes != c.want {
				t.Fatalf("%d passes, want %d", st.Passes, c.want)
			}
			if got, want := st.Counters.TuplesPartitioned, uint64(st.Passes*n); got != want {
				t.Fatalf("TuplesPartitioned = %d, want passes*n = %d", got, want)
			}
		})
	}
}
