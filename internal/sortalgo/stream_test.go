package sortalgo

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/ws"
)

// lsbInterrupted runs LSB on copies of keys/vals and returns what it
// recovered (nil when the sort completed), the columns it left and its
// stats.
func lsbInterrupted(keys, vals []uint32, opt Options) (rec any, k, v []uint32, st Stats) {
	k, v = slices.Clone(keys), slices.Clone(vals)
	n := len(keys)
	opt.Stats = &st
	defer func() { rec = recover() }()
	LSB(k, v, make([]uint32, n), make([]uint32, n), opt)
	return nil, k, v, st
}

// TestLSBStreamingPassInterrupt interrupts LSB's line-buffered passes,
// whose full lines are streaming stores, on one worker (lsbSingle) and
// on two (lsbPerPass); 2^19 dense 32-bit keys take two passes. A fault
// fires at the second pass, after the first pass streamed every tuple
// into tmp: at its top on one worker, at the start of its second scatter
// task on two, while the first task streams. A cancel lands at 0.2, 0.4
// and 0.6 of the faster of two uninterrupted runs' time. Every
// interrupted call must unwind with keys/vals a permutation of the input,
// restored from the streamed source, and at least one cancel must land.
func TestLSBStreamingPassInterrupt(t *testing.T) {
	defer fault.Disable()
	const n = 1 << 19
	keys := gen.Dense[uint32](n, 5)
	vals := gen.RIDs[uint32](n)
	want := kv.ChecksumPairs(keys, vals)
	for _, threads := range []int{1, 2} {
		w := ws.New()
		opt := Options{Threads: threads, Workspace: w}
		t.Run(fmt.Sprintf("fault/threads=%d", threads), func(t *testing.T) {
			site, after := fault.SiteLSBPass, 1
			if threads > 1 {
				site, after = fault.SiteWorkerStart, 7 // histogram, scatter, histogram: 2 tasks each
			}
			fault.Enable(site, after)
			rec, k, v, st := lsbInterrupted(keys, vals, opt)
			fired := fault.Fired()
			fault.Disable()
			if !fired || rec == nil {
				t.Fatalf("fault fired %v, recovered %v: want an interrupted sort", fired, rec)
			}
			if st.Passes != 1 {
				t.Fatalf("%d passes completed, want the fault in the second", st.Passes)
			}
			if kv.ChecksumPairs(k, v) != want {
				t.Fatal("keys/vals are not a permutation of the input")
			}
		})
		t.Run(fmt.Sprintf("cancel/threads=%d", threads), func(t *testing.T) {
			full := time.Duration(1 << 62)
			for range 2 {
				begin := time.Now()
				if rec, k, _, _ := lsbInterrupted(keys, vals, opt); rec != nil || !kv.IsSorted(k) {
					t.Fatalf("uninterrupted run: recovered %v", rec)
				}
				full = min(full, time.Since(begin))
			}
			landed := 0
			for _, frac := range []float64{0.2, 0.4, 0.6} {
				ctx, cancel := context.WithCancel(context.Background())
				o := opt
				o.Ctl = hard.NewCtl(ctx)
				timer := time.AfterFunc(time.Duration(frac*float64(full)), cancel)
				rec, k, v, st := lsbInterrupted(keys, vals, o)
				timer.Stop()
				cancel()
				switch {
				case rec == nil:
					if !kv.IsSorted(k) {
						t.Fatalf("cancel at %.2f: completed unsorted", frac)
					}
				default:
					if _, bailed := hard.BailCause(rec); !bailed {
						t.Fatalf("cancel at %.2f: recovered %v, want a cancellation", frac, rec)
					}
					landed++
					t.Logf("cancel at %.2f of %v: landed after %d passes", frac, full, st.Passes)
				}
				if kv.ChecksumPairs(k, v) != want {
					t.Fatalf("cancel at %.2f: keys/vals are not a permutation of the input", frac)
				}
			}
			if landed == 0 {
				t.Fatal("no cancel landed inside the sort")
			}
		})
		w.Close()
	}
}

// TestMSBPairsBucketCheckpoint cancels the first level of an MSBPairs
// bucket above hard.CkptTuples: the out-of-place Algorithm 1 scatter
// (msbScatterBack, as msbPairs runs it after its entry checkpoint) must
// reach its checkpoint at the first sub-chunk boundary and unwind with
// keys/vals untouched.
func TestMSBPairsBucketCheckpoint(t *testing.T) {
	const n = hard.CkptTuples + 1000
	pairs := make([]uint64, 2*n)
	for i, k := range gen.Uniform[uint64](n, 0, 11) {
		pairs[2*i], pairs[2*i+1] = k, uint64(i)
	}
	keys, vals := make([]uint64, n), make([]uint64, n)
	hiBit := deinterleaveSpan(pairs, keys, vals)
	origK, origV := slices.Clone(keys), slices.Clone(vals)
	ct := cacheTuples(Options{}, 64)
	tail := msbTail[uint64]{keys: pairs[:n], vals: pairs[n:]}
	ctl := hard.NewCtl(nil)
	ctl.Stop()
	rec := func() (rec any) {
		defer func() { rec = recover() }()
		msbScatterBack(nil, &tail, keys, vals, tail.keys, tail.vals, hiBit, msbDigitBits(n, hiBit, ct), ct, ctl)
		return nil
	}()
	if _, bailed := hard.BailCause(rec); !bailed {
		t.Fatalf("recovered %v, want the scatter's cancellation bail", rec)
	}
	if !slices.Equal(keys, origK) || !slices.Equal(vals, origV) {
		t.Fatal("the bucket's keys/vals changed before the copy-back")
	}
}
