package extsort_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	partsort "repro"
	"repro/internal/extsort"
	"repro/internal/fault"
	"repro/internal/kv"
	"repro/internal/obs"
)

// deliveryShapes returns an input whose eight formation buckets (bucket d
// holds the keys d<<24 | low; the sampled maximum 8<<24-1 sits at index 0,
// so the digit is exactly key>>24) cover the shapes a one-segment bucket
// sort must handle. Every bucket fits a 2^17-tuple segment and the whole
// input does not, so it spills and no bucket overflows.
//
//   - bucket 0: one tuple;
//   - bucket 1: 20 tuples, at most the insertion cutoff;
//   - bucket 2: 5000 equal keys, so no bit below the bucket's shared
//     prefix differs;
//   - bucket 3: 70000 uniform keys, above the 2^16-tuple checkpoint
//     interval of the line-buffered scatter;
//   - bucket 4: 40000 keys below 2^16 plus one at 2^23, so the bucket's
//     first pass (digit bits 16-23) puts 40000 tuples into one part, above
//     the cache bound of both key widths, and that part recurses through a
//     block permutation;
//   - buckets 5-7: 20000 uniform keys each.
func deliveryShapes[K partsort.Key](seed int64) []K {
	r := rand.New(rand.NewSource(seed))
	var keys []K
	add := func(d, count int, low func() uint64) {
		for range count {
			keys = append(keys, K(uint64(d)<<24|low()))
		}
	}
	uniform := func() uint64 { return uint64(r.Intn(1 << 24)) }
	add(0, 1, uniform)
	add(1, 20, uniform)
	add(2, 5000, func() uint64 { return 777 })
	add(3, 70000, uniform)
	add(4, 40000, func() uint64 { return uint64(r.Intn(1 << 16)) })
	add(4, 1, func() uint64 { return 1 << 23 })
	for d := 5; d < 8; d++ {
		add(d, 20000, uniform)
	}
	add(7, 1, func() uint64 { return 1<<24 - 1 })
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, k := range keys {
		if k == 8<<24-1 {
			keys[0], keys[i] = keys[i], keys[0]
		}
	}
	return keys
}

// deliveryOpt spills deliveryShapes into eight buckets of one segment
// each on threads workers.
func deliveryOpt(t *testing.T, threads int) *partsort.SortOptions {
	return &partsort.SortOptions{TempDir: t.TempDir(), SpillSegmentTuples: 1 << 17, SpillBucketBits: 3, Threads: threads}
}

// TestDeliveryBucketShapes sorts every bucket shape of deliveryShapes at
// 32 and 64 bits on one and two workers. Every bucket is delivered in one
// piece (each read once), the output is sorted and a permutation of the
// input, and nothing is left behind. The part of bucket 4 above the
// cache bound is the only block permutation the run makes, so the
// sync-claims counter moves.
func TestDeliveryBucketShapes(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("64/T=%d", threads), func(t *testing.T) {
			checkDelivery(t, deliveryShapes[uint64](3), threads, true)
		})
		t.Run(fmt.Sprintf("32/T=%d", threads), func(t *testing.T) {
			checkDelivery(t, deliveryShapes[uint32](4), threads, true)
		})
	}
}

// TestDeliveryUniformClaimsNoBlocks spills 2^18 uniform keys into eight
// buckets of ~32768 tuples, above the cache bound of 64-bit pairs. Each
// bucket's first pass is out of place through its read buffer and leaves
// parts of ~128 tuples, so delivery runs no block permutation: the
// sync-claims counter stays 0.
func TestDeliveryUniformClaimsNoBlocks(t *testing.T) {
	const n = 1 << 18
	r := rand.New(rand.NewSource(5))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("T=%d", threads), func(t *testing.T) {
			checkDelivery(t, append([]uint64(nil), keys...), threads, false)
		})
	}
}

// checkDelivery spills keys under deliveryOpt with RIDs as payloads and
// checks the sort, that no bucket overflowed, whether any block was
// claimed (claims), and that nothing is left behind.
func checkDelivery[K partsort.Key](t *testing.T, keys []K, threads int, claims bool) {
	vals := partsort.RIDs[K](len(keys))
	want := kv.ChecksumPairs(keys, vals)
	opt := deliveryOpt(t, threads)
	s := obs.Start(nil)
	defer func() { _ = obs.Stop() }()
	base := fault.TakeBaseline()
	st, err := partsort.SortExternal(keys, vals, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Spilled || st.ReadBytes != st.FormationBytes {
		t.Fatalf("spilled=%v, read %d of %d formation bytes; want a spill delivered in one-segment buckets, each read once",
			st.Spilled, st.ReadBytes, st.FormationBytes)
	}
	if !partsort.IsSorted(keys) || kv.ChecksumPairs(keys, vals) != want {
		t.Fatalf("sorted=%v, permutation=%v", partsort.IsSorted(keys), kv.ChecksumPairs(keys, vals) == want)
	}
	if got := s.Counters.SyncClaims.Load(); (got > 0) != claims {
		t.Fatalf("sync claims = %d, want claims: %v", got, claims)
	}
	base.Verify(t, nil, opt.TempDir)
}

// TestDeliveryFaultAndCancel interrupts one-segment delivery of
// deliveryShapes: an msb/recurse fault inside a bucket sort, and a
// context cancelled when the first bucket sort has written its range.
// Each ends in its typed error — an *InternalError wrapping the injected
// fault, or context.Canceled itself — with the input restored to a
// permutation and nothing left behind.
func TestDeliveryFaultAndCancel(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("fault/T=%d", threads), func(t *testing.T) {
			keys := deliveryShapes[uint64](6)
			vals := partsort.RIDs[uint64](len(keys))
			want := kv.ChecksumPairs(keys, vals)
			opt := deliveryOpt(t, threads)
			base := fault.TakeBaseline()
			fault.Enable(fault.SiteMSBRecurse, 40)
			_, err := partsort.SortExternal(keys, vals, opt)
			fired := fault.Fired()
			fault.Disable()
			var ie *partsort.InternalError
			if !fired || !errors.As(err, &ie) || !errors.Is(err, fault.Injected{Site: fault.SiteMSBRecurse}) {
				t.Fatalf("fired=%v err = %v, want *InternalError wrapping the msb/recurse fault", fired, err)
			}
			if kv.ChecksumPairs(keys, vals) != want {
				t.Fatal("input not a permutation after the fault")
			}
			base.Verify(t, nil, opt.TempDir)
		})
		t.Run(fmt.Sprintf("cancel/T=%d", threads), func(t *testing.T) {
			keys := deliveryShapes[uint64](7)
			vals := partsort.RIDs[uint64](len(keys))
			want := kv.ChecksumPairs(keys, vals)
			opt := deliveryOpt(t, threads)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obs.Start(&cancelOnSort{cancel: cancel})
			defer func() { _ = obs.Stop() }()
			base := fault.TakeBaseline()
			_, err := partsort.SortExternalCtx(ctx, keys, vals, opt)
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled itself", err)
			}
			if kv.ChecksumPairs(keys, vals) != want {
				t.Fatal("input not a permutation after the cancel")
			}
			base.Verify(t, nil, opt.TempDir)
		})
	}
}

// cancelOnSort is an obs sink that cancels a context when the first MSB
// sort span ends: the first bucket sort of one-segment delivery has
// written its output range and the other buckets are still to come.
type cancelOnSort struct {
	cancel func()
	once   sync.Once
}

// Emit implements obs.Sink.
func (c *cancelOnSort) Emit(e obs.Event) {
	if e.Cat == "sort" && e.Algo == "msb" {
		c.once.Do(c.cancel)
	}
}

// Close implements obs.Sink.
func (c *cancelOnSort) Close() error { return nil }

// TestDeliveryWorkerErrorReleasesScratch damages the last bucket of
// deliveryShapes on two workers with a warm workspace. The damage stops
// the other worker wherever it is, often inside a bucket sort with
// scratch checked out; the call still returns ErrSpillCorrupt with every
// byte back on the workspace's ledger and nothing else left behind.
func TestDeliveryWorkerErrorReleasesScratch(t *testing.T) {
	w := partsort.NewWorkspace()
	defer w.Close()
	for seed := range int64(5) {
		keys := deliveryShapes[uint64](10 + seed)
		vals := partsort.RIDs[uint64](len(keys))
		opt := deliveryOpt(t, 2)
		opt.Workspace = w
		if seed == 0 {
			warm := append([]uint64(nil), keys...)
			if _, err := partsort.SortExternal(warm, partsort.RIDs[uint64](len(warm)), opt); err != nil {
				t.Fatal(err)
			}
		}
		reset := extsort.SetReadbackHook(func(f *os.File, d int, spans func(int) [][2]int64) {
			if d < 0 {
				extsort.FlipByte(t, f, spans(7), func(int64) int64 { return 100 })
			}
		})
		base := fault.TakeBaseline()
		_, err := partsort.SortExternal(keys, vals, opt)
		reset()
		if !errors.Is(err, partsort.ErrSpillCorrupt) {
			t.Fatalf("seed %d: err = %v, want ErrSpillCorrupt", seed, err)
		}
		base.Verify(t, w, opt.TempDir)
	}
}
