package partsort

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
)

// Stress tests at multi-million-tuple scale: large enough that every code
// path (block allocators, shuffles, recursion depths, buffer reuse) is
// exercised far from its edge conditions. Skipped under -short.

func stressSort(t *testing.T, name string, n int, run func(k, v []uint32)) {
	t.Helper()
	if testing.Short() {
		t.Skip("stress test")
	}
	keys := gen.ZipfKeys[uint32](n, uint64(n), 1.0, 99)
	vals := RIDs[uint32](n)
	origK := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)
	run(keys, vals)
	if !IsSorted(keys) {
		t.Fatalf("%s: not sorted at n=%d", name, n)
	}
	if !SameMultiset(origK, origV, keys, vals) {
		t.Fatalf("%s: multiset changed at n=%d", name, n)
	}
}

func TestStressLSB(t *testing.T) {
	stressSort(t, "LSB", 4<<20, func(k, v []uint32) {
		SortLSB(k, v, &SortOptions{Threads: 4, Regions: 4})
	})
}

func TestStressMSB(t *testing.T) {
	stressSort(t, "MSB", 4<<20, func(k, v []uint32) {
		SortMSB(k, v, &SortOptions{Threads: 4, Regions: 4})
	})
}

func TestStressCMP(t *testing.T) {
	stressSort(t, "CMP", 4<<20, func(k, v []uint32) {
		SortCMP(k, v, &SortOptions{Threads: 4, Regions: 4, RangeFanout: 1000})
	})
}

func TestStressSync(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	n := 2 << 20
	keys := gen.Uniform[uint32](n, 0, 5)
	vals := RIDs[uint32](n)
	origK := append([]uint32(nil), keys...)
	origV := append([]uint32(nil), vals...)
	fn := Hash[uint32](64)
	hist := PartitionInPlaceShared(keys, vals, fn, 8)
	o := 0
	for p, h := range hist {
		for i := o; i < o+h; i += 131 {
			if fn.Partition(keys[i]) != p {
				t.Fatal("misplaced tuple")
			}
		}
		o += h
	}
	if !SameMultiset(origK, origV, keys, vals) {
		t.Fatal("multiset changed")
	}
}

// TestStressCancelStorm hammers every algorithm with concurrent sorts
// whose contexts are cancelled mid-pass at staggered offsets: each sort
// must come back as a clean context error (or a completed success when
// the cancel lost the race), leave its columns a permutation of the
// input, and the storm as a whole must leak no goroutines. Sized to run
// under -race and -short; the verify gate runs it with the race
// detector on.
func TestStressCancelStorm(t *testing.T) {
	n := 1 << 16
	if testing.Short() {
		n = 1 << 14
	}
	ref := gen.ZipfKeys[uint32](n, uint64(n), 1.0, 7)
	rids := RIDs[uint32](n)

	algos := []struct {
		name string
		run  func(ctx context.Context, k, v []uint32) error
	}{
		{"lsb", func(ctx context.Context, k, v []uint32) error {
			return SortResilientCtx(ctx, LSB, k, v, &SortOptions{Threads: 4}, once)
		}},
		{"msb", func(ctx context.Context, k, v []uint32) error {
			return SortResilientCtx(ctx, MSB, k, v, &SortOptions{Threads: 4}, once)
		}},
		{"cmp", func(ctx context.Context, k, v []uint32) error {
			return SortResilientCtx(ctx, CMP, k, v, &SortOptions{Threads: 4, CacheTuples: 1 << 12}, once)
		}},
	}
	const lanes = 8
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			base := fault.TakeBaseline()
			var wg sync.WaitGroup
			errs := make([]error, lanes)
			cols := make([][2][]uint32, lanes)
			for l := 0; l < lanes; l++ {
				k := append([]uint32(nil), ref...)
				v := append([]uint32(nil), rids...)
				cols[l] = [2][]uint32{k, v}
				wg.Add(1)
				go func(l int, k, v []uint32) {
					defer wg.Done()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					// Staggered mid-pass cancels: lane 0 cancels almost
					// immediately, later lanes progressively deeper into
					// the sort; some lanes win the race and finish.
					timer := time.AfterFunc(time.Duration(l)*200*time.Microsecond, cancel)
					defer timer.Stop()
					errs[l] = a.run(ctx, k, v)
				}(l, k, v)
			}
			wg.Wait()
			for l, err := range errs {
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("lane %d: err = %v (%T), want nil or context.Canceled", l, err, err)
				}
				if !SameMultiset(ref, rids, cols[l][0], cols[l][1]) {
					t.Fatalf("lane %d: columns are not a permutation after cancel (err=%v)", l, err)
				}
				if err == nil && !IsSorted(cols[l][0]) {
					t.Fatalf("lane %d: completed sort left keys unsorted", l)
				}
			}
			base.Verify(t, nil, "")
		})
	}
}
