package extsort_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	partsort "repro"
	"repro/internal/extsort"
	"repro/internal/fault"
)

// TestSortExternalCorruptFormationExtent flips one byte of one bucket in
// the formation file between formation and delivery, located through the
// readback hook's spans wherever the bucket's extents landed, and sorts
// through the public SortExternal. Wherever the byte lies, the call fails
// with a *SpillError wrapping ErrSpillCorrupt and leaves nothing behind.
//
// On one thread buckets are delivered in key order. Damage in bucket 0 is
// found before any output is written and leaves the input as it was.
// Damage found later cannot be rolled back for that bucket, because the
// only other copy of its overwritten tuples is the damaged file: the error
// says the restore failed, and every other bucket's range holds that
// bucket's own tuples again, pairs intact.
//
// On two threads another worker may have written its bucket before the
// damage is found, so the rows assert the documented contract instead:
// the input is untouched unless the error reports a failed restore, and
// then every undamaged bucket's range is restored.
func TestSortExternalCorruptFormationExtent(t *testing.T) {
	const n = 1 << 15
	for _, c := range []struct {
		name   string
		bucket int
		at     func(size int64) int64 // the byte of the bucket to flip
	}{
		{"first-bucket", 0, func(size int64) int64 { return size - 1 }},
		{"middle-bucket", 3, func(int64) int64 { return 100 }},
		{"last-bucket", 7, func(int64) int64 { return 100 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, threads := range []int{1, 2} {
				t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
					keys := make([]uint64, n)
					for i := range keys {
						keys[i] = uint64(n - 1 - i)
					}
					vals := partsort.RIDs[uint64](n)
					reset := extsort.SetReadbackHook(func(f *os.File, d int, spans func(int) [][2]int64) {
						if d < 0 {
							extsort.FlipByte(t, f, spans(c.bucket), c.at)
						}
					})
					defer reset()

					dir := t.TempDir()
					opt := &partsort.SortOptions{TempDir: dir, SpillSegmentTuples: 1 << 12, SpillBucketBits: 3, Threads: threads}
					base := fault.TakeBaseline()
					_, err := partsort.SortExternal(keys, vals, opt)
					var se *partsort.SpillError
					if !errors.As(err, &se) || !errors.Is(err, partsort.ErrSpillCorrupt) {
						t.Fatalf("err = %v, want *SpillError wrapping ErrSpillCorrupt", err)
					}
					lost := -1 // bucket whose output range the restore cannot rebuild
					if strings.Contains(err.Error(), "permutation restore failed") {
						lost = c.bucket
					}
					if threads == 1 && (lost >= 0) != (c.bucket > 0) {
						t.Fatalf("restore failure reported = %v, want %v: %v", lost >= 0, c.bucket > 0, err)
					}
					seen := make([]bool, n)
					for i := range keys {
						k, v := keys[i], vals[i]
						switch {
						case lost < 0 && (k != uint64(n-1-i) || v != uint64(i)):
							t.Fatalf("position %d holds (%d, %d), want the untouched input (%d, %d)", i, k, v, n-1-i, i)
						case lost < 0 || i/(n/8) == lost:
						case k >= n || int(k)/(n/8) != i/(n/8) || v != n-1-k || seen[k]:
							t.Fatalf("position %d holds (%d, %d) after the restore, want an unseen pair of bucket %d", i, k, v, i/(n/8))
						default:
							seen[k] = true
						}
					}
					base.Verify(t, nil, dir)
				})
			}
		})
	}
}

// TestSortExternalErrorPathsTwoThreads drives the error paths of a
// two-thread external sort through the public SortExternalCtx: a disk
// budget too small for formation, and cancellations observed by the
// one-segment delivery workers and, after they and the first overflowing
// bucket wrote their ranges, at the second overflowing bucket. Six
// buckets fit one segment and two overflow it. Each call returns the error itself — a *SpillError wrapping
// ErrSpillBudget, or the context's error; never a sibling stop or an
// *InternalError — leaves the input a permutation, and leaves nothing
// behind.
func TestSortExternalErrorPathsTwoThreads(t *testing.T) {
	const n = 1 << 15
	for _, c := range []struct {
		name     string
		maxSpill int64
		cancel   bool
		at       int // the readback hook's bucket that cancels the context (-1: delivery start)
	}{
		{"formation-disk-budget", 8 << 10, false, 0},
		{"cancel-delivery-start", 0, true, -1},
		{"cancel-after-writes", 0, true, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(9))
			keys := make([]uint64, n)
			for i := range keys {
				d := 6 + i%2 // buckets 6 and 7 overflow a segment
				if i < 6*n/16 {
					d = i % 6 // buckets 0-5 hold 2048 tuples each
				}
				keys[i] = uint64(d)<<16 | uint64(r.Intn(1<<16))
			}
			keys[0] = 8<<16 - 1 // the sampled maximum: bucket d is key>>16
			vals := partsort.RIDs[uint64](n)
			sumK := append([]uint64(nil), keys...)
			sumV := append([]uint64(nil), vals...)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			reset := extsort.SetReadbackHook(func(_ *os.File, d int, _ func(int) [][2]int64) {
				if c.cancel && d == c.at {
					cancel()
				}
			})
			defer reset()

			dir := t.TempDir()
			opt := &partsort.SortOptions{TempDir: dir, SpillSegmentTuples: 1 << 12, SpillBucketBits: 3,
				MaxSpillBytes: c.maxSpill, Threads: 2}
			base := fault.TakeBaseline()
			_, err := partsort.SortExternalCtx(ctx, keys, vals, opt)
			if !c.cancel {
				var se *partsort.SpillError
				if !errors.As(err, &se) || !errors.Is(err, partsort.ErrSpillBudget) {
					t.Fatalf("err = %v, want *SpillError wrapping ErrSpillBudget", err)
				}
			} else if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled itself", err)
			}
			if !partsort.SameMultiset(keys, vals, sumK, sumV) {
				t.Fatal("input not a permutation after the error")
			}
			base.Verify(t, nil, dir)
		})
	}
}
