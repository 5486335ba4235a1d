package extsort_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	partsort "repro"
	"repro/internal/extsort"
	"repro/internal/fault"
)

// TestSortExternalCorruptFormationExtent flips one byte of the formation
// file between formation and delivery and sorts through the public
// SortExternal. Descending keys make each bucket flush its lines before
// the next lower bucket's first, so the file holds the eight buckets top
// bucket first, each at the start of its own reservation (bucket 0, the
// first delivered, ends the file). Wherever the byte lies, the call fails
// with a *SpillError wrapping ErrSpillCorrupt and leaves nothing behind.
// Damage in bucket 0 is found before any output is written and leaves the
// input as it was. Damage found later cannot be rolled back for that
// bucket, because the only other copy of its overwritten tuples is the
// damaged file: the error says the restore failed, and every other
// bucket's range holds that bucket's own tuples again, pairs intact.
func TestSortExternalCorruptFormationExtent(t *testing.T) {
	const n = 1 << 15
	const bucketBytes = n / 8 * 16 // one bucket of 64-bit pairs
	for _, c := range []struct {
		name string
		at   func(size int64) int64
		lost int // bucket whose output range the restore cannot rebuild (-1: none)
	}{
		{"first-bucket", func(size int64) int64 { return size - 1 }, -1},
		{"middle-bucket", func(size int64) int64 { return (size-bucketBytes)/7*4 + 100 }, 3},
		{"last-bucket", func(int64) int64 { return 100 }, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = uint64(n - 1 - i)
			}
			vals := partsort.RIDs[uint64](n)
			reset := extsort.SetReadbackHook(func(f *os.File) {
				if filepath.Base(f.Name()) != "buckets.spill" {
					return
				}
				fi, err := f.Stat()
				if err != nil {
					t.Fatal(err)
				}
				b := []byte{0}
				at := c.at(fi.Size())
				if _, err := f.ReadAt(b, at); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x40
				if _, err := f.WriteAt(b, at); err != nil {
					t.Fatal(err)
				}
			})
			defer reset()

			dir := t.TempDir()
			opt := &partsort.SortOptions{TempDir: dir, SpillSegmentTuples: 1 << 12, SpillBucketBits: 3, Threads: 2}
			base := fault.TakeBaseline()
			_, err := partsort.SortExternal(keys, vals, opt)
			var se *partsort.SpillError
			if !errors.As(err, &se) || !errors.Is(err, partsort.ErrSpillCorrupt) {
				t.Fatalf("err = %v, want *SpillError wrapping ErrSpillCorrupt", err)
			}
			if reported := strings.Contains(err.Error(), "permutation restore failed"); reported != (c.lost >= 0) {
				t.Fatalf("restore failure reported = %v, want %v: %v", reported, c.lost >= 0, err)
			}
			seen := make([]bool, n)
			for i := range keys {
				k, v := keys[i], vals[i]
				switch {
				case c.lost < 0 && (k != uint64(n-1-i) || v != uint64(i)):
					t.Fatalf("position %d holds (%d, %d), want the untouched input (%d, %d)", i, k, v, n-1-i, i)
				case c.lost < 0 || i/(n/8) == c.lost:
				case k >= n || int(k)/(n/8) != i/(n/8) || v != n-1-k || seen[k]:
					t.Fatalf("position %d holds (%d, %d) after the restore, want an unseen pair of bucket %d", i, k, v, i/(n/8))
				default:
					seen[k] = true
				}
			}
			base.Verify(t, nil, dir)
		})
	}
}
