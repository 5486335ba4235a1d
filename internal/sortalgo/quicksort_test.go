package sortalgo

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
)

// quicksortShapes are the inputs that break naive quicksorts: duplicate
// floods (quadratic under a plain < partition), presorted runs, and a
// median-of-3 killer (quadratic without the depth limit).
var quicksortShapes = map[string]func(n int) []uint64{
	"uniform":   func(n int) []uint64 { return gen.Uniform[uint64](n, 0, 11) },
	"all-equal": func(n int) []uint64 { return gen.AllEqual[uint64](n, 42) },
	"two-values": func(n int) []uint64 {
		k := gen.Uniform[uint64](n, 2, 12)
		for i := range k {
			k[i] = k[i]*(1<<40) + 7
		}
		return k
	},
	"sorted":   func(n int) []uint64 { return gen.Sorted[uint64](n, 0, 13) },
	"reversed": func(n int) []uint64 { return gen.Reversed[uint64](n, 0, 14) },
	"organ-pipe": func(n int) []uint64 {
		k := make([]uint64, n)
		for i := range k {
			k[i] = uint64(min(i, n-1-i))
		}
		return k
	},
	"sawtooth": func(n int) []uint64 {
		k := make([]uint64, n)
		for i := range k {
			k[i] = uint64(i % 97)
		}
		return k
	},
	"median-of-3-killer": medianOf3Killer,
}

// medianOf3Killer is Musser's sequence, on which a median-of-3 quicksort
// picks the second-smallest key as the pivot at every level.
func medianOf3Killer(n int) []uint64 {
	k := make([]uint64, n)
	h := n / 2
	for i := 1; i <= h; i++ {
		if i%2 == 1 {
			k[i-1] = uint64(i)
			k[i] = uint64(h + i)
		}
		k[h+i-1] = uint64(2 * i)
	}
	return k
}

// TestQuicksortShapes table-tests Quicksort and its heapsort fallback
// across the insertion-sort cutoff and the ninther threshold.
func TestQuicksortShapes(t *testing.T) {
	sorters := map[string]func(k, v []uint64){
		"quicksort": Quicksort[uint64],
		"heapsort":  heapsortPairs[uint64],
	}
	sizes := []int{0, 1, 2, 23, 24, 25, 100, 4096, 1 << 16}
	for name, sortFn := range sorters {
		t.Run(name, func(t *testing.T) {
			for shape, mk := range quicksortShapes {
				for _, n := range sizes {
					keys := mk(n)
					vals := gen.RIDs[uint64](n)
					want := kv.ChecksumPairs(keys, vals)
					sortFn(keys, vals)
					if !kv.IsSorted(keys) {
						t.Fatalf("%s n=%d: keys not sorted", shape, n)
					}
					if got := kv.ChecksumPairs(keys, vals); got != want {
						t.Fatalf("%s n=%d: pair checksum %x, want %x", shape, n, got, want)
					}
				}
			}
		})
	}
}

// FuzzQuicksort checks the CMP leaf against slices.Sort on keys drawn
// from a small fuzzed domain, so most inputs are duplicate-heavy and
// exercise the equal-pivot partition. Keys are spread over the whole
// 64-bit range (a domain of 256 reaches MaxKey).
func FuzzQuicksort(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 1, 2}, uint8(255))
	f.Add(make([]byte, 300), uint8(0))
	ramp := make([]byte, 2048)
	for i := range ramp {
		ramp[i] = byte(i * 37)
	}
	f.Add(ramp, uint8(2))
	f.Add(ramp, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, domain uint8) {
		keys := make([]uint64, len(data))
		for i, b := range data {
			keys[i] = uint64(uint16(b)%(uint16(domain)+1)) * 0x0101010101010101
		}
		vals := gen.RIDs[uint64](len(keys))
		want := slices.Clone(keys)
		slices.Sort(want)
		sum := kv.ChecksumPairs(keys, vals)
		Quicksort(keys, vals)
		for i := range keys {
			if keys[i] != want[i] {
				t.Fatalf("n=%d: key %d is %d, want %d", len(keys), i, keys[i], want[i])
			}
		}
		if got := kv.ChecksumPairs(keys, vals); got != sum {
			t.Fatalf("pair checksum %x, want %x", got, sum)
		}
	})
}
