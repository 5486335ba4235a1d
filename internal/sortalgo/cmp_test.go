package sortalgo

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/obs"
)

func runCMP32(t *testing.T, orig []uint32, opt Options) {
	t.Helper()
	keys := append([]uint32(nil), orig...)
	vals := gen.RIDs[uint32](len(keys))
	origV := append([]uint32(nil), vals...)
	tmpK := make([]uint32, len(keys))
	tmpV := make([]uint32, len(keys))
	CMP(keys, vals, tmpK, tmpV, opt)
	checkSorted(t, orig, origV, keys, vals, false)
}

func TestCMPSingleRegion(t *testing.T) {
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			runCMP32(t, orig, Options{Threads: 4, CacheTuples: 1024})
		})
	}
}

func TestCMPNUMA(t *testing.T) {
	topo := numa.NewTopology(4)
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			runCMP32(t, orig, Options{Threads: 8, Topo: topo, CacheTuples: 1024})
		})
	}
}

func TestCMPNUMATransferBound(t *testing.T) {
	topo := numa.NewTopology(4)
	n := 1 << 16
	keys := gen.Uniform[uint32](n, 0, 3)
	vals := gen.RIDs[uint32](n)
	tmpK := make([]uint32, n)
	tmpV := make([]uint32, n)
	topo.ResetTransfers()
	var st Stats
	CMP(keys, vals, tmpK, tmpV, Options{Threads: 8, Topo: topo, Stats: &st, CacheTuples: 2048})
	if bound := uint64(n) * 8; st.RemoteBytes > bound {
		t.Fatalf("remote bytes %d exceed one-crossing bound %d", st.RemoteBytes, bound)
	}
	if !kv.IsSorted(keys) {
		t.Fatal("not sorted")
	}
	if st.Histogram == 0 || st.Partition == 0 || st.Shuffle == 0 || st.CacheSort == 0 {
		t.Fatalf("phase breakdown incomplete: %+v", st)
	}
}

func TestCMPSmallInput(t *testing.T) {
	// Entirely cache-resident input: a single leaf sort.
	runCMP32(t, gen.Uniform[uint32](500, 0, 7), Options{Threads: 2, CacheTuples: 1024})
}

func TestCMP64(t *testing.T) {
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 9)
	orig := append([]uint64(nil), keys...)
	vals := gen.RIDs[uint64](n)
	origV := append([]uint64(nil), vals...)
	tmpK := make([]uint64, n)
	tmpV := make([]uint64, n)
	CMP(keys, vals, tmpK, tmpV, Options{Threads: 4, Topo: numa.NewTopology(2), CacheTuples: 512})
	checkSorted(t, orig, origV, keys, vals, false)
}

func TestCMPSkewSingleKeyPartitions(t *testing.T) {
	n := 1 << 15
	keys := gen.ZipfKeys[uint32](n, 1<<18, 1.2, 7)
	runCMP32(t, keys, Options{Threads: 4, CacheTuples: 512, RangeFanout: 64})
}

func TestCMPAllEqual(t *testing.T) {
	runCMP32(t, gen.AllEqual[uint32](1<<14, 42), Options{Threads: 4, CacheTuples: 512})
}

func TestCMPQuick(t *testing.T) {
	topo := numa.NewTopology(2)
	f := func(raw []uint32, threads uint8, fanout uint8) bool {
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		tmpK := make([]uint32, len(keys))
		tmpV := make([]uint32, len(keys))
		CMP(keys, vals, tmpK, tmpV, Options{
			Threads:     int(threads%6) + 1,
			Topo:        topo,
			CacheTuples: 128,
			RangeFanout: int(fanout%30) + 2,
		})
		return kv.IsSorted(keys) &&
			kv.ChecksumPairs(keys, vals) == kv.ChecksumPairs(raw, gen.RIDs[uint32](len(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestCMPLeafCounter pins the combsort_leaves counter on CMP's leaf: one
// leaf for a cache-resident input, and at most one per first-pass
// partition when uniform keys make every partition cache-resident — in
// both the tmp layout and the in-place one.
func TestCMPLeafCounter(t *testing.T) {
	leaves := func(n int, inPlace bool) uint64 {
		keys := gen.Uniform[uint64](n, 0, 17)
		vals := gen.RIDs[uint64](n)
		var tmpK, tmpV []uint64
		if !inPlace {
			tmpK, tmpV = make([]uint64, n), make([]uint64, n)
		}
		obs.Start(nil)
		defer func() { _ = obs.Stop() }()
		var st Stats
		CMP(keys, vals, tmpK, tmpV, Options{Threads: 2, Stats: &st})
		if !kv.IsSorted(keys) {
			t.Fatal("not sorted")
		}
		return st.Counters.CombSortLeaves
	}
	fanout := uint64(Options{}.withDefaults().RangeFanout)
	for _, inPlace := range []bool{false, true} {
		if got := leaves(1000, inPlace); got != 1 {
			t.Fatalf("in-place=%v: cache-resident input counted %d leaves, want 1", inPlace, got)
		}
		if got := leaves(1<<18, inPlace); got < 1 || got > fanout {
			t.Fatalf("in-place=%v: n=2^18 counted %d leaves, want 1..%d", inPlace, got, fanout)
		}
	}
}

// TestCMPPassesSizedFromN guards the per-pass sizing of CMP's range
// passes: on two workers each pass takes its fanout from its segment
// (memmodel.CMPFanout) and samples splitter.Oversample keys per
// partition, so a 64-bit uniform sort samples at most n/8 keys and moves
// at most 2n tuples — one capped first pass, then at most one small pass
// per partition. TestCMPAuxCoversMeasuredPeak (internal/tune) checks the
// same at 2^23 and 2^24, where a 360-way second pass that sampled 64 keys
// per partition read 7.9 M samples. The heavy row sets every other key
// to one value: the first pass must give it a single-key partition the
// recursion skips, so the sort moves about n tuples; recursed, that
// partition alone would add n/2.
func TestCMPPassesSizedFromN(t *testing.T) {
	type row struct {
		n         int
		heavy     bool
		maxTuples int
	}
	rows := []row{{1 << 21, false, 2 << 21}, {1 << 18, true, 5 << 18 / 4}}
	for _, r := range rows {
		t.Run(fmt.Sprintf("n=%d/heavy=%v", r.n, r.heavy), func(t *testing.T) {
			keys := gen.Uniform[uint64](r.n, 0, 21)
			if r.heavy {
				for i := 0; i < r.n; i += 2 {
					keys[i] = 0x5555_5555_5555_5555
				}
			}
			vals := gen.RIDs[uint64](r.n)
			sum := kv.ChecksumPairs(keys, vals)
			obs.Start(nil)
			defer func() { _ = obs.Stop() }()
			var st Stats
			CMP(keys, vals, nil, nil, Options{Threads: 2, Stats: &st})
			if !kv.IsSorted(keys) || kv.ChecksumPairs(keys, vals) != sum {
				t.Fatal("output is not a sorted permutation of the input")
			}
			c := st.Counters
			if c.SplitterSamples > uint64(r.n/8) {
				t.Errorf("splitter samples %d, want at most n/8 = %d", c.SplitterSamples, r.n/8)
			}
			if c.TuplesPartitioned > uint64(r.maxTuples) {
				t.Errorf("tuples partitioned %d, want at most %d", c.TuplesPartitioned, r.maxTuples)
			}
			t.Logf("samples %d, tuples partitioned %d (%.2fn), leaves %d", c.SplitterSamples, c.TuplesPartitioned,
				float64(c.TuplesPartitioned)/float64(r.n), c.CombSortLeaves)
		})
	}
}
