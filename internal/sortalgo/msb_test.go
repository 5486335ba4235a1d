package sortalgo

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/ws"
)

func TestMSBSerial(t *testing.T) {
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			MSB(keys, vals, Options{Threads: 1, CacheTuples: 1024})
			checkSorted(t, orig, origV, keys, vals, false)
		})
	}
}

func TestMSBParallel(t *testing.T) {
	for _, threads := range []int{2, 4, 8} {
		for name, orig := range sortWorkloads32(1 << 14) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			MSB(keys, vals, Options{Threads: threads, CacheTuples: 1024})
			t.Run(name, func(t *testing.T) {
				checkSorted(t, orig, origV, keys, vals, false)
			})
		}
	}
}

func TestMSBNUMA(t *testing.T) {
	topo := numa.NewTopology(4)
	n := 1 << 16
	keys := gen.Uniform[uint32](n, 0, 31)
	orig := append([]uint32(nil), keys...)
	vals := gen.RIDs[uint32](n)
	origV := append([]uint32(nil), vals...)
	topo.ResetTransfers()
	var st Stats
	MSB(keys, vals, Options{Threads: 8, Topo: topo, Stats: &st})
	checkSorted(t, orig, origV, keys, vals, false)
	// Section 3.3.2: the block permutation's permute legs cross the
	// interconnect at most twice per tuple (the kernel's own test holds
	// the exact bound, which adds the cleanup's stripe heads).
	if bound := 2 * uint64(n) * 8; st.RemoteBytes > bound {
		t.Fatalf("remote bytes %d exceed two-crossing bound %d", st.RemoteBytes, bound)
	}
	if st.RemoteBytes == 0 {
		t.Fatal("no remote bytes metered on 4 regions")
	}
	if st.Partition == 0 || st.LocalRadix == 0 {
		t.Fatalf("phase breakdown incomplete: %+v", st)
	}
}

func TestMSB64Sparse(t *testing.T) {
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 77)
	orig := append([]uint64(nil), keys...)
	vals := gen.RIDs[uint64](n)
	origV := append([]uint64(nil), vals...)
	MSB(keys, vals, Options{Threads: 4, CacheTuples: 1024})
	checkSorted(t, orig, origV, keys, vals, false)
}

func TestMSBSkew(t *testing.T) {
	// Heavy Zipf skew: single-key partitions must be handled.
	n := 1 << 15
	keys := gen.ZipfKeys[uint32](n, 1<<20, 1.2, 13)
	orig := append([]uint32(nil), keys...)
	vals := gen.RIDs[uint32](n)
	origV := append([]uint32(nil), vals...)
	MSB(keys, vals, Options{Threads: 8, CacheTuples: 2048})
	checkSorted(t, orig, origV, keys, vals, false)
}

func TestMSBAllEqualLarge(t *testing.T) {
	// The degenerate all-equal input: every sampled delimiter collides.
	n := 1 << 15
	keys := gen.AllEqual[uint32](n, 0xDEADBEEF)
	vals := gen.RIDs[uint32](n)
	origV := append([]uint32(nil), vals...)
	orig := append([]uint32(nil), keys...)
	MSB(keys, vals, Options{Threads: 4})
	checkSorted(t, orig, origV, keys, vals, false)
}

func TestMSBQuick(t *testing.T) {
	f := func(raw []uint32, threads uint8) bool {
		keys := append([]uint32(nil), raw...)
		vals := gen.RIDs[uint32](len(keys))
		MSB(keys, vals, Options{Threads: int(threads%6) + 1, CacheTuples: 512})
		return kv.IsSorted(keys) &&
			kv.ChecksumPairs(keys, vals) == kv.ChecksumPairs(raw, gen.RIDs[uint32](len(raw)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMSBSmallDomain(t *testing.T) {
	// Dense small domain: recursion must stop when bits are exhausted.
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 8, 3)
	orig := append([]uint32(nil), keys...)
	vals := gen.RIDs[uint32](n)
	origV := append([]uint32(nil), vals...)
	MSB(keys, vals, Options{Threads: 4, CacheTuples: 256})
	checkSorted(t, orig, origV, keys, vals, false)
}

// BenchmarkMSBInCacheTail times msbRecurse on cache-resident segments of
// 56-bit uniform 64-bit pairs on one worker with a warm workspace, in
// ns/tuple. 1365 tuples is the segment a 2^21-pair sort on 2 threads
// hands the in-cache branch (2^21 over ~6 first-pass ranges over one
// byte-wide local pass); 16384 is the 64-bit cache bound. Each round
// sorts 2^18 tuples of consecutive segments, refilled untimed.
func BenchmarkMSBInCacheTail(b *testing.B) {
	const total = 1 << 18
	const hiBit = 56
	for _, seg := range []int{1365, 8192, 16384} {
		b.Run(fmt.Sprintf("seg=%d", seg), func(b *testing.B) {
			segs := total / seg
			src := gen.Uniform[uint64](segs*seg, 1<<hiBit, 1)
			srcV := gen.RIDs[uint64](len(src))
			keys, vals := make([]uint64, len(src)), make([]uint64, len(src))
			w := ws.New()
			defer w.Close()
			ct := cacheTuples(Options{}, 64)
			var tail msbTail[uint64]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % segs
				if j == 0 {
					b.StopTimer()
					copy(keys, src)
					copy(vals, srcV)
					b.StartTimer()
				}
				lo, hi := j*seg, (j+1)*seg
				msbRecurse(w, &tail, keys[lo:hi], vals[lo:hi], hiBit, ct, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*seg), "ns/tuple")
		})
	}
}

// TestMSBSharedPrefix sorts keys that share a high prefix at 1 and 2
// threads: uniform keys below 2^57 OR'd with 127<<57 (64-bit) and below
// 2^25 OR'd with 127<<25 (32-bit), seven shared bits each. The output is sorted and a permutation,
// and the partitioning kernels move exactly as many tuples as for the
// same keys without the prefix: MSB's digits start below the bits every
// key shares, not below the maximum's bit length.
func TestMSBSharedPrefix(t *testing.T) {
	for _, n := range []int{1 << 16, 1 << 21} {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("n=%d/T=%d/64", n, threads), func(t *testing.T) {
				checkPrefixNeutral(t, gen.Uniform[uint64](n, 1<<57, 5), 127<<57, threads)
			})
			t.Run(fmt.Sprintf("n=%d/T=%d/32", n, threads), func(t *testing.T) {
				checkPrefixNeutral(t, gen.Uniform[uint32](n, 1<<25, 6), 127<<25, threads)
			})
		}
	}
}

// checkPrefixNeutral sorts keys and keys | prefix and compares the
// tuples each sort partitioned.
func checkPrefixNeutral[K kv.Key](t *testing.T, keys []K, prefix K, threads int) {
	plain := msbCounters(t, keys, threads).TuplesPartitioned
	pk := make([]K, len(keys))
	for i, k := range keys {
		pk[i] = k | prefix
	}
	if got := msbCounters(t, pk, threads).TuplesPartitioned; got != plain {
		t.Fatalf("tuples partitioned with the prefix %d, without %d", got, plain)
	}
}

// msbCounters sorts a copy of orig with RIDs as payloads, checks the
// result, and returns the run's counter delta.
func msbCounters[K kv.Key](t *testing.T, orig []K, threads int) obs.CounterSnapshot {
	t.Helper()
	keys := append([]K(nil), orig...)
	vals := gen.RIDs[K](len(keys))
	origV := append([]K(nil), vals...)
	obs.Start(nil)
	defer func() { _ = obs.Stop() }()
	var st Stats
	MSB(keys, vals, Options{Threads: threads, Stats: &st})
	checkSorted(t, orig, origV, keys, vals, false)
	return st.Counters
}

// TestMSBFirstPassRadix checks that two workers sort 2^21 uniform 64-bit
// pairs with one shared radix pass after which every bucket is
// cache-resident: the kernels move at most 2n tuples (the first pass and
// the in-cache scatters), and the sample, read only as a skew test,
// counts no splitter samples.
func TestMSBFirstPassRadix(t *testing.T) {
	n := 1 << 21
	c := msbCounters(t, gen.Uniform[uint64](n, 0, 12), 2)
	if c.TuplesPartitioned > 2*uint64(n) {
		t.Fatalf("tuples partitioned %d, want at most 2n = %d", c.TuplesPartitioned, 2*n)
	}
	if c.SplitterSamples != 0 {
		t.Fatalf("splitter samples %d on the radix path, want 0", c.SplitterSamples)
	}
}

// TestMSBFirstPassSkew checks the range-split fallback: when half of the
// keys are one value, the skew test sends two workers' first pass to the
// sampled split (splitter samples counted), which gives the heavy key a
// single-key partition that the recursion skips. Were that partition
// recursed, its n/2 equal keys would take a byte pass per digit below
// the split, about 3.5n more tuples; skipped, the rest costs under 2n.
func TestMSBFirstPassSkew(t *testing.T) {
	n := 1 << 18
	keys := gen.Uniform[uint64](n, 0, 13)
	for i := 0; i < n; i += 2 {
		keys[i] = 0x5555_5555_5555_5555
	}
	c := msbCounters(t, keys, 2)
	if c.SplitterSamples == 0 {
		t.Fatal("no splitter samples: the skewed input did not take the range split")
	}
	if c.TuplesPartitioned >= 3*uint64(n) {
		t.Fatalf("tuples partitioned %d, want under 3n = %d: the heavy key's partition was recursed", c.TuplesPartitioned, 3*n)
	}
}

// TestMSBStatsSplitsCache checks that MSB's Stats put the in-cache
// subtrees under CacheSort and the local passes above the cache bound
// under LocalRadix: 2^18 64-bit pairs, above the 16384-tuple bound, on 1
// and 2 threads.
func TestMSBStatsSplitsCache(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("T=%d", threads), func(t *testing.T) {
			keys := gen.Uniform[uint64](1<<18, 0, 8)
			vals := gen.RIDs[uint64](len(keys))
			var st Stats
			MSB(keys, vals, Options{Threads: threads, Stats: &st})
			if !kv.IsSorted(keys) {
				t.Fatal("not sorted")
			}
			if st.CacheSort <= 0 || st.LocalRadix <= 0 {
				t.Fatalf("local %v, cache %v: want both positive", st.LocalRadix, st.CacheSort)
			}
		})
	}
}

// TestMSBPairs sorts interleaved pairs through MSBPairs, with and without
// a workspace, on the shapes the external sort's buckets take: empty, one
// tuple, at most the insertion cutoff, all equal, a shared high prefix,
// more than hard.CkptTuples uniform keys, and a first-pass part above the
// cache bound. The output is sorted and a permutation of the pairs.
func TestMSBPairs(t *testing.T) {
	skewed := gen.Uniform[uint64](40000, 1<<16, 3)
	skewed[0] = 1 << 23 // first pass on bits 16-23: one part of 39999
	prefixed := gen.Uniform[uint64](1<<16, 1<<50, 4)
	for i := range prefixed {
		prefixed[i] |= 127 << 57
	}
	shapes := map[string][]uint64{
		"empty":      nil,
		"one":        {7},
		"cutoff":     gen.Uniform[uint64](msbInsertionCutoff, 0, 1),
		"equal":      gen.AllEqual[uint64](5000, 42),
		"prefix":     prefixed,
		"above-ckpt": gen.Uniform[uint64](70000, 0, 2),
		"skewed":     skewed,
	}
	for name, keys := range shapes {
		for _, w := range []*ws.Workspace{nil, ws.New()} {
			t.Run(fmt.Sprintf("%s/ws=%v", name, w != nil), func(t *testing.T) {
				checkMSBPairs(t, keys, w)
				w.Close()
			})
		}
	}
	t.Run("u32", func(t *testing.T) {
		checkMSBPairs(t, gen.Uniform[uint32](70000, 0, 5), nil)
	})
}

// checkMSBPairs interleaves keys with row ids, sorts them with MSBPairs
// and checks the result.
func checkMSBPairs[K kv.Key](t *testing.T, keys []K, w *ws.Workspace) {
	t.Helper()
	n := len(keys)
	vals := gen.RIDs[K](n)
	pairs := make([]K, 2*n)
	for i := range keys {
		pairs[2*i], pairs[2*i+1] = keys[i], vals[i]
	}
	outK, outV := make([]K, n), make([]K, n)
	MSBPairs(pairs, outK, outV, Options{Workspace: w})
	checkSorted(t, keys, vals, outK, outV, false)
}

// TestMSBPairsScratch pins what a bucket sort draws from a warm
// workspace: for 2^16 uniform 64-bit pairs, whose first pass leaves
// in-cache parts of ~256 tuples, only its tables (under 8 KiB: the first
// pass is Algorithm 1 and draws no line buffers), no block permutation
// and no buffer pair, and no heap allocation.
func TestMSBPairsScratch(t *testing.T) {
	const n = 1 << 16
	keys := gen.Uniform[uint64](n, 0, 9)
	pairs := make([]uint64, 2*n)
	outK, outV := make([]uint64, n), make([]uint64, n)
	w := ws.New()
	defer w.Close()
	sortOnce := func() {
		for i, k := range keys {
			pairs[2*i], pairs[2*i+1] = k, uint64(i)
		}
		MSBPairs(pairs, outK, outV, Options{Workspace: w})
	}
	sortOnce()
	w.ResetPeakAux()
	if a := testing.AllocsPerRun(5, sortOnce); a != 0 {
		t.Fatalf("warm workspace MSBPairs allocates %v times per sort", a)
	}
	if !kv.IsSorted(outK) {
		t.Fatal("not sorted")
	}
	if p := w.PeakAuxBytes(); p > 8<<10 {
		t.Fatalf("peak aux %d B, want at most 8 KiB", p)
	}
	t.Logf("peak aux %d B", w.PeakAuxBytes())
}
