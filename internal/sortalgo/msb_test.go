package sortalgo

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
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
