package sortalgo

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/ws"
)

// TestLSBWorkspaceMatchesPlain exercises the workspace-backed drivers —
// single-thread (RadixBits 8, threads 1) and per-pass parallel (RadixBits
// 8 and 4, threads 4) — against the workspace-less result: sorted,
// stable, same multiset.
func TestLSBWorkspaceMatchesPlain(t *testing.T) {
	w := ws.New()
	defer w.Close()
	cases := []struct {
		threads, radixBits int
	}{{1, 8}, {4, 8}, {4, 4}}
	for _, c := range cases {
		for name, orig := range sortWorkloads32(1 << 14) {
			t.Run(name, func(t *testing.T) {
				keys := append([]uint32(nil), orig...)
				vals := gen.RIDs[uint32](len(keys))
				origV := append([]uint32(nil), vals...)
				tmpK := make([]uint32, len(keys))
				tmpV := make([]uint32, len(keys))
				LSB(keys, vals, tmpK, tmpV, Options{Threads: c.threads, RadixBits: c.radixBits, Workspace: w})
				checkSorted(t, orig, origV, keys, vals, true)
			})
		}
	}
}

// TestLSBParallelZeroAlloc pins the per-pass parallel driver as
// allocation-free on a warm workspace, under the working-set digit plan
// and under narrow fixed digits (eight 4-bit passes).
func TestLSBParallelZeroAlloc(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 5)
	vals := gen.RIDs[uint32](n)
	tmpK, tmpV := make([]uint32, n), make([]uint32, n)
	work := make([]uint32, n)
	for _, bits := range []int{0, 4} {
		opt := Options{Threads: 4, RadixBits: bits, Workspace: w}
		sortOnce := func() {
			copy(work, keys)
			LSB(work, vals, tmpK, tmpV, opt)
		}
		sortOnce()
		if a := testing.AllocsPerRun(10, sortOnce); a != 0 {
			t.Errorf("RadixBits %d: warm parallel LSB allocates %v times per sort", bits, a)
		}
	}
}

func TestLSBWorkspaceNUMA(t *testing.T) {
	w := ws.New()
	defer w.Close()
	topo := numa.NewTopology(4)
	for name, orig := range sortWorkloads32(1 << 14) {
		t.Run(name, func(t *testing.T) {
			keys := append([]uint32(nil), orig...)
			vals := gen.RIDs[uint32](len(keys))
			origV := append([]uint32(nil), vals...)
			LSB(keys, vals, make([]uint32, len(keys)), make([]uint32, len(keys)),
				Options{Threads: 8, Topo: topo, Workspace: w})
			checkSorted(t, orig, origV, keys, vals, true)
		})
	}
}

// TestCMPWorkspace sorts with tmp given. The last two rows take the
// block-permutation first pass with tmp as the recursion's ping-pong
// scratch (a small CacheTuples makes partitions recurse): one worker, and
// a topology whose NUMA-aware layout Oblivious turns off.
func TestCMPWorkspace(t *testing.T) {
	w := ws.New()
	defer w.Close()
	for _, opt := range []Options{
		{Threads: 1},
		{Threads: 4},
		{Threads: 1, CacheTuples: 32},
		{Threads: 4, Topo: numa.NewTopology(4), Oblivious: true, CacheTuples: 32},
	} {
		opt.Workspace = w
		for name, orig := range sortWorkloads32(1 << 14) {
			t.Run(name, func(t *testing.T) {
				keys := append([]uint32(nil), orig...)
				vals := gen.RIDs[uint32](len(keys))
				origV := append([]uint32(nil), vals...)
				CMP(keys, vals, make([]uint32, len(keys)), make([]uint32, len(keys)), opt)
				checkSorted(t, orig, origV, keys, vals, false)
			})
		}
	}
}

// TestCMPWorkspacePeakAux bounds a warm two-worker CMP's scratch high
// water mark (64-bit pairs). The two 2^16 rows never recurse past the
// first pass; their bounds are the peaks measured when each worker still
// pooled a CombSorter with two pad buffers of 1.5 × CacheTuples, and the
// in-place leaf needs no scratch, so a regression past them means a leaf
// or driver grew a buffer again. The 2^18 row recurses (RangeFanout 16,
// CacheTuples 1024 leave ~16k-tuple partitions, each a further range
// pass): those passes draw only one worker's block buffers each (~0.57 MB
// peak measured), so scratch sized by the partition breaks the bound.
func TestCMPWorkspacePeakAux(t *testing.T) {
	for _, tc := range []struct {
		n       int
		inPlace bool
		opt     Options
		bound   uint64
	}{
		{1 << 16, false, Options{}, 1318912},
		{1 << 16, true, Options{}, 1060864},
		{1 << 18, true, Options{RangeFanout: 16, CacheTuples: 1024}, 600000},
	} {
		w := ws.New()
		var st Stats
		for run := 0; run < 2; run++ {
			keys := gen.Uniform[uint64](tc.n, 0, 5)
			vals := gen.RIDs[uint64](tc.n)
			var tmpK, tmpV []uint64
			if !tc.inPlace {
				tmpK, tmpV = make([]uint64, tc.n), make([]uint64, tc.n)
			}
			st = Stats{}
			opt := tc.opt
			opt.Threads, opt.Workspace, opt.Stats = 2, w, &st
			CMP(keys, vals, tmpK, tmpV, opt)
			if !kv.IsSorted(keys) {
				t.Fatal("not sorted")
			}
		}
		if st.PeakAuxBytes == 0 || st.PeakAuxBytes > tc.bound {
			t.Errorf("n=%d in-place=%v: warm PeakAuxBytes %d, want 1..%d", tc.n, tc.inPlace, st.PeakAuxBytes, tc.bound)
		}
		if aux := w.AuxBytes(); aux != 0 {
			t.Errorf("n=%d in-place=%v: workspace ledger holds %d bytes after the sort, want 0", tc.n, tc.inPlace, aux)
		}
		w.Close()
	}
}

func TestMSBWorkspace(t *testing.T) {
	w := ws.New()
	defer w.Close()
	for _, opt := range []Options{
		{Threads: 1},
		{Threads: 4},
		{Threads: 8, Topo: numa.NewTopology(4)},
	} {
		opt.Workspace = w
		for name, orig := range sortWorkloads32(1 << 14) {
			t.Run(name, func(t *testing.T) {
				keys := append([]uint32(nil), orig...)
				vals := gen.RIDs[uint32](len(keys))
				origV := append([]uint32(nil), vals...)
				MSB(keys, vals, opt)
				checkSorted(t, orig, origV, keys, vals, false)
			})
		}
	}
}

// TestMSBNUMAWorkspaceHeap pins the NUMA-aware MSB on the workspace: with
// a warm arena its first pass draws every buffer from the ledger, so a
// call allocates well under the input's size on the heap, and the ledger
// is back to zero afterwards.
func TestMSBNUMAWorkspaceHeap(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 16
	keys := gen.Uniform[uint32](n, 0, 31)
	vals := gen.RIDs[uint32](n)
	work, workV := make([]uint32, n), make([]uint32, n)
	opt := Options{Threads: 8, Topo: numa.NewTopology(4), Workspace: w}
	sortOnce := func() {
		copy(work, keys)
		copy(workV, vals)
		MSB(work, workV, opt)
	}
	sortOnce()
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sortOnce()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
		t.Fatalf("warm NUMA MSB allocates %d heap bytes per call, want < 64 KiB", per)
	}
	if !kv.IsSorted(work) {
		t.Fatal("not sorted")
	}
	if aux := w.AuxBytes(); aux != 0 {
		t.Fatalf("workspace ledger holds %d bytes after the sort, want 0", aux)
	}
}

// TestMSBNilWorkspaceHeap pins MSB without a workspace: each worker
// keeps one in-cache buffer pair for all its segments, so a one-thread
// sort of 2^18 64-bit pairs, which takes 256 in-cache segments, allocates
// well under half the input's bytes on the heap rather than a fresh pair
// per segment (about 1.4 times the input).
func TestMSBNilWorkspaceHeap(t *testing.T) {
	n := 1 << 18
	keys := gen.Uniform[uint64](n, 0, 31)
	vals := gen.RIDs[uint64](n)
	work, workV := make([]uint64, n), make([]uint64, n)
	copy(work, keys)
	copy(workV, vals)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MSB(work, workV, Options{Threads: 1})
	runtime.ReadMemStats(&after)
	input := uint64(n) * 16
	if heap := after.TotalAlloc - before.TotalAlloc; heap >= input/2 {
		t.Fatalf("MSB without a workspace allocates %d heap bytes for a %d-byte input, want < half", heap, input)
	} else {
		t.Logf("%d heap bytes for a %d-byte input", heap, input)
	}
	if !kv.IsSorted(work) {
		t.Fatal("not sorted")
	}
}

func TestWorkspace64(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 13
	orig := gen.Uniform[uint64](n, 1<<45, 77)
	for _, alg := range []string{"lsb", "cmp", "msb"} {
		t.Run(alg, func(t *testing.T) {
			keys := append([]uint64(nil), orig...)
			vals := gen.RIDs[uint64](n)
			origV := append([]uint64(nil), vals...)
			opt := Options{Threads: 4, Workspace: w, RadixBits: 11}
			switch alg {
			case "lsb":
				LSB(keys, vals, make([]uint64, n), make([]uint64, n), opt)
			case "cmp":
				CMP(keys, vals, make([]uint64, n), make([]uint64, n), opt)
			case "msb":
				MSB(keys, vals, opt)
			}
			checkSorted(t, orig, origV, keys, vals, alg == "lsb")
		})
	}
}

// TestWorkspaceStatsCounters verifies the hit/miss wiring: a cold sort
// reports misses, and a warm same-shape re-sort reports zero new misses
// with nonzero hits.
func TestWorkspaceStatsCounters(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 14
	run := func() Stats {
		keys := gen.Uniform[uint32](n, 0, 5)
		vals := gen.RIDs[uint32](n)
		var st Stats
		LSB(keys, vals, make([]uint32, n), make([]uint32, n),
			Options{Threads: 4, Workspace: w, Stats: &st})
		return st
	}
	cold := run()
	if cold.WorkspaceMisses == 0 {
		t.Fatal("cold run reported no workspace misses")
	}
	warm := run()
	if warm.WorkspaceMisses != 0 {
		t.Fatalf("warm run reported %d workspace misses (hits %d)",
			warm.WorkspaceMisses, warm.WorkspaceHits)
	}
	if warm.WorkspaceHits == 0 {
		t.Fatal("warm run reported no workspace hits")
	}
}

// TestLSBWorkspaceZeroAlloc is the tentpole acceptance check: a warm
// workspace-backed single-threaded LSB sort makes zero heap allocations,
// both in cache (8-bit digits, Algorithm 1) and out of cache (11-bit
// digits, the line-buffered scatter).
func TestLSBWorkspaceZeroAlloc(t *testing.T) {
	for _, n := range []int{1 << 14, 1 << 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			w := ws.New()
			defer w.Close()
			keys := gen.Uniform[uint32](n, 0, 5)
			vals := gen.RIDs[uint32](n)
			tmpK, tmpV := make([]uint32, n), make([]uint32, n)
			work := make([]uint32, n)
			opt := Options{Threads: 1, Workspace: w}
			sortOnce := func() {
				copy(work, keys)
				LSB(work, vals, tmpK, tmpV, opt)
			}
			sortOnce() // warm the arena
			if a := testing.AllocsPerRun(10, sortOnce); a != 0 {
				t.Fatalf("warm workspace LSB allocates %v times per sort", a)
			}
		})
	}
}

// TestMSBWorkspaceZeroAlloc pins the recursion scratch (histograms,
// starts arrays, block-permutation buffers) as pooled on the
// single-threaded path: 2^13 keys never leave cache, and a 1024-tuple
// cache bound sends 2^16 64-bit pairs through the out-of-cache local
// passes.
func TestMSBWorkspaceZeroAlloc(t *testing.T) {
	t.Run("in-cache/u32", func(t *testing.T) {
		msbZeroAlloc(t, gen.Uniform[uint32](1<<13, 0, 5), 0)
	})
	t.Run("out-of-cache/u64", func(t *testing.T) {
		msbZeroAlloc(t, gen.Uniform[uint64](1<<16, 0, 5), 1<<10)
	})
}

// msbZeroAlloc fails unless a warm workspace sorts keys (paired with row
// ids) through one-thread MSB without a heap allocation.
func msbZeroAlloc[K kv.Key](t *testing.T, keys []K, cacheTuples int) {
	w := ws.New()
	defer w.Close()
	n := len(keys)
	vals := gen.RIDs[K](n)
	work, workV := make([]K, n), make([]K, n)
	opt := Options{Threads: 1, CacheTuples: cacheTuples, Workspace: w}
	sortOnce := func() {
		copy(work, keys)
		copy(workV, vals)
		MSB(work, workV, opt)
	}
	sortOnce()
	if !kv.IsSorted(work) {
		t.Fatal("not sorted")
	}
	if a := testing.AllocsPerRun(10, sortOnce); a != 0 {
		t.Fatalf("warm workspace MSB allocates %v times per sort", a)
	}
}

// TestWorkspaceSharedAcrossAlgorithms reuses one workspace across all three
// sorts and key widths in sequence — the server scenario.
func TestWorkspaceSharedAcrossAlgorithms(t *testing.T) {
	w := ws.New()
	defer w.Close()
	n := 1 << 13
	for round := 0; round < 3; round++ {
		keys := gen.ZipfKeys[uint32](n, 1<<24, 1.05, uint64(round+1))
		vals := gen.RIDs[uint32](n)
		orig := append([]uint32(nil), keys...)
		origV := append([]uint32(nil), vals...)
		LSB(keys, vals, make([]uint32, n), make([]uint32, n), Options{Threads: 4, Workspace: w})
		checkSorted(t, orig, origV, keys, vals, true)

		k64 := gen.Uniform[uint64](n, 1<<50, uint64(round+11))
		v64 := gen.RIDs[uint64](n)
		o64 := append([]uint64(nil), k64...)
		oV64 := append([]uint64(nil), v64...)
		CMP(k64, v64, make([]uint64, n), make([]uint64, n), Options{Threads: 4, Workspace: w})
		checkSorted(t, o64, oV64, k64, v64, false)

		k2 := gen.Uniform[uint32](n, 0, uint64(round+21))
		v2 := gen.RIDs[uint32](n)
		o2 := append([]uint32(nil), k2...)
		oV2 := append([]uint32(nil), v2...)
		MSB(k2, v2, Options{Threads: 4, Workspace: w})
		checkSorted(t, o2, oV2, k2, v2, false)
	}
	if !kv.IsSorted([]uint32{}) {
		t.Fatal("sanity")
	}
}
