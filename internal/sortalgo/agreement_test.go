package sortalgo

import (
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/numa"
)

// referenceSort sorts pairs with the standard library, stably.
func referenceSort[K interface{ ~uint32 | ~uint64 }](keys, vals []K) {
	type pair struct{ k, v K }
	ps := make([]pair, len(keys))
	for i := range keys {
		ps[i] = pair{keys[i], vals[i]}
	}
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	for i := range ps {
		keys[i], vals[i] = ps[i].k, ps[i].v
	}
}

// TestAllSortsAgree32 runs every sorting algorithm in the package on the
// same inputs and demands identical key output (and identical pair output
// for the stable ones).
func TestAllSortsAgree32(t *testing.T) {
	topo := numa.NewTopology(2)
	for name, orig := range sortWorkloads32(5000) {
		t.Run(name, func(t *testing.T) {
			refK := append([]uint32(nil), orig...)
			refV := gen.RIDs[uint32](len(orig))
			referenceSort(refK, refV)

			type algo struct {
				name   string
				stable bool
				run    func(k, v []uint32)
			}
			algos := []algo{
				{"LSB", true, func(k, v []uint32) {
					tk := make([]uint32, len(k))
					tv := make([]uint32, len(k))
					LSB(k, v, tk, tv, Options{Threads: 3, Topo: topo})
				}},
				{"MSB", false, func(k, v []uint32) {
					MSB(k, v, Options{Threads: 3, CacheTuples: 512})
				}},
				{"CMP", false, func(k, v []uint32) {
					tk := make([]uint32, len(k))
					tv := make([]uint32, len(k))
					CMP(k, v, tk, tv, Options{Threads: 3, Topo: topo, CacheTuples: 512})
				}},
				{"mergesortK", false, func(k, v []uint32) {
					tk := make([]uint32, len(k))
					tv := make([]uint32, len(k))
					MergeSortKWay(k, v, tk, tv, 4, 512)
				}},
				{"quicksort", false, func(k, v []uint32) { Quicksort(k, v) }},
				{"combscalar", false, func(k, v []uint32) { CombSortScalar(k, v) }},
				{"combsimd", false, func(k, v []uint32) {
					NewCombSorter[uint32](len(k)).SortInPlace(k, v)
				}},
			}
			for _, a := range algos {
				keys := append([]uint32(nil), orig...)
				vals := gen.RIDs[uint32](len(orig))
				a.run(keys, vals)
				for i := range refK {
					if keys[i] != refK[i] {
						t.Fatalf("%s: key[%d] = %d, reference %d", a.name, i, keys[i], refK[i])
					}
					if a.stable && vals[i] != refV[i] {
						t.Fatalf("%s: payload[%d] = %d, stable reference %d", a.name, i, vals[i], refV[i])
					}
				}
			}
		})
	}
}

func TestAllSortsAgree64(t *testing.T) {
	n := 3000
	orig := gen.Uniform[uint64](n, 0, 77)
	refK := append([]uint64(nil), orig...)
	refV := gen.RIDs[uint64](n)
	referenceSort(refK, refV)

	runs := map[string]func(k, v []uint64){
		"LSB": func(k, v []uint64) {
			tk := make([]uint64, n)
			tv := make([]uint64, n)
			LSB(k, v, tk, tv, Options{Threads: 2})
		},
		"MSB": func(k, v []uint64) { MSB(k, v, Options{Threads: 2, CacheTuples: 256}) },
		"CMP": func(k, v []uint64) {
			tk := make([]uint64, n)
			tv := make([]uint64, n)
			CMP(k, v, tk, tv, Options{Threads: 2, CacheTuples: 256})
		},
		"quicksort": func(k, v []uint64) { Quicksort(k, v) },
	}
	for name, run := range runs {
		keys := append([]uint64(nil), orig...)
		vals := gen.RIDs[uint64](n)
		run(keys, vals)
		for i := range refK {
			if keys[i] != refK[i] {
				t.Fatalf("%s: key[%d] differs", name, i)
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Threads != 1 || o.RadixBits != 0 || o.RangeFanout != 360 || o.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if (Options{}).regions() != 1 {
		t.Fatal("nil topology should mean one region")
	}
	if (Options{Topo: numa.NewTopology(4)}).regions() != 4 {
		t.Fatal("regions should follow the topology")
	}
}

func TestStatsAccumulation(t *testing.T) {
	var st Stats
	timed(&st, "test", phHistogram, func() {})
	timed(&st, "test", phCache, func() {})
	timed(nil, "test", phCache, func() {}) // nil-safe
	st.add(phAlloc, 5)
	st.add(phPartition, 7)
	st.add(phShuffle, 11)
	st.add(phLocal, 13)
	if st.Alloc != 5 || st.Partition != 7 || st.Shuffle != 11 || st.LocalRadix != 13 {
		t.Fatalf("buckets wrong: %+v", st)
	}
	if st.Total() < 36 {
		t.Fatalf("Total = %v", st.Total())
	}
}

func TestLSBAdversarialPayloadOrder(t *testing.T) {
	// Stability must hold even when the input payload order is adversarial
	// (descending), because stability is about input positions, not
	// payload values. Use payloads equal to position to keep the witness.
	n := 4096
	keys := gen.Uniform[uint32](n, 4, 3) // only 4 distinct keys: heavy ties
	vals := gen.RIDs[uint32](n)
	tk := make([]uint32, n)
	tv := make([]uint32, n)
	LSB(keys, vals, tk, tv, Options{Threads: 4, Topo: numa.NewTopology(4), RadixBits: 3})
	for i := 1; i < n; i++ {
		if keys[i-1] == keys[i] && vals[i-1] >= vals[i] {
			t.Fatalf("stability violated at %d", i)
		}
	}
}

func TestMSBRecurseBitExhaustion(t *testing.T) {
	// Keys identical in all remaining bits: recursion must stop without
	// spinning even though segments exceed the insertion cutoff.
	keys := make([]uint32, 1000)
	vals := gen.RIDs[uint32](1000)
	for i := range keys {
		keys[i] = 0xABCD0000 // all equal
	}
	msbRecurse(nil, new(msbTail[uint32]), keys, vals, 32, 128, nil)
	for _, k := range keys {
		if k != 0xABCD0000 {
			t.Fatal("keys changed")
		}
	}
}

func TestCMPStatsSingleLeaf(t *testing.T) {
	// Input below the cache threshold: CMP is a single comb-sort leaf and
	// only CacheSort time should appear.
	n := 512
	keys := gen.Uniform[uint32](n, 0, 3)
	vals := gen.RIDs[uint32](n)
	tk := make([]uint32, n)
	tv := make([]uint32, n)
	var st Stats
	CMP(keys, vals, tk, tv, Options{Threads: 2, CacheTuples: 1024, Stats: &st})
	if st.CacheSort == 0 {
		t.Fatal("no cache-sort time recorded")
	}
	if st.Partition != 0 || st.Shuffle != 0 {
		t.Fatalf("unexpected phases: %+v", st)
	}
}
