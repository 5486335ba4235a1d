package figures

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/memmodel"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
	"repro/internal/sortalgo"
	"repro/internal/splitter"
)

// FigTLB replays the address streams of unbuffered vs buffered
// partitioning through the trace-driven cache+TLB simulator: the
// event-space form of the paper's central out-of-cache argument (Sections
// 3.2, 2 [11,14,15]). Unlike wall-clock on this VM, miss rates are
// hardware-exact for the modeled hierarchy.
func FigTLB(cfg Config) *Table {
	cfg = cfg.WithDefaults()
	n := min(cfg.PartTuples, 1<<19) // trace simulation is ~50M events/s
	prof := memmodel.PaperProfile()
	t := &Table{
		ID:    "tlb",
		Title: "Cache+TLB simulation of the partitioning address stream (4KB pages, 64-entry TLB)",
		Columns: []string{"P",
			"unbuf TLB miss/tuple", "buf TLB miss/tuple", "unbuf 2MB-pages TLB miss/tuple",
			"unbuf L1 miss/tuple", "buf L1 miss/tuple",
			"unbuf latency ns/tuple", "buf latency ns/tuple"},
		Notes: []string{
			"the TLB miss rate cliff past P=64 is why out-of-cache partitioning buffers (Section 3.2.1)",
			"the 2MB-pages column shows Section 3.2's caveat: few large OS pages keep even unbuffered partitioning TLB-resident",
			fmt.Sprintf("trace over %d tuples, 8-byte tuples", n),
		},
	}
	huge := prof
	huge.PageBytes = 2 << 20
	keys := gen.Uniform[uint32](n, 0, 7)
	for _, bits := range []int{3, 5, 7, 9, 11, 13} {
		fanout := 1 << bits
		parts := make([]int, n)
		fn := pfunc.NewHash[uint32](fanout)
		for i, k := range keys {
			parts[i] = fn.Partition(k)
		}
		unbuf := memmodel.PartitionTrace(prof, parts, fanout, 8, false)
		buf := memmodel.PartitionTrace(prof, parts, fanout, 8, true)
		unbufHuge := memmodel.PartitionTrace(huge, parts, fanout, 8, false)
		nn := float64(n)
		t.AddRow(fmt.Sprint(fanout),
			f2(float64(unbuf.TLBMiss)/nn), f2(float64(buf.TLBMiss)/nn),
			f2(float64(unbufHuge.TLBMiss)/nn),
			f2(float64(unbuf.L1Miss)/nn), f2(float64(buf.L1Miss)/nn),
			f1(unbuf.StreamNs()/nn), f1(buf.StreamNs()/nn))
	}
	return t
}

// FigAblation measures the design choices DESIGN.md calls out: radix bits
// per LSB pass, the comparison sort's range fanout, and the block size of
// in-place block partitioning.
func FigAblation(cfg Config) *Table {
	cfg = cfg.WithDefaults()
	n := cfg.SortTuples
	t := &Table{
		ID:      "ablation",
		Title:   "Design-choice ablations (measured on this machine)",
		Columns: []string{"knob", "value", "Mtuples/s"},
		Notes: []string{
			"paper picks: 10-12 radix bits per out-of-cache pass, range fanout from the {360,1000,1800} menu, blocks large enough to amortize claim-counter traffic",
			"cmp-range-fanout is the cap: each CMP pass sizes its fanout as ceil(4n/cacheTuples) below it, so caps above that size run the same sort",
		},
	}

	// LSB radix bits per pass.
	for _, bits := range []int{4, 6, 8, 10, 12} {
		keys := gen.Uniform[uint32](n, 0, 3)
		vals := gen.RIDs[uint32](n)
		tmpK := make([]uint32, n)
		tmpV := make([]uint32, n)
		d := timeIt(func() {
			sortalgo.LSB(keys, vals, tmpK, tmpV, sortalgo.Options{Threads: cfg.Threads, RadixBits: bits})
		})
		t.AddRow("lsb-radix-bits", fmt.Sprint(bits), f1(mtps(n, d)))
	}

	// CMP range fanout cap, at and below the fanout the first pass sizes
	// from n (128 at the default 1M 32-bit tuples).
	for _, fanout := range []int{16, 64, 360} {
		keys := gen.Uniform[uint32](n, 0, 5)
		vals := gen.RIDs[uint32](n)
		tmpK := make([]uint32, n)
		tmpV := make([]uint32, n)
		d := timeIt(func() {
			sortalgo.CMP(keys, vals, tmpK, tmpV, sortalgo.Options{Threads: cfg.Threads, RangeFanout: fanout})
		})
		t.AddRow("cmp-range-fanout", fmt.Sprint(fanout), f1(mtps(n, d)))
	}

	// Block size of the parallel in-place block permutation.
	fn := pfunc.NewRadix[uint32](0, 6)
	for _, b := range []int{64, 256, 1024, 4096} {
		keys := gen.Uniform[uint32](n, 0, 7)
		vals := gen.RIDs[uint32](n)
		d := timeIt(func() {
			part.BlockPermute(nil, keys, vals, fn, b, cfg.Threads, nil, nil, nil)
		})
		t.AddRow("block-tuples", fmt.Sprint(b), f1(mtps(n, d)))
	}

	// k of the k-way merge-sort baseline vs CMP (Section 4.3.2 discusses
	// 16-way merging as the strongest merge competitor).
	for _, k := range []int{2, 4, 16} {
		keys := gen.Uniform[uint32](n, 0, 9)
		vals := gen.RIDs[uint32](n)
		tmpK := make([]uint32, n)
		tmpV := make([]uint32, n)
		d := timeIt(func() {
			sortalgo.MergeSortKWay(keys, vals, tmpK, tmpV, k, 1<<14)
		})
		t.AddRow("mergesort-k", fmt.Sprint(k), f1(mtps(n, d)))
	}

	// Range index at 360, 1000 and 1800 partitions (9, 10 and 11 levels).
	keys := gen.Uniform[uint32](n, 0, 3)
	codes := make([]int32, n)
	for _, p := range []int{360, 1000, 1800} {
		delims := splitter.EqualDepth(gen.Uniform[uint32](1<<16, 0, 5), p)
		tree := rangeidx.NewTreeFor(delims)
		d := timeIt(func() { part.HistogramCodesBatch(keys, tree, tree.Fanout(), codes) })
		t.AddRow("range-index-P", fmt.Sprint(p), f1(mtps(n, d)))
	}

	// One-scan multi-histogram vs per-pass histograms (single-threaded
	// LSB's histogram phase).
	ranges := [][2]uint{{0, 8}, {8, 16}, {16, 24}, {24, 32}}
	dMulti := timeIt(func() { part.MultiHistogram(keys, ranges) })
	dSep := timeIt(func() {
		for _, r := range ranges {
			part.Histogram(keys, pfunc.NewRadix[uint32](r[0], r[1]))
		}
	})
	t.AddRow("hist-4passes", "one-scan", f1(mtps(n, dMulti)))
	t.AddRow("hist-4passes", "separate", f1(mtps(n, dSep)))

	// Model-side: the paper-platform optimal bits per pass.
	t.AddRow("model-optimal-bits", "nip-ooc",
		fmt.Sprint(memmodel.OptimalBits(memmodel.PaperProfile(), memmodel.NonInPlaceOutOfCache, 4, 64)))
	t.AddRow("model-optimal-bits", "ip-ooc",
		fmt.Sprint(memmodel.OptimalBits(memmodel.PaperProfile(), memmodel.InPlaceOutOfCache, 4, 64)))
	return t
}

// FigJoins measures the operators built from the menu (Section 1's
// motivation, Section 6's conclusion): global-table vs partitioned hash
// join, and sort-merge join.
func FigJoins(cfg Config) *Table {
	cfg = cfg.WithDefaults()
	nb := cfg.SortTuples / 4
	np := cfg.SortTuples
	build := join.Relation[uint32]{Keys: gen.Uniform[uint32](nb, uint64(nb), 1), Vals: gen.RIDs[uint32](nb)}
	probe := join.Relation[uint32]{Keys: gen.Uniform[uint32](np, uint64(nb), 2), Vals: gen.RIDs[uint32](np)}
	t := &Table{
		ID:      "joins",
		Title:   "Join operators built from the partitioning menu",
		Columns: []string{"strategy", "Mprobes/s", "matches"},
		Notes: []string{
			"partitioning until pieces are cache-resident is the paper's Section 1 join recipe",
		},
	}
	run := func(name string, f func(emit join.Emit[uint32])) {
		var c join.Counter[uint32]
		d := timeIt(func() { f(c.Emit) })
		t.AddRow(name, f1(mtps(np, d)), fmt.Sprint(c.N))
	}
	run("hash/global-table", func(e join.Emit[uint32]) {
		join.HashJoin(build, probe, e, join.HashJoinOptions{Fanout: 1, Threads: cfg.Threads})
	})
	run("hash/partitioned", func(e join.Emit[uint32]) {
		join.HashJoin(build, probe, e, join.HashJoinOptions{Threads: cfg.Threads})
	})
	run("sort-merge", func(e join.Emit[uint32]) {
		join.SortMergeJoin(build, probe, e, join.SortMergeJoinOptions{Threads: cfg.Threads})
	})
	return t
}
