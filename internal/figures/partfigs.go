package figures

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/memmodel"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
)

// partitionSweepBits is the fanout sweep of Figures 3, 4 and 6: 2..8192.
var partitionSweepBits = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

// Fig3 regenerates Figure 3: shared-nothing partitioning throughput vs
// fanout for the four variants, 32-bit key + 32-bit payload.
func Fig3(cfg Config) *Table {
	return partitionFigure[uint32]("fig3",
		"Shared-nothing partitioning vs fanout (32-bit key, 32-bit payload)", cfg)
}

// Fig6 regenerates Figure 6: the 64-bit variant of Figure 3.
func Fig6(cfg Config) *Table {
	return partitionFigure[uint64]("fig6",
		"Shared-nothing partitioning vs fanout (64-bit key, 64-bit payload)", cfg)
}

func partitionFigure[K kv.Key](id, title string, cfg Config) *Table {
	cfg = cfg.WithDefaults()
	n := cfg.PartTuples
	kb := kv.Width[K]() / 8
	keys := gen.Uniform[K](n, 0, 42)
	vals := gen.RIDs[K](n)
	workK := make([]K, n)
	workV := make([]K, n)
	dstK := make([]K, n)
	dstV := make([]K, n)
	prof := memmodel.PaperProfile()

	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"P",
			"meas nip-ic Mt/s", "meas ip-ic Mt/s", "meas nip-ooc Mt/s", "meas ip-ooc Mt/s",
			"model nip-ic Gt/s", "model ip-ic Gt/s", "model nip-ooc Gt/s", "model ip-ooc Gt/s"},
		Notes: []string{
			fmt.Sprintf("measured: 1 thread, %d tuples on this machine; modeled: 64 threads, paper platform", n),
			"expected shape: in-cache variants collapse past the TLB fanout; out-of-cache peak at 10-12 (9-10 in-place) bits",
		},
	}

	variants := []memmodel.Variant{
		memmodel.NonInPlaceInCache, memmodel.InPlaceInCache,
		memmodel.NonInPlaceOutOfCache, memmodel.InPlaceOutOfCache,
	}
	for _, bits := range partitionSweepBits {
		fn := pfunc.NewRadix[K](0, uint(bits))
		hist := part.Histogram(keys, fn)
		starts, _ := part.Starts(hist)
		row := []string{fmt.Sprint(1 << bits)}
		for _, v := range variants {
			var d time.Duration
			switch v {
			case memmodel.NonInPlaceInCache:
				d = timeIt(func() { part.NonInPlaceInCache(nil, keys, vals, dstK, dstV, fn, hist, nil) })
			case memmodel.InPlaceInCache:
				copy(workK, keys)
				copy(workV, vals)
				d = timeIt(func() { part.InPlaceInCache(nil, workK, workV, fn, hist) })
			case memmodel.NonInPlaceOutOfCache:
				d = timeIt(func() { part.NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fn, starts, nil) })
			case memmodel.InPlaceOutOfCache:
				copy(workK, keys)
				copy(workV, vals)
				d = timeIt(func() { part.InPlaceOutOfCache(nil, workK, workV, fn, hist) })
			}
			row = append(row, f1(mtps(n, d)))
		}
		for _, v := range variants {
			row = append(row, f2(memmodel.PartitionPass(prof, v, 1<<bits, kb, 64, 0)/1e9))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig4 regenerates Figure 4: out-of-cache partitioning under uniform vs
// Zipf(1.2) data — skew improves throughput via implicitly cached hot
// partitions.
func Fig4(cfg Config) *Table {
	cfg = cfg.WithDefaults()
	n := cfg.PartTuples
	uni := gen.Uniform[uint32](n, 0, 42)
	zipf := gen.ZipfKeys[uint32](n, 1<<26, 1.2, 43)
	vals := gen.RIDs[uint32](n)
	dstK := make([]uint32, n)
	dstV := make([]uint32, n)
	prof := memmodel.PaperProfile()

	t := &Table{
		ID:    "fig4",
		Title: "Out-of-cache partitioning: uniform vs Zipf theta=1.2",
		Columns: []string{"P",
			"meas uniform Mt/s", "meas zipf Mt/s",
			"model uniform Gt/s", "model zipf Gt/s"},
		Notes: []string{"expected shape: Zipf at or above uniform, gap widening at large fanout"},
	}
	for _, bits := range partitionSweepBits {
		fn := pfunc.NewHash[uint32](1 << bits)
		row := []string{fmt.Sprint(1 << bits)}
		for _, keys := range [][]uint32{uni, zipf} {
			hist := part.Histogram(keys, fn)
			starts, _ := part.Starts(hist)
			ks := keys
			d := timeIt(func() { part.NonInPlaceOutOfCache(nil, ks, vals, dstK, dstV, fn, starts, nil) })
			row = append(row, f1(mtps(n, d)))
		}
		row = append(row,
			f2(memmodel.PartitionPass(prof, memmodel.NonInPlaceOutOfCache, 1<<bits, 4, 64, 0)/1e9),
			f2(memmodel.PartitionPass(prof, memmodel.NonInPlaceOutOfCache, 1<<bits, 4, 64, 1.2)/1e9))
		t.AddRow(row...)
	}
	return t
}

// histogramSweep is the fanout sweep of Figures 5 and 8.
var histogramSweep = []int{128, 256, 512, 1024, 2048}

// Fig5 regenerates Figure 5: histogram generation throughput for range
// (index), range (binary search), radix and hash partition functions over
// 32-bit keys.
func Fig5(cfg Config) *Table {
	return histogramFigure[uint32]("fig5", "Histogram generation (32-bit keys)", cfg)
}

// Fig8 regenerates Figure 8: the 64-bit variant of Figure 5.
func Fig8(cfg Config) *Table {
	return histogramFigure[uint64]("fig8", "Histogram generation (64-bit keys)", cfg)
}

func histogramFigure[K kv.Key](id, title string, cfg Config) *Table {
	cfg = cfg.WithDefaults()
	n := cfg.PartTuples
	kb := kv.Width[K]() / 8
	keys := gen.Uniform[K](n, 0, 7)
	codes := make([]int32, n)
	prof := memmodel.PaperProfile()

	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"P",
			"meas idx Mk/s", "meas bs Mk/s", "meas radix Mk/s", "meas hash Mk/s", "meas idx/bs",
			"model idx Gk/s", "model bs Gk/s", "model radix Gk/s", "model hash Gk/s"},
		Notes: []string{
			"paper: index speeds range histograms 4.95-5.8x (32-bit) / 3.17-3.4x (64-bit) over binary search",
		},
	}
	for _, p := range histogramSweep {
		delims := gen.Uniform[K](p-1, 0, uint64(p))
		sort.Slice(delims, func(i, j int) bool { return delims[i] < delims[j] })
		tree := rangeidx.NewTreeFor(delims)

		dIdx := timeIt(func() {
			part.HistogramCodesBatch(keys, tree, tree.Fanout(), codes)
		})
		hist := make([]int, p)
		dBS := timeIt(func() {
			for _, k := range keys {
				hist[rangeidx.Search(delims, k)]++
			}
		})
		radix := pfunc.NewRadix[K](0, uint(log2(p)))
		dRadix := timeIt(func() { part.Histogram(keys, radix) })
		hash := pfunc.NewHash[K](p)
		dHash := timeIt(func() { part.Histogram(keys, hash) })

		t.AddRow(fmt.Sprint(p),
			f1(mtps(n, dIdx)), f1(mtps(n, dBS)), f1(mtps(n, dRadix)), f1(mtps(n, dHash)),
			f2(dBS.Seconds()/dIdx.Seconds()),
			f2(memmodel.Histogram(prof, memmodel.HistRangeIndex, p, kb, 64)/1e9),
			f2(memmodel.Histogram(prof, memmodel.HistRangeBinarySearch, p, kb, 64)/1e9),
			f2(memmodel.Histogram(prof, memmodel.HistRadix, p, kb, 64)/1e9),
			f2(memmodel.Histogram(prof, memmodel.HistHash, p, kb, 64)/1e9))
	}
	return t
}

// Fig7 regenerates Figure 7: out-of-cache partitioning scalability with
// SMT threads, 1024-way, 64-bit tuples, in-place vs non-in-place, on one
// and four CPUs.
func Fig7(cfg Config) *Table {
	cfg = cfg.WithDefaults()
	n := cfg.PartTuples
	keys := gen.Uniform[uint64](n, 0, 13)
	vals := gen.RIDs[uint64](n)
	dstK := make([]uint64, n)
	dstV := make([]uint64, n)
	workK := make([]uint64, n)
	workV := make([]uint64, n)
	fn := pfunc.NewRadix[uint64](0, 10)
	prof := memmodel.PaperProfile()
	one := memmodel.OneSocket(prof)

	t := &Table{
		ID:    "fig7",
		Title: "Out-of-cache partitioning scalability, 1024-way (64-bit)",
		Columns: []string{"thr/CPU",
			"meas nip Mt/s", "meas ip Mt/s",
			"model nip 4CPU Gt/s", "model ip 4CPU Gt/s",
			"model nip 1CPU Gt/s", "model ip 1CPU Gt/s"},
		Notes: []string{
			"paper shape: in-place gains noticeably more from SMT (threads beyond 8/CPU) than non-in-place",
			"measured column uses goroutines on this machine; physical scaling comes from the model",
		},
	}
	for _, tpc := range []int{1, 2, 3, 4, 5, 6, 7, 8, 16} {
		row := []string{fmt.Sprint(tpc)}
		if tpc <= 8 {
			dN := timeIt(func() { part.ParallelNonInPlace(nil, keys, vals, dstK, dstV, fn, tpc, nil) })
			copy(workK, keys)
			copy(workV, vals)
			dI := timeIt(func() { part.ParallelInPlaceSharedNothing(nil, workK, workV, fn, tpc) })
			row = append(row, f1(mtps(n, dN)), f1(mtps(n, dI)))
		} else {
			row = append(row, "-", "-")
		}
		// tpc counts hardware threads per CPU: total threads = CPUs * tpc.
		row = append(row,
			f2(memmodel.PartitionPass(prof, memmodel.NonInPlaceOutOfCache, 1024, 8, 4*tpc, 0)/1e9),
			f2(memmodel.PartitionPass(prof, memmodel.InPlaceOutOfCache, 1024, 8, 4*tpc, 0)/1e9),
			f2(memmodel.PartitionPass(one, memmodel.NonInPlaceOutOfCache, 1024, 8, tpc, 0)/1e9),
			f2(memmodel.PartitionPass(one, memmodel.InPlaceOutOfCache, 1024, 8, tpc, 0)/1e9))
		t.AddRow(row...)
	}
	return t
}

func log2(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}
