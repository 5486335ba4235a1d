// Benchmarks regenerating the measured side of every figure in the
// paper's evaluation (Section 5). Each BenchmarkFigNN_* family corresponds
// to one figure; cmd/figures prints the same sweeps as tables together
// with the analytic model's paper-platform series. Throughput is reported
// as Mtuples/s (or Mkeys/s for histogram figures) via ReportMetric in
// addition to the standard ns/op.
package partsort

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
	"repro/internal/sortalgo"
	"repro/internal/splitter"
	"repro/internal/ws"
)

const (
	benchPartN = 1 << 19 // tuples per partitioning op
	benchSortN = 1 << 19 // tuples per sort op
)

func reportMtps(b *testing.B, tuplesPerOp int) {
	b.ReportMetric(float64(tuplesPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mtuples/s")
}

// --- Figure 3: shared-nothing partitioning vs fanout, 32-bit ---

func benchPartitionVariants[K kv.Key](b *testing.B) {
	keys := gen.Uniform[K](benchPartN, 0, 42)
	vals := gen.RIDs[K](benchPartN)
	dstK := make([]K, benchPartN)
	dstV := make([]K, benchPartN)
	workK := make([]K, benchPartN)
	workV := make([]K, benchPartN)
	for _, bits := range []int{4, 8, 10, 13} {
		fn := pfunc.NewRadix[K](0, uint(bits))
		hist := part.Histogram(keys, fn)
		starts, _ := part.Starts(hist)
		b.Run(fmt.Sprintf("nip-ic/P=%d", 1<<bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part.NonInPlaceInCache(nil, keys, vals, dstK, dstV, fn, hist, nil)
			}
			reportMtps(b, benchPartN)
		})
		b.Run(fmt.Sprintf("ip-ic/P=%d", 1<<bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(workK, keys)
				copy(workV, vals)
				b.StartTimer()
				part.InPlaceInCache(nil, workK, workV, fn, hist)
			}
			reportMtps(b, benchPartN)
		})
		b.Run(fmt.Sprintf("nip-ooc/P=%d", 1<<bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part.NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fn, starts, nil)
			}
			reportMtps(b, benchPartN)
		})
		b.Run(fmt.Sprintf("ip-ooc/P=%d", 1<<bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(workK, keys)
				copy(workV, vals)
				b.StartTimer()
				part.InPlaceOutOfCache(nil, workK, workV, fn, hist)
			}
			reportMtps(b, benchPartN)
		})
	}
}

func BenchmarkFig03_Partition32(b *testing.B) {
	benchPartitionVariants[uint32](b)
}

// --- Figure 4: partitioning under Zipf skew ---

func BenchmarkFig04_PartitionSkew(b *testing.B) {
	vals := gen.RIDs[uint32](benchPartN)
	dstK := make([]uint32, benchPartN)
	dstV := make([]uint32, benchPartN)
	inputs := map[string][]uint32{
		"uniform": gen.Uniform[uint32](benchPartN, 0, 42),
		"zipf1.2": gen.ZipfKeys[uint32](benchPartN, 1<<26, 1.2, 43),
	}
	for _, name := range []string{"uniform", "zipf1.2"} {
		keys := inputs[name]
		for _, bits := range []int{8, 11} {
			fn := pfunc.NewHash[uint32](1 << bits)
			hist := part.Histogram(keys, fn)
			starts, _ := part.Starts(hist)
			b.Run(fmt.Sprintf("%s/P=%d", name, 1<<bits), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					part.NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fn, starts, nil)
				}
				reportMtps(b, benchPartN)
			})
		}
	}
}

// --- Figures 5 and 8: histogram generation ---

func benchHistogram[K kv.Key](b *testing.B) {
	keys := gen.Uniform[K](benchPartN, 0, 7)
	codes := make([]int32, benchPartN)
	for _, p := range []int{128, 512, 2048} {
		delims := gen.Uniform[K](p-1, 0, uint64(p))
		sort.Slice(delims, func(i, j int) bool { return delims[i] < delims[j] })
		tree := rangeidx.NewTreeFor(delims)
		radix := pfunc.NewRadix[K](0, uint(lg(p)))
		hash := pfunc.NewHash[K](p)
		b.Run(fmt.Sprintf("range-index/P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part.HistogramCodesBatch(keys, tree, tree.Fanout(), codes)
			}
			reportMtps(b, benchPartN)
		})
		b.Run(fmt.Sprintf("range-bs/P=%d", p), func(b *testing.B) {
			hist := make([]int, p)
			for i := 0; i < b.N; i++ {
				for _, k := range keys {
					hist[rangeidx.Search(delims, k)]++
				}
			}
			reportMtps(b, benchPartN)
		})
		b.Run(fmt.Sprintf("radix/P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part.Histogram(keys, radix)
			}
			reportMtps(b, benchPartN)
		})
		b.Run(fmt.Sprintf("hash/P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part.Histogram(keys, hash)
			}
			reportMtps(b, benchPartN)
		})
	}
}

func BenchmarkFig05_Histogram32(b *testing.B) {
	benchHistogram[uint32](b)
}

func BenchmarkFig08_Histogram64(b *testing.B) {
	benchHistogram[uint64](b)
}

// --- Figure 6: shared-nothing partitioning, 64-bit ---

func BenchmarkFig06_Partition64(b *testing.B) {
	benchPartitionVariants[uint64](b)
}

// --- Figure 7: out-of-cache partitioning scalability ---

func BenchmarkFig07_PartitionThreads(b *testing.B) {
	keys := gen.Uniform[uint64](benchPartN, 0, 13)
	vals := gen.RIDs[uint64](benchPartN)
	dstK := make([]uint64, benchPartN)
	dstV := make([]uint64, benchPartN)
	workK := make([]uint64, benchPartN)
	workV := make([]uint64, benchPartN)
	fn := pfunc.NewRadix[uint64](0, 10)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("nip/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				part.ParallelNonInPlace(nil, keys, vals, dstK, dstV, fn, threads, nil)
			}
			reportMtps(b, benchPartN)
		})
		b.Run(fmt.Sprintf("ip/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(workK, keys)
				copy(workV, vals)
				b.StartTimer()
				part.ParallelInPlaceSharedNothing(nil, workK, workV, fn, threads)
			}
			reportMtps(b, benchPartN)
		})
	}
}

// --- Figures 9 and 12: sort throughput ---

func benchSorts[K kv.Key](b *testing.B, topo *numa.Topology) {
	for _, scale := range []int{benchSortN / 2, benchSortN} {
		keys := gen.Uniform[K](scale, 0, 5)
		opt := sortalgo.Options{Threads: 4, Topo: topo}
		b.Run(fmt.Sprintf("LSB/n=%d", scale), func(b *testing.B) {
			tmpK := make([]K, scale)
			tmpV := make([]K, scale)
			wk := make([]K, scale)
			wv := make([]K, scale)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(wk, keys)
				copy(wv, gen.RIDs[K](scale))
				b.StartTimer()
				sortalgo.LSB(wk, wv, tmpK, tmpV, opt)
			}
			reportMtps(b, scale)
		})
		b.Run(fmt.Sprintf("MSB/n=%d", scale), func(b *testing.B) {
			wk := make([]K, scale)
			wv := make([]K, scale)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(wk, keys)
				copy(wv, gen.RIDs[K](scale))
				b.StartTimer()
				sortalgo.MSB(wk, wv, opt)
			}
			reportMtps(b, scale)
		})
		b.Run(fmt.Sprintf("CMP/n=%d", scale), func(b *testing.B) {
			tmpK := make([]K, scale)
			tmpV := make([]K, scale)
			wk := make([]K, scale)
			wv := make([]K, scale)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(wk, keys)
				copy(wv, gen.RIDs[K](scale))
				b.StartTimer()
				sortalgo.CMP(wk, wv, tmpK, tmpV, opt)
			}
			reportMtps(b, scale)
		})
	}
}

func BenchmarkFig09_Sort32(b *testing.B) {
	benchSorts[uint32](b, numa.NewTopology(4))
}

func BenchmarkFig12_Sort64(b *testing.B) {
	benchSorts[uint64](b, numa.NewTopology(4))
}

// --- Figure 10: sort scalability with threads ---

func BenchmarkFig10_SortThreads(b *testing.B) {
	topo := numa.NewTopology(4)
	keys := gen.Uniform[uint32](benchSortN, 0, 3)
	for _, threads := range []int{1, 2, 4, 8} {
		opt := sortalgo.Options{Threads: threads, Topo: topo}
		b.Run(fmt.Sprintf("LSB/threads=%d", threads), func(b *testing.B) {
			tmpK := make([]uint32, benchSortN)
			tmpV := make([]uint32, benchSortN)
			wk := make([]uint32, benchSortN)
			wv := make([]uint32, benchSortN)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(wk, keys)
				copy(wv, gen.RIDs[uint32](benchSortN))
				b.StartTimer()
				sortalgo.LSB(wk, wv, tmpK, tmpV, opt)
			}
			reportMtps(b, benchSortN)
		})
		b.Run(fmt.Sprintf("CMP/threads=%d", threads), func(b *testing.B) {
			tmpK := make([]uint32, benchSortN)
			tmpV := make([]uint32, benchSortN)
			wk := make([]uint32, benchSortN)
			wv := make([]uint32, benchSortN)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(wk, keys)
				copy(wv, gen.RIDs[uint32](benchSortN))
				b.StartTimer()
				sortalgo.CMP(wk, wv, tmpK, tmpV, opt)
			}
			reportMtps(b, benchSortN)
		})
	}
}

// --- Figures 11 and 13: phase breakdowns ---

func benchPhases[K kv.Key](b *testing.B) {
	topo := numa.NewTopology(4)
	for _, algo := range []string{"LSB", "MSB", "CMP"} {
		b.Run(algo, func(b *testing.B) {
			var agg sortalgo.Stats
			wk := make([]K, benchSortN)
			wv := make([]K, benchSortN)
			keys := gen.Uniform[K](benchSortN, 0, 5)
			tmpK := make([]K, benchSortN)
			tmpV := make([]K, benchSortN)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(wk, keys)
				copy(wv, gen.RIDs[K](benchSortN))
				var st sortalgo.Stats
				opt := sortalgo.Options{Threads: 4, Topo: topo, Stats: &st}
				b.StartTimer()
				switch algo {
				case "LSB":
					sortalgo.LSB(wk, wv, tmpK, tmpV, opt)
				case "MSB":
					sortalgo.MSB(wk, wv, opt)
				case "CMP":
					sortalgo.CMP(wk, wv, tmpK, tmpV, opt)
				}
				agg.Histogram += st.Histogram
				agg.Partition += st.Partition
				agg.Shuffle += st.Shuffle
				agg.LocalRadix += st.LocalRadix
				agg.CacheSort += st.CacheSort
			}
			total := agg.Total().Seconds()
			if total > 0 {
				b.ReportMetric(agg.Histogram.Seconds()/total*100, "%histogram")
				b.ReportMetric(agg.Partition.Seconds()/total*100, "%partition")
				b.ReportMetric(agg.Shuffle.Seconds()/total*100, "%shuffle")
				b.ReportMetric(agg.LocalRadix.Seconds()/total*100, "%local")
				b.ReportMetric(agg.CacheSort.Seconds()/total*100, "%cachesort")
			}
			reportMtps(b, benchSortN)
		})
	}
}

func BenchmarkFig11_Phases32(b *testing.B) {
	benchPhases[uint32](b)
}

func BenchmarkFig13_Phases64(b *testing.B) {
	benchPhases[uint64](b)
}

// --- Figure 14: NUMA-aware vs oblivious ---

func BenchmarkFig14_NUMAAwareness(b *testing.B) {
	topo := numa.NewTopology(4)
	keys := gen.Uniform[uint32](benchSortN, 0, 3)
	for _, mode := range []string{"aware", "oblivious"} {
		for _, algo := range []string{"LSB", "CMP"} {
			b.Run(algo+"/"+mode, func(b *testing.B) {
				tmpK := make([]uint32, benchSortN)
				tmpV := make([]uint32, benchSortN)
				wk := make([]uint32, benchSortN)
				wv := make([]uint32, benchSortN)
				opt := sortalgo.Options{Threads: 4, Topo: topo, Oblivious: mode == "oblivious"}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(wk, keys)
					copy(wv, gen.RIDs[uint32](benchSortN))
					b.StartTimer()
					if algo == "LSB" {
						sortalgo.LSB(wk, wv, tmpK, tmpV, opt)
					} else {
						sortalgo.CMP(wk, wv, tmpK, tmpV, opt)
					}
				}
				reportMtps(b, benchSortN)
			})
		}
	}
}

// --- Figure 15: in-cache scalar vs SIMD comb-sort ---

func BenchmarkFig15_CombSort(b *testing.B) {
	for _, n := range []int{256, 4096, 65536} {
		keys := gen.Uniform[uint32](n, 0, uint64(n))
		vals := gen.RIDs[uint32](n)
		b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
			wk := make([]uint32, n)
			wv := make([]uint32, n)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(wk, keys)
				copy(wv, vals)
				b.StartTimer()
				sortalgo.CombSortScalar(wk, wv)
			}
			reportMtps(b, n)
		})
		b.Run(fmt.Sprintf("simd/n=%d", n), func(b *testing.B) {
			cs := sortalgo.NewCombSorter[uint32](n)
			dstK := make([]uint32, n)
			dstV := make([]uint32, n)
			for i := 0; i < b.N; i++ {
				cs.SortInto(keys, vals, dstK, dstV)
			}
			reportMtps(b, n)
		})
	}
}

// --- Section 5 text: skew ---

func BenchmarkSkew_Sorts(b *testing.B) {
	topo := numa.NewTopology(4)
	inputs := map[string][]uint32{
		"uniform": gen.Uniform[uint32](benchSortN, 0, 3),
		"zipf1.0": gen.ZipfKeys[uint32](benchSortN, 1<<26, 1.0, 7),
		"zipf1.2": gen.ZipfKeys[uint32](benchSortN, 1<<26, 1.2, 7),
	}
	for _, dist := range []string{"uniform", "zipf1.0", "zipf1.2"} {
		keys := inputs[dist]
		for _, algo := range []string{"LSB", "MSB", "CMP"} {
			b.Run(algo+"/"+dist, func(b *testing.B) {
				tmpK := make([]uint32, benchSortN)
				tmpV := make([]uint32, benchSortN)
				wk := make([]uint32, benchSortN)
				wv := make([]uint32, benchSortN)
				opt := sortalgo.Options{Threads: 4, Topo: topo}
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(wk, keys)
					copy(wv, gen.RIDs[uint32](benchSortN))
					b.StartTimer()
					switch algo {
					case "LSB":
						sortalgo.LSB(wk, wv, tmpK, tmpV, opt)
					case "MSB":
						sortalgo.MSB(wk, wv, opt)
					case "CMP":
						sortalgo.CMP(wk, wv, tmpK, tmpV, opt)
					}
				}
				reportMtps(b, benchSortN)
			})
		}
	}
}

// --- Section 3.2.3/3.2.4 ablation: block-permutation and in-place variants ---

func BenchmarkAblation_InPlaceVariants(b *testing.B) {
	keys := gen.Uniform[uint32](benchPartN, 0, 9)
	vals := gen.RIDs[uint32](benchPartN)
	fn := pfunc.NewRadix[uint32](0, 6)
	hist := part.Histogram(keys, fn)
	wk := make([]uint32, benchPartN)
	wv := make([]uint32, benchPartN)
	b.Run("blockperm", func(b *testing.B) {
		w := ws.New()
		defer w.Close()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(wk, keys)
			copy(wv, vals)
			b.StartTimer()
			part.BlockPermute(w, wk, wv, fn, part.DefaultBlockTuples, 4, nil, nil, nil)
		}
		reportMtps(b, benchPartN)
	})
	b.Run("inplace-low-to-high", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(wk, keys)
			copy(wv, vals)
			b.StartTimer()
			part.InPlaceInCacheLowHigh(wk, wv, fn, hist)
		}
		reportMtps(b, benchPartN)
	})
	b.Run("inplace-high-to-low", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(wk, keys)
			copy(wv, vals)
			b.StartTimer()
			part.InPlaceInCache(nil, wk, wv, fn, hist)
		}
		reportMtps(b, benchPartN)
	})
	b.Run("sync-tuples", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(wk, keys)
			copy(wv, vals)
			b.StartTimer()
			part.InPlaceSynchronized(wk, wv, fn, hist, 4)
		}
		reportMtps(b, benchPartN)
	})
}

// --- Range index ablation: tree configurations by fanout ---

func BenchmarkAblation_RangeIndex(b *testing.B) {
	keys := gen.Uniform[uint32](benchPartN, 0, 7)
	out := make([]int32, benchPartN)
	for _, p := range []int{17, 360, 1000, 1800} {
		delims := splitter.EqualDepth(gen.Uniform[uint32](1<<16, 0, 3), p)
		tree := rangeidx.NewTreeFor(delims)
		b.Run(fmt.Sprintf("tree/P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tree.LookupBatch(keys, out)
			}
			reportMtps(b, benchPartN)
		})
	}
}

// --- Zero-allocation hot paths: workspace reuse (Sections 3.2, 4.2.1) ---

// BenchmarkLSBReuse measures the server scenario the workspace exists for:
// the same-shaped sort repeated many times. "fresh" is the workspace-less
// path — scratch, tables, and line buffers allocated per call; "workspace"
// serves every buffer from a warm arena. Both arms run the single-worker
// driver, which takes every pass's histogram in one read scan (Section
// 4.2.1), so the comparison isolates buffer reuse rather than goroutine
// scheduling or histogramming.
func BenchmarkLSBReuse(b *testing.B) {
	const n = 1 << 20
	keys := gen.Uniform[uint32](n, 0, 5)
	rids := gen.RIDs[uint32](n)
	wk := make([]uint32, n)
	wv := make([]uint32, n)
	run := func(b *testing.B, opt *SortOptions) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(wk, keys)
			copy(wv, rids)
			b.StartTimer()
			SortLSB(wk, wv, opt)
		}
		reportMtps(b, n)
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, &SortOptions{Threads: 1})
	})
	b.Run("workspace", func(b *testing.B) {
		w := NewWorkspace()
		defer w.Close()
		opt := &SortOptions{Threads: 1, Workspace: w}
		SortLSB(append([]uint32(nil), keys...), append([]uint32(nil), rids...), opt) // warm
		run(b, opt)
	})
}

// BenchmarkScatterAlloc isolates the buffered scatter kernel (Algorithm 3):
// per-call line-buffer/offset allocation versus the pooled workspace path.
func BenchmarkScatterAlloc(b *testing.B) {
	keys := gen.Uniform[uint32](benchPartN, 0, 42)
	vals := gen.RIDs[uint32](benchPartN)
	dstK := make([]uint32, benchPartN)
	dstV := make([]uint32, benchPartN)
	fn := pfunc.NewRadix[uint32](0, 8)
	hist := part.Histogram(keys, fn)
	starts, _ := part.Starts(hist)
	b.Run("plain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			part.NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fn, starts, nil)
		}
		reportMtps(b, benchPartN)
	})
	b.Run("workspace", func(b *testing.B) {
		w := ws.New()
		defer w.Close()
		part.NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, fn, starts, nil) // warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			part.NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, fn, starts, nil)
		}
		reportMtps(b, benchPartN)
	})
}

// BenchmarkAuxMemory measures the peak auxiliary footprint of the
// parallel fan-out paths: each arm runs with a warm workspace and reports
// the run's SortStats.PeakAuxBytes (the arena's checked-out high-water
// mark) as peakaux-MB next to throughput. Both arms are the in-place
// defaults (block-permutation fan-out). EXPERIMENTS.md records the
// 2^26-tuple sweep.
func BenchmarkAuxMemory(b *testing.B) {
	for _, n := range []int{1 << 22, 1 << 26} {
		baseKeys := gen.Uniform[uint64](n, 0, 77)
		baseVals := RIDs[uint64](n)
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		arms := []struct {
			name string
			run  func(opt *SortOptions)
		}{
			{"MSB/inplace", func(opt *SortOptions) {
				SortMSB(keys, vals, opt)
			}},
			{"CMP/inplace", func(opt *SortOptions) {
				SortCMP(keys, vals, opt)
			}},
		}
		for _, a := range arms {
			b.Run(fmt.Sprintf("%s/n=%d", a.name, n), func(b *testing.B) {
				w := NewWorkspace()
				defer w.Close()
				var st SortStats
				opt := &SortOptions{Threads: 4, Workspace: w, Stats: &st}
				copy(keys, baseKeys)
				copy(vals, baseVals)
				a.run(opt) // warm the arena
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(keys, baseKeys)
					copy(vals, baseVals)
					b.StartTimer()
					a.run(opt)
				}
				b.ReportMetric(float64(st.PeakAuxBytes)/(1<<20), "peakaux-MB")
				reportMtps(b, n)
			})
		}
	}
}

func lg(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	return l
}
