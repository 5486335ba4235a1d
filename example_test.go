package partsort_test

import (
	"context"
	"fmt"
	"net/http"
	"slices"

	partsort "repro"
)

func ExampleSortLSB() {
	keys := []uint32{170, 45, 75, 90, 802, 24, 2, 66}
	rids := partsort.RIDs[uint32](len(keys))
	partsort.SortLSB(keys, rids, nil)
	fmt.Println(keys)
	// Output: [2 24 45 66 75 90 170 802]
}

func ExampleSortMSB() {
	keys := []uint64{1 << 40, 3, 1 << 20, 42}
	rids := partsort.RIDs[uint64](len(keys))
	partsort.SortMSB(keys, rids, nil)
	fmt.Println(keys)
	// Output: [3 42 1048576 1099511627776]
}

func ExamplePartition() {
	keys := []uint32{7, 2, 9, 4, 1, 8, 3, 6}
	vals := partsort.RIDs[uint32](len(keys))
	dstK := make([]uint32, len(keys))
	dstV := make([]uint32, len(keys))
	fn := partsort.Radix[uint32](0, 1) // 2-way on the low bit
	hist := partsort.Partition(keys, vals, dstK, dstV, fn, 1)
	fmt.Println(hist) // tuples per partition
	fmt.Println(dstK) // evens then odds, each in input order (stable)
	// Output:
	// [4 4]
	// [2 4 8 6 7 9 1 3]
}

func ExampleNewRangeIndex() {
	delims := []uint32{10, 20, 30} // 4 ranges
	ix := partsort.NewRangeIndex(delims)
	fmt.Println(ix.Lookup(5), ix.Lookup(10), ix.Lookup(25), ix.Lookup(99))
	// Output: 0 1 2 3
}

func ExampleSortResilientCtx() {
	keys := []uint64{9, 3, 7, 1, 5}
	rids := partsort.RIDs[uint64](len(keys))

	// The supervisor retries transient faults, falls back to safer plans,
	// and degrades in place under memory pressure; RetryStats reports
	// what the run took.
	var st partsort.RetryStats
	err := partsort.SortResilientCtx(context.Background(), partsort.LSB, keys, rids,
		&partsort.SortOptions{Threads: 1, MaxAuxBytes: 64 << 20},
		&partsort.RetryPolicy{Stats: &st})
	if err != nil {
		fmt.Println("sort failed:", err)
		return
	}
	fmt.Println(keys)
	fmt.Println("attempts:", st.Attempts, "stage:", st.Stage, "degraded:", st.Degraded)
	// Output:
	// [1 3 5 7 9]
	// attempts: 1 stage: 0 degraded: false
}

func ExampleServeMetrics() {
	// Serve live telemetry (Prometheus /metrics, expvar, pprof) while
	// sorts run; the sink feeds span latencies into the histograms.
	partsort.StartObservability(partsort.NewMetricsSink(nil))
	defer partsort.StopObservability()

	srv, err := partsort.ServeMetrics("127.0.0.1:0") // any free port
	if err != nil {
		fmt.Println("metrics endpoint:", err)
		return
	}
	defer srv.Shutdown(context.Background())

	keys := []uint32{4, 2, 3, 1}
	partsort.SortLSB(keys, partsort.RIDs[uint32](len(keys)), nil)

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		fmt.Println("scrape:", err)
		return
	}
	resp.Body.Close()
	fmt.Println(keys)
	fmt.Println("scrape status:", resp.StatusCode)
	// Output:
	// [1 2 3 4]
	// scrape status: 200
}

func ExamplePartitionInPlaceShared() {
	keys := []uint32{5, 1, 4, 0, 3, 2, 7, 6}
	vals := partsort.RIDs[uint32](len(keys))
	fn := partsort.Radix[uint32](2, 3) // 2-way on bit 2: 0-3 vs 4-7
	hist := partsort.PartitionInPlaceShared(keys, vals, fn, 2)
	fmt.Println(hist)
	part0 := slices.Clone(keys[:hist[0]]) // partition 0, contiguous in place
	slices.Sort(part0)                    // (unordered inside the partition)
	fmt.Println(part0)
	// Output:
	// [4 4]
	// [0 1 2 3]
}
