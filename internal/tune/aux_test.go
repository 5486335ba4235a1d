package tune_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/sortalgo"
	"repro/internal/tune"
	"repro/internal/ws"
)

// footprintRow is one cell of the footprint grid.
type footprintRow struct {
	algo                tune.Algo
	n, keyBits, threads int
}

// footprintInput holds one (n, width) input of the grid and the columns
// each cell sorts, refilled from it per cell.
type footprintInput[K kv.Key] struct {
	keys, vals, k, v []K
}

// peak refills the work columns for r and sorts them with r's algorithm
// over a fresh workspace, returning the run's measured peak aux bytes.
// LSB takes its tmp pair from the same workspace before the sort
// starts, as the public entry points do, so the peak counts it. LSB's
// keys keep the top bit set and vary only in their low 11 bits: the run
// plans the full-width digits, so its tables are the ones uniform keys
// get, but it skips every digit above the widest and scatters once.
func (in *footprintInput[K]) peak(r footprintRow) int64 {
	if len(in.keys) != r.n {
		in.keys, in.vals = gen.Uniform[K](r.n, 0, 1), gen.RIDs[K](r.n)
		if r.n > 1<<21 {
			in.k, in.v = in.keys, in.vals // sorted by one row only
		} else {
			in.k, in.v = make([]K, r.n), make([]K, r.n)
		}
	}
	copy(in.v, in.vals)
	if r.algo == tune.AlgoLSB {
		top := K(1) << (kv.Width[K]() - 1)
		for i, k := range in.keys {
			in.k[i] = k&0x7ff | top
		}
	} else {
		copy(in.k, in.keys)
	}
	w := ws.New()
	defer w.Close()
	var st sortalgo.Stats
	opt := sortalgo.Options{Threads: r.threads, Workspace: w, Stats: &st}
	switch r.algo {
	case tune.AlgoLSB:
		tmpK, tmpV := ws.Keys[K](w, r.n), ws.Keys[K](w, r.n)
		sortalgo.LSB(in.k, in.v, tmpK, tmpV, opt)
		ws.PutKeys(w, tmpK)
		ws.PutKeys(w, tmpV)
	case tune.AlgoMSB:
		sortalgo.MSB(in.k, in.v, opt)
	default:
		sortalgo.CMP(in.k, in.v, nil, nil, opt)
	}
	return int64(st.PeakAuxBytes)
}

// footprintGrid returns algo's cells of the footprint grid: both sides of
// the cache bound (16384 64-bit, 32768 32-bit tuples; 16385 is the first
// out-of-cache 64-bit size), both key widths, one and two workers.
func footprintGrid(algo tune.Algo) []footprintRow {
	var rows []footprintRow
	for _, n := range []int{4096, 16384, 16385, 65536, 1 << 18, 1 << 21} {
		for _, keyBits := range []int{32, 64} {
			for _, threads := range []int{1, 2} {
				rows = append(rows, footprintRow{algo, n, keyBits, threads})
			}
		}
	}
	return rows
}

// checkFootprintRows measures each row set on its own goroutine and
// checks every row's peak against the model.
func checkFootprintRows(t *testing.T, sets ...[]footprintRow) {
	if testing.Short() {
		t.Skip("sorts up to 16M pairs")
	}
	var wg sync.WaitGroup
	for _, rows := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var in32 footprintInput[uint32]
			var in64 footprintInput[uint64]
			for _, r := range rows {
				var peak int64
				if r.keyBits == 32 {
					peak = in32.peak(r)
				} else {
					peak = in64.peak(r)
				}
				checkFootprint(t, r, peak)
			}
		}()
	}
	wg.Wait()
}

// The three tests below check the one in-memory footprint model,
// tune.Footprint, against the measured peak of each algorithm over the
// footprint grid: measured peak ≤ Footprint ≤ 2 × peak, and a sort that
// holds no scratch (CMP within the cache bound is one in-place leaf) must
// model 0. Tighter bounds hold where the model's rounding is known to
// track the run; checkFootprint names them.

// TestLSBAuxCoversMeasuredPeak checks LSB's cells of the grid; the
// tmp pair and the digit plan's tables are priced at arena capacity.
func TestLSBAuxCoversMeasuredPeak(t *testing.T) {
	checkFootprintRows(t, footprintGrid(tune.AlgoLSB))
}

// TestMSBAuxCoversMeasuredPeak checks MSB's cells of the grid, and two
// rows past it that run the 10- and 11-bit first digits of 2^23 and 2^24
// keys, beside the grid on a second goroutine. One-worker MSB at 2^21,
// whose peak does not hang on how two workers' recursions overlap, must
// stay within 1.5 × the peak.
func TestMSBAuxCoversMeasuredPeak(t *testing.T) {
	big := []footprintRow{{tune.AlgoMSB, 1 << 23, 64, 2}, {tune.AlgoMSB, 1 << 24, 64, 2}}
	checkFootprintRows(t, footprintGrid(tune.AlgoMSB), big)
}

// TestCMPAuxCoversMeasuredPeak checks CMP's cells of the grid, and a
// 6M 64-bit two-worker row past it: there the arena's power-of-two
// classes round the first-pass classify buffers up the most — 2 workers
// × 360 partitions × 1024-tuple blocks is 737,280 tuples a column,
// handed out as 2^20. Two-worker CMP on 2^21 32-bit keys, whose
// first-pass blocks halve to 512 tuples so the buffers fit a quarter of
// the input, must stay within 1.25 × the peak.
func TestCMPAuxCoversMeasuredPeak(t *testing.T) {
	big := []footprintRow{{tune.AlgoCMP, 6_000_000, 64, 2}}
	checkFootprintRows(t, footprintGrid(tune.AlgoCMP), big)
}

// checkFootprint applies the grid's bounds to one row's measured peak.
func checkFootprint(t *testing.T, r footprintRow, peak int64) {
	model := tune.Footprint(r.algo, r.n, r.keyBits, r.threads)
	where := fmt.Sprintf("%s n=%d %d-bit threads=%d", r.algo, r.n, r.keyBits, r.threads)
	limit, bound := 2*peak, "2"
	switch {
	case r.algo == tune.AlgoMSB && r.n == 1<<21 && r.threads == 1:
		limit, bound = peak*3/2, "1.5"
	case r.algo == tune.AlgoCMP && r.n == 1<<21 && r.keyBits == 32 && r.threads == 2:
		limit, bound = peak*5/4, "1.25"
	}
	if model < peak {
		t.Errorf("%s: Footprint %d B below the measured peak %d B", where, model, peak)
	}
	if model > limit {
		t.Errorf("%s: Footprint %d B over %s × the measured peak %d B", where, model, bound, peak)
	}
	t.Logf("%s: Footprint %d B, measured peak %d B", where, model, peak)
}
