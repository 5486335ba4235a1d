package tune_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/sortalgo"
	"repro/internal/tune"
	"repro/internal/ws"
)

// cmpPeakAux sorts n uniform keys of K with CMP on 2 workers over a
// fresh workspace and returns the run's measured peak aux bytes.
func cmpPeakAux[K kv.Key](n int) int64 {
	keys := gen.Uniform[K](n, 0, 1)
	vals := gen.RIDs[K](n)
	w := ws.New()
	defer w.Close()
	var st sortalgo.Stats
	sortalgo.CMP(keys, vals, nil, nil, sortalgo.Options{Threads: 2, Workspace: w, Stats: &st})
	return int64(st.PeakAuxBytes)
}

// TestCMPAuxCoversMeasuredPeak checks that the plan's modeled AuxBytes
// covers CMP's measured peak. The 6M 64-bit row is where the arena's
// power-of-two classes round the first-pass classify buffers up the
// most — 2 workers × 360 partitions × 1024-tuple blocks is 737,280
// tuples a column, handed out as 2^20. In the 2M 32-bit row the sort
// halves its block to 512 tuples so the buffers fit a quarter of the
// input; the model must size the block by the same rule, so it may not
// overshoot the peak by more than a quarter either.
func TestCMPAuxCoversMeasuredPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts 6M 64-bit pairs")
	}
	p := tune.Calibrate(tune.Config{Quick: true})
	p.NumCPU = 2
	for _, c := range []struct {
		n, keyBits int
		peak       func(int) int64
		tight      bool // also require model <= 1.25 × peak
	}{
		{6_000_000, 64, cmpPeakAux[uint64], false},
		{2_000_000, 32, cmpPeakAux[uint32], true},
	} {
		peak := c.peak(c.n)
		wl := tune.WorkloadStats{N: c.n, SampleSize: 1024, DomainBits: c.keyBits, DistinctFrac: 1}
		plan := tune.Choose(p, wl, tune.Requirements{KeyBits: c.keyBits, Force: tune.AlgoCMP, MaxThreads: 2})
		if plan.Algo != tune.AlgoCMP || plan.Threads != 2 {
			t.Fatalf("n=%d: plan %s on %d threads, want CMP on 2", c.n, plan.Algo, plan.Threads)
		}
		if plan.AuxBytes < peak {
			t.Fatalf("n=%d %d-bit: modeled AuxBytes %d below the measured peak %d", c.n, c.keyBits, plan.AuxBytes, peak)
		}
		if c.tight && plan.AuxBytes > peak*5/4 {
			t.Fatalf("n=%d %d-bit: modeled AuxBytes %d over 1.25 × the measured peak %d", c.n, c.keyBits, plan.AuxBytes, peak)
		}
		t.Logf("n=%d %d-bit: modeled %d B, measured peak %d B", c.n, c.keyBits, plan.AuxBytes, peak)
	}
}

// msbPeakAux sorts n uniform keys of K with MSB on the given workers over
// a fresh workspace and returns the run's measured peak aux bytes.
func msbPeakAux[K kv.Key](n, threads int) int64 {
	keys := gen.Uniform[K](n, 0, 1)
	vals := gen.RIDs[K](n)
	w := ws.New()
	defer w.Close()
	var st sortalgo.Stats
	sortalgo.MSB(keys, vals, sortalgo.Options{Threads: threads, Workspace: w, Stats: &st})
	return int64(st.PeakAuxBytes)
}

// TestMSBAuxCoversMeasuredPeak checks that the aux model covers MSB's
// measured peak on both sides of the cache bound (16384 64-bit, 32768
// 32-bit tuples) and on one and two workers. Below the bound one worker's
// peak is the in-cache branch's buffer pair: at 8192 64-bit pairs it
// holds 128 KiB of it beside 32 KiB of histogram and cursors. Two workers
// run the parallel first pass (memmodel.MSBFirstPass), whose block and
// digit shrink at small n, and then the recursion over its buckets; the
// model is read at the sort's own thread count, although the planner
// would run the smaller rows on one worker. Past the bound a worker holds
// either its local pass's blocks or its in-cache pair, never both, so on
// the one-worker 2^21 rows, whose peak does not hang on how two workers'
// recursions overlap, the model may not overshoot the peak by half, and
// on every two-worker row, the 2^23 and 2^24 64-bit ones with their 10-
// and 11-bit first digits included, not by more than twice.
func TestMSBAuxCoversMeasuredPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts up to 16M pairs")
	}
	type row struct{ n, threads, keyBits int }
	var rows []row
	for _, n := range []int{4096, 8192, 16384, 1 << 21} {
		for _, threads := range []int{1, 2} {
			for _, keyBits := range []int{32, 64} {
				rows = append(rows, row{n, threads, keyBits})
			}
		}
	}
	rows = append(rows, row{1 << 23, 2, 64}, row{1 << 24, 2, 64})
	for _, r := range rows {
		var peak int64
		if r.keyBits == 32 {
			peak = msbPeakAux[uint32](r.n, r.threads)
		} else {
			peak = msbPeakAux[uint64](r.n, r.threads)
		}
		wl := tune.WorkloadStats{N: r.n, SampleSize: 1024, DomainBits: r.keyBits, DistinctFrac: 1}
		model := tune.AuxBytes(tune.AlgoMSB, wl, r.keyBits, r.threads)
		if model < peak {
			t.Errorf("n=%d threads=%d %d-bit: modeled aux %d B below the measured peak %d B", r.n, r.threads, r.keyBits, model, peak)
		}
		if r.n == 1<<21 && r.threads == 1 && model > peak*3/2 {
			t.Errorf("n=%d threads=%d %d-bit: modeled aux %d B over 1.5 × the measured peak %d B", r.n, r.threads, r.keyBits, model, peak)
		}
		if r.threads == 2 && model > peak*2 {
			t.Errorf("n=%d threads=%d %d-bit: modeled aux %d B over 2 × the measured peak %d B", r.n, r.threads, r.keyBits, model, peak)
		}
		t.Logf("n=%d threads=%d %d-bit: modeled %d B, measured peak %d B", r.n, r.threads, r.keyBits, model, peak)
	}
}
