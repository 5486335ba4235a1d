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
