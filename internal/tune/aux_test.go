package tune_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/sortalgo"
	"repro/internal/tune"
	"repro/internal/ws"
)

// TestCMPAuxCoversMeasuredPeak sorts at the shape where the arena's
// power-of-two classes round CMP's first-pass classify buffers up the
// most — 2 workers × 360 partitions × 1024-tuple blocks is 737,280
// tuples a column, handed out as 2^20 — and checks that the plan's
// modeled AuxBytes covers the run's measured peak.
func TestCMPAuxCoversMeasuredPeak(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts 6M 64-bit pairs")
	}
	const n = 6_000_000
	keys := gen.Uniform[uint64](n, 0, 1)
	vals := gen.RIDs[uint64](n)
	w := ws.New()
	defer w.Close()
	var st sortalgo.Stats
	sortalgo.CMP(keys, vals, nil, nil, sortalgo.Options{Threads: 2, Workspace: w, Stats: &st})

	p := tune.Calibrate(tune.Config{Quick: true})
	p.NumCPU = 2
	wl := tune.WorkloadStats{N: n, SampleSize: 1024, DomainBits: 64, DistinctFrac: 1}
	plan := tune.Choose(p, wl, tune.Requirements{KeyBits: 64, Force: tune.AlgoCMP, MaxThreads: 2})
	if plan.Algo != tune.AlgoCMP || plan.Threads != 2 {
		t.Fatalf("plan %s on %d threads, want CMP on 2", plan.Algo, plan.Threads)
	}
	if plan.AuxBytes < int64(st.PeakAuxBytes) {
		t.Fatalf("modeled AuxBytes %d below the measured peak %d", plan.AuxBytes, st.PeakAuxBytes)
	}
	t.Logf("modeled %d B, measured peak %d B", plan.AuxBytes, st.PeakAuxBytes)
}
