// Admission-charge tests: every request is charged the largest
// tune.Footprint among the stages the retry supervisor can run it on,
// and its run is capped at that charge; an external job runs the spill
// plan it was admitted and charged for.

package server

import (
	"context"
	"fmt"
	"slices"
	"testing"

	partsort "repro"
	"repro/internal/fault"
	"repro/internal/tune"
)

// TestAuxEstimateCoversSortPlans is the sortd half of the footprint grid
// (tune's Test{LSB,MSB,CMP}AuxCoversMeasuredPeak are the other): each request's
// charge becomes its run's MaxAuxBytes, so tables or buffers that outgrew
// it would fail the first attempt with a resource error and degrade it
// through the retry supervisor. Every algorithm runs every size through
// one server per thread count, so the pooled arenas are warm with other
// algorithms' and widths' buffers. The sizes straddle the cache bound
// (16384 64-bit, 32768 32-bit tuples), where LSB's digits widen from 8 to
// 11 bits, MSB's local passes leave the in-cache branch and CMP's input
// stops being one leaf.
func TestAuxEstimateCoversSortPlans(t *testing.T) {
	for _, threads := range []int{1, 2} {
		cfg := testConfig()
		cfg.BatchMaxTuples = -1
		cfg.SortThreads = threads
		s := New(cfg)
		for _, algo := range []partsort.Algorithm{partsort.LSB, partsort.MSB, partsort.CMP} {
			for _, n := range []int{4096, 16384, 16385, 32769, 65536, 1 << 18} {
				for _, width := range []int{32, 64} {
					res, req := submitKeys(t, s, algo, n, width)
					if res.Attempts != 1 || res.Degraded {
						t.Fatalf("%v threads=%d n=%d width=%d: %d attempts, degraded=%v; want one clean attempt",
							algo, threads, n, width, res.Attempts, res.Degraded)
					}
					checkRequestSorted(t, req)
				}
			}
		}
		drainOK(t, s)
	}
}

// submitKeys submits one key-only request of n random width-bit keys
// and fails the test on a Submit error.
func submitKeys(t *testing.T, s *Server, algo partsort.Algorithm, n, width int) (Result, *Request) {
	t.Helper()
	req := &Request{Algo: algo}
	keys := randKeys(n, int64(n+width))
	if width == 64 {
		req.Keys64 = keys
	} else {
		req.Keys32 = make([]uint32, n)
		for i, k := range keys {
			req.Keys32[i] = uint32(k)
		}
	}
	res, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("%v n=%d width=%d: Submit: %v", algo, n, width, err)
	}
	return res, req
}

// checkRequestSorted fails unless req's key column is sorted.
func checkRequestSorted(t *testing.T, req *Request) {
	t.Helper()
	if req.Keys64 != nil {
		checkSorted(t, req.Keys64)
	} else if !slices.IsSorted(req.Keys32) {
		t.Fatal("keys32 not sorted")
	}
}

// TestChargeTracksMeasuredPeak pins the 2^17-key 64-bit request on two
// sort threads: each algorithm is charged at least the measured peak of
// every stage the charge covers (the algorithm on two threads and on
// one, and one-thread MSB), so under a 4 MiB ledger with spilling
// enabled every one of them, in-place MSB and CMP included, runs in
// memory in one clean attempt. LSB and MSB are charged at most twice
// their own two-thread peak. CMP's own runs peak at about a quarter of
// the one-thread MSB stage, which the charge must cover
// (TestFallbackStagesStayWithinCharge runs it) and which therefore sets
// CMP's charge: CMP is charged at most twice that stage's peak.
func TestChargeTracksMeasuredPeak(t *testing.T) {
	const n = 1 << 17
	cfg := testConfig()
	cfg.SortThreads = 2
	cfg.MaxAuxBytes = 4 << 20
	cfg.SpillDir = t.TempDir()
	s := New(cfg)
	defer drainOK(t, s)
	stagePeak := func(algo partsort.Algorithm, threads int) int64 {
		keys, vals := randKeys(n, 5), partsort.RIDs[uint64](n)
		w := partsort.NewWorkspace()
		defer w.Close()
		var st partsort.SortStats
		opt := &partsort.SortOptions{Threads: threads, Workspace: w, Stats: &st}
		if err := partsort.SortResilientCtx(context.Background(), algo, keys, vals, opt, &partsort.RetryPolicy{MaxAttempts: 1}); err != nil {
			t.Fatalf("%v on %d threads: %v", algo, threads, err)
		}
		return int64(st.PeakAuxBytes)
	}
	msbStage := stagePeak(partsort.MSB, 1)
	for _, algo := range []partsort.Algorithm{partsort.LSB, partsort.MSB, partsort.CMP} {
		peak := stagePeak(algo, 2)
		worst := max(peak, stagePeak(algo, 1), msbStage)
		charge := s.charge(algo, n, 64)
		if charge < worst {
			t.Errorf("%v: charged %d B below the largest stage peak %d B", algo, charge, worst)
		}
		if algo != partsort.CMP && charge > 2*peak {
			t.Errorf("%v: charged %d B against a measured peak of %d B, want at most 2 × peak", algo, charge, peak)
		}
		if algo == partsort.CMP && (charge != tune.Footprint(tune.AlgoMSB, n, 64, 1) || charge > 2*msbStage) {
			t.Errorf("%v: charged %d B, want one-thread MSB's Footprint %d B, at most 2 × that stage's peak %d B",
				algo, charge, tune.Footprint(tune.AlgoMSB, n, 64, 1), msbStage)
		}
		t.Logf("%v: charged %d B, measured peak %d B, largest stage peak %d B", algo, charge, peak, worst)
		res, req := submitKeys(t, s, algo, n, 64)
		if res.Spilled || res.Attempts != 1 || res.Degraded {
			t.Errorf("%v: spilled=%v attempts=%d degraded=%v; want one clean in-memory attempt",
				algo, res.Spilled, res.Attempts, res.Degraded)
		}
		checkRequestSorted(t, req)
	}
}

// TestFallbackStagesStayWithinCharge injects transient faults into the
// first attempts of a two-thread request, so the retry supervisor, two
// attempts a stage, finishes it on a later stage of the same warm arena:
// the algorithm on one thread (stage 1), reached when every worker
// fan-out faults, which only stage 0's two-thread attempts make; or
// one-thread MSB (stage 2), reached when every attempt that passes the
// algorithm's own site faults. MSB's stage 2 runs the plan of its stage
// 1, so it is covered there. The charge covers every stage, so none may meet a
// resource error, which would show as a degraded run.
func TestFallbackStagesStayWithinCharge(t *testing.T) {
	const n = 1 << 17
	sites := map[partsort.Algorithm]fault.Site{
		partsort.LSB: fault.SiteLSBPass, partsort.MSB: fault.SiteMSBRecurse, partsort.CMP: fault.SiteCMPPass,
	}
	cfg := testConfig()
	cfg.SortThreads = 2
	s := New(cfg)
	defer drainOK(t, s)
	defer fault.Disable()
	for _, algo := range []partsort.Algorithm{partsort.LSB, partsort.MSB, partsort.CMP} {
		for _, stage := range []int{1, 2} {
			if algo == partsort.MSB && stage == 2 {
				continue
			}
			t.Run(fmt.Sprintf("%v/stage%d", algo, stage), func(t *testing.T) {
				site := fault.SiteWorkerStart
				if stage == 2 {
					site = sites[algo]
				}
				fault.Arm(fault.NewSchedule(1, map[fault.Site]fault.SiteConfig{site: {Prob: 1}}))
				res, req := submitKeys(t, s, algo, n, 64)
				fault.Disable()
				if want := 2*stage + 1; res.Stage != stage || res.Attempts != want || res.Degraded {
					t.Fatalf("stage %d after %d attempts, degraded=%v; want stage %d after %d clean of resource errors",
						res.Stage, res.Attempts, res.Degraded, stage, want)
				}
				checkRequestSorted(t, req)
			})
		}
	}
}

// TestExternalJobRunsAdmittedPlan checks from the outside that an
// over-ledger request runs the spill plan it was admitted and charged
// for, planned at half the ledger. The run's options carry that budget,
// from which PlanSpill re-derives the admitted plan (not the plan at the
// smaller charge, which at this shape fans out to a different bucket
// count), and the plan's DiskBytes as the disk cap. A sort with those
// options on a workspace fills the plan's 1<<BucketBits buckets and
// succeeds, and it runs capped at the plan's MemBytes, which is the
// job's charge: an arena peak past the charge would fail it with a
// *ResourceError.
func TestExternalJobRunsAdmittedPlan(t *testing.T) {
	const n = 1 << 18 // LSB charge ≈ 4.6 MB, past the 4 MiB ledger
	cfg := testConfig()
	cfg.MaxAuxBytes = 4 << 20
	cfg.SpillDir = t.TempDir()
	var ran *job
	s := newServer(cfg, func(j *job) { ran = j })
	defer drainOK(t, s)

	res, req := submitKeys(t, s, partsort.LSB, n, 64)
	checkRequestSorted(t, req)
	plan := tune.PlanSpill(n, 64, cfg.MaxAuxBytes/2, 1)
	if !res.Spilled || !ran.external || ran.plan != plan || ran.est != plan.MemBytes {
		t.Fatalf("spilled=%v external=%v plan %+v charge %d; want the plan %+v charged its MemBytes",
			res.Spilled, ran.external, ran.plan, ran.est, plan)
	}
	if re := tune.PlanSpill(n, 64, plan.MemBytes, 1); re.BucketBits == plan.BucketBits {
		t.Fatalf("re-planning at the charge keeps 2^%d buckets; the shape check below cannot tell the plans apart", re.BucketBits)
	}
	w := partsort.NewWorkspace()
	defer w.Close()
	opt := s.options(ran, w)
	if re := tune.PlanSpill(n, 64, opt.MaxAuxBytes, opt.Threads); re != plan || opt.MaxSpillBytes != plan.DiskBytes {
		t.Fatalf("run options re-derive the plan %+v under a %d B disk cap, want the admitted %+v and %d B",
			re, opt.MaxSpillBytes, plan, plan.DiskBytes)
	}
	st, err := partsort.SortExternal(randKeys(n, n+64), partsort.RIDs[uint64](n), opt)
	if err != nil {
		t.Fatalf("SortExternal with the run's options: %v", err)
	}
	if st.Buckets != 1<<plan.BucketBits {
		t.Fatalf("the run filled %d buckets, want the admitted 2^%d", st.Buckets, plan.BucketBits)
	}
}
