// Command chaoscheck drives the seeded chaos engine against the
// resilient supervisor and is the CI gate behind verify.sh's resilience
// smoke: exit 0 means every chaos schedule in a {LSB, MSB, CMP} ×
// {workspace, none} matrix of seeded runs ended in a supervised success
// or a cleanly classified typed error (never a crash), left the columns
// a permutation of the input, leaked no goroutines and no workspace
// bytes, and that chaos decisions reproduce: single-threaded lanes
// replay byte-identical event logs from the same seed, parallel lanes
// verify every logged event against the schedule's pure decision
// function. A dedicated pressure lane proves the memory-degradation
// path: an auxiliary budget too small for LSB's tmp columns must surface
// as *ResourceError from a single attempt and degrade to an in-place
// success under the full fallback chain.
//
// Examples:
//
//	chaoscheck                      # 240 schedules at the default size
//	chaoscheck -schedules 600 -v    # bigger sweep, per-run progress
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	partsort "repro"
	"repro/internal/fault"
	"repro/internal/gen"
)

// lane is one algorithm × workspace combination of the chaos matrix.
type lane struct {
	algo   partsort.Algorithm
	withWS bool
}

// sitesFor returns the injection sites a lane's sorts (including the
// supervisor's MSB fallback stage) can reach, so schedules arm sites
// that actually fire.
func sitesFor(algo partsort.Algorithm) []fault.Site {
	switch algo {
	case partsort.LSB:
		return []fault.Site{fault.SiteLSBPass, fault.SiteWorkerStart, fault.SiteMSBRecurse}
	case partsort.MSB:
		return []fault.Site{fault.SiteMSBRecurse, fault.SiteWorkerStart, fault.SiteBlockPermute}
	default:
		return []fault.Site{fault.SiteCMPPass, fault.SiteWorkerStart, fault.SiteMSBRecurse}
	}
}

// scheduleFor builds the i-th schedule of a lane: the fire probability
// and per-site budget cycle through mild, aggressive, and certain-death
// configurations so the sweep exercises clean successes, retried
// successes, fallback-chain degradations, and classified failures.
func scheduleFor(seed uint64, algo partsort.Algorithm, i int) *fault.Schedule {
	probs := []float64{0.02, 0.2, 1.0}
	cfg := map[fault.Site]fault.SiteConfig{}
	for _, s := range sitesFor(algo) {
		cfg[s] = fault.SiteConfig{
			Prob:   probs[i%len(probs)],
			Budget: 1 + i%4, // bounded chaos: the supervisor can outlast it
		}
	}
	if i%7 == 6 {
		// Every seventh schedule is unbounded certain death on one site:
		// the supervised run must fail cleanly, not hang or crash.
		cfg[sitesFor(algo)[0]] = fault.SiteConfig{Prob: 1}
	}
	return fault.NewSchedule(seed, cfg)
}

func main() {
	schedules := flag.Int("schedules", 240, "total chaos schedules across the matrix (>= 200 for the CI gate)")
	n := flag.Int("n", 1<<15, "tuples per run")
	seed := flag.Uint64("seed", 1, "base seed; every schedule derives from it")
	threads := flag.Int("threads", 4, "worker threads for the parallel lanes")
	verbose := flag.Bool("v", false, "print one line per run")
	flag.Parse()
	defer fault.Disable()

	lanes := []lane{
		{partsort.LSB, false}, {partsort.LSB, true},
		{partsort.MSB, false}, {partsort.MSB, true},
		{partsort.CMP, false}, {partsort.CMP, true},
	}
	perLane := (*schedules + len(lanes) - 1) / len(lanes)

	ref := gen.Uniform[uint64](*n, 0, 97)
	rids := partsort.RIDs[uint64](*n)
	keys := make([]uint64, *n)
	vals := make([]uint64, *n)

	var succeeded, retried, failed int
	for li, ln := range lanes {
		var w *partsort.Workspace
		if ln.withWS {
			w = partsort.NewWorkspace()
			// Prime the pool so parked workers join the goroutine baseline.
			copy(keys, ref)
			copy(vals, rids)
			if err := partsort.SortResilientCtx(context.Background(), partsort.LSB, keys, vals,
				&partsort.SortOptions{Threads: *threads, Workspace: w}, &partsort.RetryPolicy{MaxAttempts: 1}); err != nil {
				fail("lane %v: workspace warm-up failed: %v", ln.algo, err)
			}
		}
		for i := 0; i < perLane; i++ {
			runSeed := *seed + uint64(li)*1_000_003 + uint64(i)
			deterministic := i%2 == 0 // odd runs go parallel
			thr := 1
			if !deterministic {
				thr = *threads
			}
			name := fmt.Sprintf("%v ws=%v seed=%d threads=%d", ln.algo, ln.withWS, runSeed, thr)

			log1 := chaosRun(name, ln, runSeed, i, thr, ref, rids, keys, vals, w,
				&succeeded, &retried, &failed)
			if deterministic {
				// Same seed, fresh schedule, single-threaded: the event log
				// must replay byte-identically.
				var s2, r2, f2 int
				log2 := chaosRun(name+" (replay)", ln, runSeed, i, thr, ref, rids, keys, vals, w,
					&s2, &r2, &f2)
				if len(log1) != len(log2) {
					fail("%s: replay produced %d events, first run %d", name, len(log2), len(log1))
				}
				for j := range log1 {
					if log1[j] != log2[j] {
						fail("%s: replay diverged at event %d: %+v vs %+v", name, j, log1[j], log2[j])
					}
				}
			}
			if *verbose {
				fmt.Printf("chaoscheck: %-48s ok (%d fires)\n", name, len(log1))
			}
		}
		if w != nil {
			w.Close()
		}
	}

	pressureLane(*n, *threads)

	total := perLane * len(lanes)
	fmt.Printf("chaoscheck: %d schedules ok (%d clean, %d retried into success, %d cleanly failed), pressure lane ok\n",
		total, succeeded, retried, failed)
	if *schedules >= 200 && total < 200 {
		fail("only %d schedules ran; the CI gate needs at least 200", total)
	}
}

// chaosRun executes one supervised sort under one chaos schedule and
// enforces every invariant; it returns the schedule's event log.
func chaosRun(name string, ln lane, runSeed uint64, i, threads int, ref, rids, keys, vals []uint64,
	w *partsort.Workspace, succeeded, retried, failed *int) []fault.Event {
	copy(keys, ref)
	copy(vals, rids)
	base := runtime.NumGoroutine()

	sched := scheduleFor(runSeed, ln.algo, i)
	fault.Arm(sched)
	var st partsort.RetryStats
	pol := &partsort.RetryPolicy{
		InitialBackoff: 50 * time.Microsecond,
		MaxBackoff:     200 * time.Microsecond,
		JitterSeed:     runSeed,
		Stats:          &st,
	}
	err := partsort.SortResilientCtx(context.Background(), ln.algo, keys, vals,
		&partsort.SortOptions{Threads: threads, Workspace: w}, pol)
	fault.Disable()

	switch {
	case err == nil && st.Attempts == 1:
		*succeeded++
	case err == nil:
		*retried++
	default:
		// A failure is acceptable only when it is cleanly classified: a
		// contained panic or a budget error, never a crash or a foreign type.
		var ie *partsort.InternalError
		var re *partsort.ResourceError
		if !errors.As(err, &ie) && !errors.As(err, &re) {
			fail("%s: unclassified error %v (%T)", name, err, err)
		}
		*failed++
	}
	if err == nil && !sorted(keys) {
		fail("%s: supervised success left keys unsorted", name)
	}
	if !partsort.SameMultiset(ref, rids, keys, vals) {
		fail("%s: keys/vals are not a permutation of the input (err=%v)", name, err)
	}
	waitGoroutines(name, base)
	if w != nil {
		if b := w.AuxBytes(); b != 0 {
			fail("%s: %d workspace bytes leaked after the run", name, b)
		}
	}

	// Every logged event — whatever the interleaving — must agree with
	// the schedule's pure decision function.
	log := sched.Events()
	for _, ev := range log {
		if !sched.WouldFire(ev.Site, ev.Hit) {
			fail("%s: logged event %+v contradicts the decision function", name, ev)
		}
	}
	return log
}

// pressureLane proves the memory-degradation path end to end: a budget
// far below LSB's tmp-column footprint must fail typed on a single
// attempt and degrade into an in-place stage-2 success under the full
// chain.
func pressureLane(n, threads int) {
	ref := gen.Uniform[uint64](n, 0, 101)
	keys := append([]uint64(nil), ref...)
	vals := partsort.RIDs[uint64](n)
	tiny := int64(n) // bytes: orders of magnitude below the 16n tmp columns

	err := partsort.SortResilientCtx(context.Background(), partsort.LSB, keys, vals,
		&partsort.SortOptions{Threads: threads, MaxAuxBytes: tiny}, &partsort.RetryPolicy{MaxAttempts: 1})
	var re *partsort.ResourceError
	if !errors.As(err, &re) {
		fail("pressure: single attempt err = %v (%T), want *partsort.ResourceError", err, err)
	}
	if re.Budget != tiny {
		fail("pressure: ResourceError budget = %d, want %d", re.Budget, tiny)
	}

	var st partsort.RetryStats
	err = partsort.SortResilientCtx(context.Background(), partsort.LSB, keys, vals,
		&partsort.SortOptions{Threads: threads, MaxAuxBytes: tiny},
		&partsort.RetryPolicy{InitialBackoff: 50 * time.Microsecond, Stats: &st})
	if err != nil {
		fail("pressure: supervised sort failed: %v", err)
	}
	if !st.Degraded || st.Stage != 2 {
		fail("pressure: stats = %+v, want a degraded stage-2 success", st)
	}
	if !sorted(keys) || !partsort.SameMultiset(ref, partsort.RIDs[uint64](n), keys, vals) {
		fail("pressure: degraded sort did not produce a sorted permutation")
	}
	fmt.Printf("chaoscheck: pressure lane degraded %v -> in-place success (%d attempts)\n",
		partsort.LSB, st.Attempts)
}

// sorted reports keys in non-decreasing order.
func sorted(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
	}
	return true
}

// waitGoroutines waits briefly for exited workers to be reaped before
// declaring a leak.
func waitGoroutines(name string, base int) {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			fail("%s: goroutine leak: %d live, baseline %d", name, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chaoscheck: "+format+"\n", args...)
	os.Exit(1)
}
