package partsort

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
)

func init() {
	// Retries in this package's tests sleep microseconds, so the suites
	// that retry add no milliseconds per attempt to the test time.
	retryBackoff = time.Microsecond
}

// TestRetryPolicyValidation drives SortResilientCtx through the invalid
// policy field and the invalid algorithm value: each must come back as an
// *ArgError naming the offending field, before any sorting happens.
func TestRetryPolicyValidation(t *testing.T) {
	keys := []uint64{3, 1, 2}
	vals := []uint64{0, 1, 2}
	cases := []struct {
		name  string
		algo  Algorithm
		pol   *RetryPolicy
		field string
	}{
		{"negative-max-attempts", LSB, &RetryPolicy{MaxAttempts: -3}, "MaxAttempts"},
		{"bad-algorithm", Algorithm(42), nil, "algo"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := SortResilientCtx(context.Background(), c.algo, keys, vals, nil, c.pol)
			var ae *ArgError
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v (%T), want *ArgError", err, err)
			}
			if ae.Field != c.field {
				t.Fatalf("ArgError.Field = %q, want %q", ae.Field, c.field)
			}
		})
	}
	// Legal zero-ish policies must sort: nil policy, zero-value policy.
	for _, pol := range []*RetryPolicy{nil, {}} {
		k := []uint64{3, 1, 2}
		v := []uint64{0, 1, 2}
		if err := SortResilientCtx(context.Background(), LSB, k, v, nil, pol); err != nil {
			t.Fatalf("valid policy %+v: %v", pol, err)
		}
		if !sort.SliceIsSorted(k, func(i, j int) bool { return k[i] < k[j] }) {
			t.Fatal("not sorted")
		}
	}
}

// TestClassifyError pins the supervisor classifier's taxonomy.
func TestClassifyError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want retryVerdict
	}{
		{"nil", nil, retryFatal},
		{"arg", &ArgError{Func: "f", Field: "x", Reason: "r"}, retryFatal},
		{"resource", &ResourceError{Op: "SortLSB"}, retryDegrade},
		{"internal", &InternalError{Op: "SortLSB", Value: "boom"}, retryTransient},
		{"canceled", context.Canceled, retryFatal},
		{"deadline", context.DeadlineExceeded, retryFatal},
		{"unknown", errors.New("mystery"), retryFatal},
	}
	for _, c := range cases {
		if got := classifyError(c.err); got != c.want {
			t.Errorf("classifyError(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

// checkSortedPermutation asserts keys are sorted and (keys[i], vals[i])
// pairs are a permutation of the identity-payload input.
func checkSortedPermutation(t *testing.T, keys, vals []uint64, ref []uint64) {
	t.Helper()
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("keys not sorted")
	}
	seen := make([]bool, len(vals))
	for i, v := range vals {
		if v >= uint64(len(vals)) || seen[v] {
			t.Fatalf("vals is not a permutation at %d: %d", i, v)
		}
		seen[v] = true
		if keys[i] != ref[v] {
			t.Fatalf("pair broken at %d: key %d, rid %d maps to %d", i, keys[i], v, ref[v])
		}
	}
}

// TestResilientRetriesTransient arms a single-shot fault: the first
// attempt fails with a contained panic, the in-place retry of the same
// plan succeeds, and the stats record exactly two attempts with a
// positive backoff.
func TestResilientRetriesTransient(t *testing.T) {
	defer fault.Disable()
	n := 1 << 14
	ref := gen.Uniform[uint64](n, 0, 7)
	keys := append([]uint64(nil), ref...)
	vals := RIDs[uint64](n)

	fault.Enable(fault.SiteLSBPass, 0)
	var st RetryStats
	pol := &RetryPolicy{Stats: &st}
	err := SortResilientCtx(context.Background(), LSB, keys, vals, nil, pol)
	fault.Disable()
	if err != nil {
		t.Fatalf("supervised sort failed: %v", err)
	}
	if st.Attempts != 2 || st.Stage != 0 || st.Degraded {
		t.Fatalf("stats = %+v, want 2 attempts on stage 0", st)
	}
	if st.Backoff <= 0 {
		t.Fatalf("no backoff recorded: %+v", st)
	}
	checkSortedPermutation(t, keys, vals, ref)
}

// TestResilientFallbackChain exhausts stages 0 and 1 with a repeat-fire
// chaos schedule on the LSB pass site (budget 4 = two attempts per
// stage) and proves the supervisor lands on the stage-2 in-place MSB
// sort, which has no LSB site to trip.
func TestResilientFallbackChain(t *testing.T) {
	defer fault.Disable()
	n := 1 << 14
	ref := gen.Uniform[uint64](n, 0, 11)
	keys := append([]uint64(nil), ref...)
	vals := RIDs[uint64](n)

	fault.Arm(fault.NewSchedule(1, map[fault.Site]fault.SiteConfig{
		fault.SiteLSBPass: {Prob: 1, Budget: 4},
	}))
	var st RetryStats
	pol := &RetryPolicy{Stats: &st}
	err := SortResilientCtx(context.Background(), LSB, keys, vals, nil, pol)
	fault.Disable()
	if err != nil {
		t.Fatalf("supervised sort failed: %v", err)
	}
	if st.Attempts != 5 || st.Stage != 2 {
		t.Fatalf("stats = %+v, want 5 attempts ending on stage 2", st)
	}
	checkSortedPermutation(t, keys, vals, ref)
}

// TestResilientDegradeOnResourceError squeezes the auxiliary budget so
// the LSB plan (which needs linear tmp columns) fails with a
// *ResourceError naming that budget, and proves the supervisor skips
// straight to the in-place stage instead of burning retries on a plan
// that cannot fit.
func TestResilientDegradeOnResourceError(t *testing.T) {
	n := 1 << 16
	ref := gen.Uniform[uint64](n, 0, 13)
	keys := append([]uint64(nil), ref...)
	vals := RIDs[uint64](n)

	var st RetryStats
	pol := &RetryPolicy{Stats: &st}
	// 256 KiB: far below the ~1 MiB of tmp columns LSB wants for 64K
	// 64-bit pairs, comfortably above the in-place MSB histograms.
	err := SortResilientCtx(context.Background(), LSB, keys, vals, &SortOptions{MaxAuxBytes: 256 << 10}, pol)
	if err != nil {
		t.Fatalf("supervised sort failed: %v", err)
	}
	if !st.Degraded || st.Stage != 2 {
		t.Fatalf("stats = %+v, want degraded to stage 2", st)
	}
	if st.Attempts != 2 {
		t.Fatalf("stats = %+v, want exactly one degraded re-attempt", st)
	}
	checkSortedPermutation(t, keys, vals, ref)
}

// TestResilientMaxAttempts caps the total attempt budget below the
// chain's natural capacity and checks the supervisor stops there.
func TestResilientMaxAttempts(t *testing.T) {
	defer fault.Disable()
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 19)
	vals := RIDs[uint64](n)

	fault.Arm(fault.NewSchedule(3, map[fault.Site]fault.SiteConfig{
		fault.SiteLSBPass:    {Prob: 1},
		fault.SiteMSBRecurse: {Prob: 1},
	}))
	var st RetryStats
	err := SortResilientCtx(context.Background(), LSB, keys, vals, nil,
		&RetryPolicy{MaxAttempts: 3, Stats: &st})
	fault.Disable()
	if err == nil {
		t.Fatal("every site armed with prob 1: the sort cannot have succeeded")
	}
	if st.Attempts != 3 {
		t.Fatalf("stats = %+v, want the MaxAttempts=3 cap honoured", st)
	}
}

// TestResilientContextFatal: a cancelled context is never retried, and a
// deadline too short for the backoff stops the supervisor early.
func TestResilientContextFatal(t *testing.T) {
	defer fault.Disable()
	n := 1 << 13
	keys := gen.Uniform[uint64](n, 0, 23)
	vals := RIDs[uint64](n)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var st RetryStats
	err := SortResilientCtx(ctx, LSB, keys, vals, nil, &RetryPolicy{Stats: &st})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Attempts != 1 {
		t.Fatalf("cancelled context was retried: %+v", st)
	}

	// A deadline shorter than the first backoff, raised to an hour here:
	// the supervisor must not sleep past it; the original failure
	// surfaces.
	defer func(d time.Duration) { retryBackoff = d }(retryBackoff)
	retryBackoff = time.Hour
	fault.Arm(fault.NewSchedule(4, map[fault.Site]fault.SiteConfig{
		fault.SiteLSBPass: {Prob: 1},
	}))
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	err = SortResilientCtx(dctx, LSB, keys, vals, nil, nil)
	fault.Disable()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want the pre-deadline *InternalError", err, err)
	}
}

// TestResilientAllAlgorithms runs one single-shot-fault recovery per
// algorithm and checks goroutine hygiene across the retries.
func TestResilientAllAlgorithms(t *testing.T) {
	defer fault.Disable()
	n := 1 << 14
	cases := []struct {
		algo Algorithm
		site fault.Site
	}{
		{LSB, fault.SiteLSBPass},
		{MSB, fault.SiteMSBRecurse},
		{CMP, fault.SiteCMPPass},
	}
	for _, c := range cases {
		t.Run(c.algo.String(), func(t *testing.T) {
			ref := gen.Uniform[uint64](n, 0, 29)
			keys := append([]uint64(nil), ref...)
			vals := RIDs[uint64](n)
			base := fault.TakeBaseline()
			fault.Enable(c.site, 0)
			err := SortResilientCtx(context.Background(), c.algo, keys, vals,
				&SortOptions{Threads: 4}, nil)
			fault.Disable()
			if err != nil {
				t.Fatalf("supervised %v failed: %v", c.algo, err)
			}
			checkSortedPermutation(t, keys, vals, ref)
			base.Verify(t, nil, "")
		})
	}
}

// TestResilientChaosMatrix runs seeded chaos schedules across {LSB, MSB,
// CMP} × {workspace, none}. Each schedule arms the sites a lane's sorts
// reach, the supervisor's MSB fallback included, at a fire probability
// cycling through 0.02, 0.2 and 1 with a bounded per-site budget; every
// seventh schedule is unbounded certain death on one site. Every
// supervised run must end in a success or a cleanly classified typed
// error, leave a permutation, log only events the schedule's decision
// function agrees with, and leave no goroutine, descriptor, temp resource
// or workspace byte behind. Even-numbered runs are single-threaded and
// must replay a byte-identical event log from the same seed; odd ones
// run on 4 threads.
func TestResilientChaosMatrix(t *testing.T) {
	defer fault.Disable()
	schedules := 240
	if testing.Short() {
		schedules = 48
	}
	n := 1 << 15
	ref := gen.Uniform[uint64](n, 0, 97)
	rids := RIDs[uint64](n)
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	sites := map[Algorithm][]fault.Site{
		LSB: {fault.SiteLSBPass, fault.SiteWorkerStart, fault.SiteMSBRecurse},
		MSB: {fault.SiteMSBRecurse, fault.SiteWorkerStart, fault.SiteBlockPermute},
		CMP: {fault.SiteCMPPass, fault.SiteWorkerStart, fault.SiteMSBRecurse},
	}
	// run sorts under the i-th schedule of a lane, checks the run, and
	// returns the schedule's event log.
	run := func(algo Algorithm, w *Workspace, seed uint64, i, threads int) []fault.Event {
		name := fmt.Sprintf("%v ws=%v seed=%d threads=%d", algo, w != nil, seed, threads)
		cfg := map[fault.Site]fault.SiteConfig{}
		for _, s := range sites[algo] {
			cfg[s] = fault.SiteConfig{Prob: []float64{0.02, 0.2, 1}[i%3], Budget: 1 + i%4}
		}
		if i%7 == 6 {
			cfg[sites[algo][0]] = fault.SiteConfig{Prob: 1}
		}
		sched := fault.NewSchedule(seed, cfg)
		copy(keys, ref)
		copy(vals, rids)
		base := fault.TakeBaseline()
		fault.Arm(sched)
		err := SortResilientCtx(context.Background(), algo, keys, vals, &SortOptions{Threads: threads, Workspace: w}, nil)
		fault.Disable()
		var ie *InternalError
		var re *ResourceError
		if err != nil && !errors.As(err, &ie) && !errors.As(err, &re) {
			t.Fatalf("%s: unclassified error %v (%T)", name, err, err)
		}
		if err == nil && !IsSorted(keys) {
			t.Fatalf("%s: supervised success left keys unsorted", name)
		}
		if !SameMultiset(ref, rids, keys, vals) {
			t.Fatalf("%s: keys/vals are not a permutation of the input (err=%v)", name, err)
		}
		if err := base.Check(w, ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		log := sched.Events()
		for _, ev := range log {
			if !sched.WouldFire(ev.Site, ev.Hit) {
				t.Fatalf("%s: logged event %+v contradicts the decision function", name, ev)
			}
		}
		return log
	}

	lane := 0
	for _, algo := range []Algorithm{LSB, MSB, CMP} {
		for _, withWS := range []bool{false, true} {
			var w *Workspace
			if withWS {
				// Prime the pool so its parked workers join the baseline.
				w = NewWorkspace()
				copy(keys, ref)
				copy(vals, rids)
				if err := trySort(LSB, keys, vals, &SortOptions{Threads: 4, Workspace: w}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < schedules/6; i++ {
				seed := 1 + uint64(lane)*1_000_003 + uint64(i)
				if i%2 == 1 {
					run(algo, w, seed, i, 4)
					continue
				}
				first := run(algo, w, seed, i, 1)
				if replay := run(algo, w, seed, i, 1); !slices.Equal(first, replay) {
					t.Fatalf("%v ws=%v seed=%d: replay logged %v, first run %v", algo, withWS, seed, replay, first)
				}
			}
			w.Close()
			lane++
		}
	}
}

// TestResilientCapBeforeTransition pins the attempt cap ahead of every
// stage transition: a run the cap stops records no degradation or
// fallback it never attempted, so MaxAttempts: 1 is exactly one hardened
// attempt.
func TestResilientCapBeforeTransition(t *testing.T) {
	StartObservability(nil)
	defer StopObservability()
	defer fault.Disable()
	n := 1 << 16
	keys := gen.Uniform[uint64](n, 0, 43)
	vals := RIDs[uint64](n)

	var st RetryStats
	before := ObservedCounters()
	err := SortResilientCtx(context.Background(), LSB, keys, vals, &SortOptions{MaxAuxBytes: 256 << 10},
		&RetryPolicy{MaxAttempts: 1, Stats: &st})
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *ResourceError", err, err)
	}
	if st != (RetryStats{Attempts: 1}) {
		t.Fatalf("stats = %+v, want one undegraded attempt on stage 0", st)
	}
	if d := ObservedCounters().MemDegrades - before.MemDegrades; d != 0 {
		t.Fatalf("mem_degrades moved by %d with no degraded attempt", d)
	}

	fault.Arm(fault.NewSchedule(5, map[fault.Site]fault.SiteConfig{
		fault.SiteLSBPass: {Prob: 1},
	}))
	before = ObservedCounters()
	err = SortResilientCtx(context.Background(), LSB, keys, vals, nil,
		&RetryPolicy{MaxAttempts: 2, Stats: &st})
	fault.Disable()
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if st.Attempts != 2 || st.Stage != 0 {
		t.Fatalf("stats = %+v, want 2 attempts on stage 0", st)
	}
	if d := ObservedCounters().RetryFallbacks - before.RetryFallbacks; d != 0 {
		t.Fatalf("retry_fallbacks moved by %d with no fallback attempt", d)
	}
}

// TestResilientZeroAllocCleanPath: a clean first-try sort with a warmed
// workspace allocates nothing, for every algorithm, through both the
// supervisor and the panicking wrapper — the hardened attempt and the
// supervisor's happy path add no copies, closures, or stats traffic.
func TestResilientZeroAllocCleanPath(t *testing.T) {
	n := 1 << 12
	keys := gen.Uniform[uint64](n, 0, 31)
	vals := RIDs[uint64](n)
	wrappers := map[Algorithm]func(keys, vals []uint64, opt *SortOptions){
		LSB: SortLSB[uint64], MSB: SortMSB[uint64], CMP: SortCMP[uint64],
	}
	for _, algo := range []Algorithm{LSB, MSB, CMP} {
		entries := []struct {
			name string
			run  func(opt *SortOptions)
		}{
			{"SortResilientCtx", func(opt *SortOptions) {
				if err := SortResilientCtx(context.Background(), algo, keys, vals, opt, nil); err != nil {
					t.Fatal(err)
				}
			}},
			{"wrapper", func(opt *SortOptions) { wrappers[algo](keys, vals, opt) }},
		}
		for _, e := range entries {
			t.Run(algo.String()+"/"+e.name, func(t *testing.T) {
				w := NewWorkspace()
				defer w.Close()
				opt := &SortOptions{Workspace: w}
				run := func() { e.run(opt) }
				run() // warm the arena
				if a := testing.AllocsPerRun(20, run); a != 0 {
					t.Fatalf("clean-path sort allocates %v times per run", a)
				}
			})
		}
	}
}

// BenchmarkResilientOverhead prices the supervisor's default policy
// against the single-attempt policy on identical warmed-workspace sorts:
// the clean first-try path must cost one classification branch and zero
// allocations.
func BenchmarkResilientOverhead(b *testing.B) {
	n := 1 << 14
	w := NewWorkspace()
	defer w.Close()
	keys := gen.Uniform[uint64](n, 0, 37)
	vals := RIDs[uint64](n)
	opt := &SortOptions{Workspace: w}
	if err := trySort(MSB, keys, vals, opt); err != nil {
		b.Fatal(err)
	}
	b.Run("try", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := trySort(MSB, keys, vals, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resilient", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := SortResilientCtx(context.Background(), MSB, keys, vals, opt, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
