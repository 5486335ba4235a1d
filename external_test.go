package partsort

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/tune"
)

// extTestOpt spills at unit-test sizes: on two threads under 128 KiB,
// below the planner's floor for 2^15 64-bit pairs (a quarter of their
// bytes), the plan caps the fanout at 16 buckets of about 2048 tuples
// over 1024-tuple segments, so every bucket of a uniform input takes the
// in-place overflow sort (TestSortExternalFaultInjection checks that
// shape).
func extTestOpt(t *testing.T) *SortOptions {
	return &SortOptions{TempDir: t.TempDir(), MaxAuxBytes: 128 << 10, Threads: 2}
}

// TestSortExternalForcedSpill sorts an input four times the configured
// memory budget through the spill path, at both key widths, and checks
// the full contract: sorted, a permutation of the input, spill stats
// populated, run formation one streaming pass (it writes each pair
// exactly once), and nothing left behind: no goroutine, descriptor, temp
// resource or spill file.
func TestSortExternalForcedSpill(t *testing.T) {
	t.Run("uint64", func(t *testing.T) { forcedSpill[uint64](t, 1<<16) }) // 1 MiB of pairs
	t.Run("uint32", func(t *testing.T) { forcedSpill[uint32](t, 1<<17) })
}

func forcedSpill[K Key](t *testing.T, n int) {
	opt := extTestOpt(t)
	pairBytes := int64(2 * kv.Width[K]() / 8)
	opt.MaxAuxBytes = int64(n) * pairBytes / 4 // input is 4x this budget
	keys := gen.Uniform[K](n, 0, 1)
	vals := RIDs[K](n)
	sumK := append([]K(nil), keys...)
	sumV := append([]K(nil), vals...)

	base := fault.TakeBaseline()
	st, err := SortExternal(keys, vals, opt)
	if err != nil {
		t.Fatalf("SortExternal: %v", err)
	}
	if !st.Spilled {
		t.Fatalf("expected spill at n=%d, budget=%d: %+v", n, opt.MaxAuxBytes, st)
	}
	if !IsSorted(keys) {
		t.Fatal("output not sorted")
	}
	if !SameMultiset(keys, vals, sumK, sumV) {
		t.Fatal("output not a permutation of the input")
	}
	if st.SpillBytes == 0 || st.ReadBytes == 0 {
		t.Fatalf("spill stats empty: %+v", st)
	}
	if want := int64(n) * pairBytes; st.FormationBytes != want {
		t.Fatalf("formation wrote %d bytes, want exactly one streaming pass = %d", st.FormationBytes, want)
	}
	base.Verify(t, nil, opt.TempDir)
}

// TestSortExternalOnePassPlan pins the planner's one-pass shape: uniform
// 64-bit pairs under an eighth of their bytes spill and read back each
// byte once (no bucket overflows its segment, which would read its bytes
// twice), and the run reserves at most 1.25× the formation bytes of
// disk: MaxSpillBytes refuses it past that. The second row's domain sits
// just above a power of two, where a digit taken by shifting alone would
// fill half the buckets to twice the planned fill.
func TestSortExternalOnePassPlan(t *testing.T) {
	for _, domain := range []uint64{0, 1<<40 + 1<<33} {
		n := 1 << 20
		in := int64(n) * 16
		keys := gen.Uniform[uint64](n, domain, 11)
		vals := RIDs[uint64](n)
		sumK := append([]uint64(nil), keys...)
		sumV := append([]uint64(nil), vals...)
		opt := &SortOptions{TempDir: t.TempDir(), MaxAuxBytes: in / 8, MaxSpillBytes: in + in/4, Threads: 2}

		base := fault.TakeBaseline()
		st, err := SortExternal(keys, vals, opt)
		if err != nil {
			t.Fatalf("domain %#x: SortExternal: %v", domain, err)
		}
		if !st.Spilled || !IsSorted(keys) || !SameMultiset(keys, vals, sumK, sumV) {
			t.Fatalf("domain %#x: spilled=%v sorted=%v", domain, st.Spilled, IsSorted(keys))
		}
		if st.FormationBytes != in || st.SpillBytes != in || st.ReadBytes != in {
			t.Fatalf("domain %#x: formation %d, spilled %d, read %d bytes; want each byte once (%d)",
				domain, st.FormationBytes, st.SpillBytes, st.ReadBytes, in)
		}
		base.Verify(t, nil, opt.TempDir)
	}
}

// TestSortExternalSkewMerges keeps the overflow path covered under
// planner defaults: Zipf θ = 1 keys give the hottest key about 7% of the
// input, far past one segment, so its bucket is sorted in place in its
// output range. The witness is its second read: the seal check reads an
// overflowing bucket once before the read into its range, so ReadBytes
// exceeds FormationBytes, while nothing but formation writes to disk.
func TestSortExternalSkewMerges(t *testing.T) {
	n := 1 << 20
	keys := gen.ZipfKeys[uint64](n, 1<<20, 1.0, 12)
	vals := RIDs[uint64](n)
	sumK := append([]uint64(nil), keys...)
	sumV := append([]uint64(nil), vals...)
	opt := &SortOptions{TempDir: t.TempDir(), MaxAuxBytes: int64(n) * 16 / 8, Threads: 2}

	base := fault.TakeBaseline()
	st, err := SortExternal(keys, vals, opt)
	if err != nil {
		t.Fatalf("SortExternal: %v", err)
	}
	if !st.Spilled || !IsSorted(keys) || !SameMultiset(keys, vals, sumK, sumV) {
		t.Fatalf("spilled=%v sorted=%v", st.Spilled, IsSorted(keys))
	}
	if st.ReadBytes <= st.FormationBytes {
		t.Fatalf("no bucket overflowed its segment: %+v", st)
	}
	if st.SpillBytes != st.FormationBytes {
		t.Fatalf("spilled %d bytes, want the formation copy alone (%d)", st.SpillBytes, st.FormationBytes)
	}
	base.Verify(t, nil, opt.TempDir)
}

// TestSortExternalOverflowWorkers checks that a bucket past one segment
// is sorted on the plan's OverflowThreads workers, not on all Threads:
// 2^20 pairs on four threads under 2 MiB fit two overflow workers (the
// plan prices each count at n tuples). Every key lies in the top eighth
// of the domain, so every bucket overflows its segment (each is read
// twice) and every worker span of the run comes from the in-place sort.
func TestSortExternalOverflowWorkers(t *testing.T) {
	const n, threads = 1 << 20, 4
	budget := int64(n) * 16 / 8
	plan := tune.PlanSpill(n, 64, budget, threads)
	if plan.OverflowThreads < 1 || plan.OverflowThreads >= threads {
		t.Fatalf("plan fits %d overflow workers of %d; the test needs fewer than all", plan.OverflowThreads, threads)
	}
	keys := gen.Uniform[uint64](n, 1<<40, 23)
	for i := range keys {
		keys[i] |= 7 << 40
	}
	keys[0] = 8<<40 - 1 // the sampled maximum
	vals := RIDs[uint64](n)
	want := kv.ChecksumPairs(keys, vals)

	sink := &workerSink{}
	obs.Start(sink)
	st, err := SortExternal(keys, vals, &SortOptions{Threads: threads, MaxAuxBytes: budget, TempDir: t.TempDir()})
	_ = obs.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(keys) || kv.ChecksumPairs(keys, vals) != want {
		t.Fatalf("sorted=%v", IsSorted(keys))
	}
	if st.ReadBytes != 2*st.FormationBytes {
		t.Fatalf("read %d of %d formation bytes; want every bucket read twice", st.ReadBytes, st.FormationBytes)
	}
	if sink.workers != plan.OverflowThreads {
		t.Fatalf("the overflow sorts ran on %d workers, want the plan's %d", sink.workers, plan.OverflowThreads)
	}
}

// workerSink is an obs sink that counts the workers whose spans it saw:
// one more than the highest worker index.
type workerSink struct {
	mu      sync.Mutex
	workers int
}

// Emit implements obs.Sink.
func (s *workerSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.workers = max(s.workers, e.Worker+1)
	s.mu.Unlock()
}

// Close implements obs.Sink.
func (s *workerSink) Close() error { return nil }

// TestSortExternalInMemory checks that small inputs under a roomy budget
// never touch disk, and still sort.
func TestSortExternalInMemory(t *testing.T) {
	n := 1 << 12
	keys := gen.Uniform[uint64](n, 1, 1)
	vals := RIDs[uint64](n)
	opt := &SortOptions{TempDir: t.TempDir()}
	base := fault.TakeBaseline()
	st, err := SortExternal(keys, vals, opt)
	if err != nil {
		t.Fatalf("SortExternal: %v", err)
	}
	if st.Spilled {
		t.Fatalf("small input spilled: %+v", st)
	}
	if !IsSorted(keys) {
		t.Fatal("output not sorted")
	}
	base.Verify(t, nil, opt.TempDir)
}

// TestSortExternalCancel checks cooperative cancellation, before the call
// starts and by a deadline that expires during run formation: the
// context's error comes back, the input is a permutation, and nothing is
// left behind. A sort that outruns the deadline skips its row.
func TestSortExternalCancel(t *testing.T) {
	n := 1 << 15
	for _, c := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
		want error
	}{
		{"before-start", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel
		}, context.Canceled},
		{"mid-spill", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 500*time.Microsecond)
		}, context.DeadlineExceeded},
	} {
		t.Run(c.name, func(t *testing.T) {
			opt := extTestOpt(t)
			keys := gen.Uniform[uint64](n, 0, 2)
			vals := RIDs[uint64](n)
			sumK := append([]uint64(nil), keys...)
			sumV := append([]uint64(nil), vals...)
			base := fault.TakeBaseline()
			ctx, cancel := c.ctx()
			_, err := SortExternalCtx(ctx, keys, vals, opt)
			cancel()
			if err == nil && c.want == context.DeadlineExceeded {
				t.Skip("sort outran the deadline")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			if !SameMultiset(keys, vals, sumK, sumV) {
				t.Fatal("input not a permutation after cancellation")
			}
			base.Verify(t, nil, opt.TempDir)
		})
	}
}

// TestSortExternalArgErrors checks the validation surface.
func TestSortExternalArgErrors(t *testing.T) {
	keys := []uint64{1, 2}
	var ae *ArgError
	if _, err := SortExternal(keys, []uint64{1}, nil); !errors.As(err, &ae) || ae.Field != "vals" {
		t.Fatalf("mismatched vals: %v", err)
	}
	bad := []SortOptions{
		{MaxAuxBytes: -1},
		{MaxSpillBytes: -5},
	}
	for _, opt := range bad {
		opt := opt
		if _, err := SortExternal(keys, []uint64{1, 2}, &opt); !errors.As(err, &ae) {
			t.Fatalf("opt %+v: err = %v, want *ArgError", opt, err)
		}
	}
}

// TestSortExternalSpillBudget checks disk-budget refusal: *SpillError
// unwrapping ErrSpillBudget, input intact, nothing leaked.
func TestSortExternalSpillBudget(t *testing.T) {
	n := 1 << 15
	opt := extTestOpt(t)
	opt.MaxSpillBytes = 8 << 10
	keys := gen.Uniform[uint64](n, 0, 3)
	vals := RIDs[uint64](n)
	sumK := append([]uint64(nil), keys...)
	sumV := append([]uint64(nil), vals...)
	base := fault.TakeBaseline()
	_, err := SortExternal(keys, vals, opt)
	var se *SpillError
	if !errors.As(err, &se) || !errors.Is(err, ErrSpillBudget) {
		t.Fatalf("err = %v, want *SpillError wrapping ErrSpillBudget", err)
	}
	if !SameMultiset(keys, vals, sumK, sumV) {
		t.Fatal("input changed on budget refusal")
	}
	base.Verify(t, nil, opt.TempDir)
}

// TestSortExternalFaultInjection checks that injected faults in the spill
// writers and in the in-place sort of an overflowing bucket surface as
// *InternalError wrapping fault.Injected, with the input a permutation
// and nothing left behind: no goroutine, descriptor, temp resource or
// spill file. Under extTestOpt's plan every bucket (~2048 tuples)
// overflows its segment, so the msb/recurse fault strikes the in-place
// sort after it has written its output range.
func TestSortExternalFaultInjection(t *testing.T) {
	defer fault.Disable()
	n := 1 << 15
	opt := extTestOpt(t)
	if plan := tune.PlanSpill(n, 64, opt.MaxAuxBytes, opt.Threads); n>>plan.BucketBits <= plan.SegmentTuples {
		t.Fatalf("plan %+v: expected buckets of %d tuples fit a segment; the msb/recurse row needs them to overflow",
			plan, n>>plan.BucketBits)
	}
	for _, c := range []struct {
		site  fault.Site
		after int
	}{
		{fault.SiteExtSpill, 10},
		{fault.SiteMSBRecurse, 0},
	} {
		t.Run(string(c.site), func(t *testing.T) {
			opt := extTestOpt(t)
			keys := gen.Uniform[uint64](n, 0, 4)
			vals := RIDs[uint64](n)
			sumK := append([]uint64(nil), keys...)
			sumV := append([]uint64(nil), vals...)
			base := fault.TakeBaseline()
			fault.Enable(c.site, c.after)
			_, err := SortExternal(keys, vals, opt)
			fault.Disable()
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, want *InternalError", err)
			}
			if !errors.Is(err, fault.Injected{Site: c.site}) {
				t.Fatalf("err does not wrap the injected site: %v", err)
			}
			if !SameMultiset(keys, vals, sumK, sumV) {
				t.Fatal("input not a permutation after containment")
			}
			base.Verify(t, nil, opt.TempDir)
		})
	}
}

// TestSortExternalWorkspace runs repeated spills through one workspace
// and checks steady state allocates nothing from the OS pools.
func TestSortExternalWorkspace(t *testing.T) {
	w := NewWorkspace()
	defer w.Close()
	opt := extTestOpt(t)
	opt.Workspace = w
	n := 1 << 15
	keys := gen.Uniform[uint64](n, 0, 5)
	vals := RIDs[uint64](n)
	if _, err := SortExternal(keys, vals, opt); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	for i := 0; i < 3; i++ {
		rand.New(rand.NewSource(int64(i))).Shuffle(n, func(a, b int) {
			keys[a], keys[b] = keys[b], keys[a]
			vals[a], vals[b] = vals[b], vals[a]
		})
		st, err := SortExternal(keys, vals, opt)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !st.Spilled || !IsSorted(keys) {
			t.Fatalf("run %d: spilled=%v sorted=%v", i, st.Spilled, IsSorted(keys))
		}
	}
}

// TestSortExternalBudgetBelowPlannerFloor pins that both paths agree when
// MaxAuxBytes is below PlanSpill's floor: with or
// without a workspace the sort runs at the planned footprint and spills,
// instead of the workspace ledger refusing the planner's own buffers.
func TestSortExternalBudgetBelowPlannerFloor(t *testing.T) {
	for _, n := range []int{1 << 14, 1 << 15, 1 << 16, 1 << 17} {
		budget := int64(n) * 16 / 16 // a sixteenth of the pairs' bytes
		if floor := PlanSpill(n, 64, budget).MemBytes; floor <= budget {
			t.Fatalf("n=%d: budget %d is not below the planner's floor %d", n, budget, floor)
		}
		for _, withWS := range []bool{false, true} {
			opt := &SortOptions{TempDir: t.TempDir(), MaxAuxBytes: budget}
			if withWS {
				opt.Workspace = NewWorkspace()
			}
			keys := gen.Uniform[uint64](n, 0, uint64(n))
			vals := RIDs[uint64](n)
			sumK := append([]uint64(nil), keys...)
			sumV := append([]uint64(nil), vals...)

			base := fault.TakeBaseline()
			st, err := SortExternal(keys, vals, opt)
			if err != nil {
				t.Fatalf("n=%d workspace=%v: %v", n, withWS, err)
			}
			if !st.Spilled || !IsSorted(keys) || !SameMultiset(keys, vals, sumK, sumV) {
				t.Fatalf("n=%d workspace=%v: spilled=%v sorted=%v", n, withWS, st.Spilled, IsSorted(keys))
			}
			if err := base.Check(opt.Workspace, opt.TempDir); err != nil {
				t.Fatalf("n=%d workspace=%v: %v", n, withWS, err)
			}
			opt.Workspace.Close()
		}
	}
}

// TestPlanSpill checks the planner's decision boundary and that the
// planned footprint respects the budget it was given.
func TestPlanSpill(t *testing.T) {
	budget := int64(1 << 20)
	small := PlanSpill(1<<10, 64, budget)
	if small.Spill {
		t.Fatalf("1K tuples should fit a 1 MiB budget: %+v", small)
	}
	big := PlanSpill(1<<24, 64, budget)
	if !big.Spill {
		t.Fatalf("16M tuples must spill under a 1 MiB budget: %+v", big)
	}
	if big.MemBytes > budget+budget/2 {
		t.Fatalf("planned footprint %d far exceeds budget %d", big.MemBytes, budget)
	}
	if big.SegmentTuples < 1 || big.OverflowThreads < 1 || big.BucketBits < 1 {
		t.Fatalf("degenerate plan: %+v", big)
	}
}

// TestSpillPlanCoversMeasuredPeak sorts uniform and Zipf θ = 1 pairs
// through SortExternal on 1, 2 and 4 threads, each on a fresh workspace,
// under a budget of an eighth of the pairs' bytes, and requires the
// workspace's measured peak of checked-out bytes to stay within the plan's
// MemBytes, and MemBytes within the budget. The Zipf rows send the hot
// buckets down the overflow path (the in-place sort on the plan's
// OverflowThreads, after the staging buffer went back); the uniform rows
// deliver every bucket in one piece. The 2^23
// rows run only in full-length builds without the race detector. One
// more 2^20 row, uniform on 8 threads under a budget of the pairs' whole
// 16 MiB, has its peak set by delivery: the 8 workers' bucket buffers
// alone hold half of it, so a plan that under-prices delivery fails
// there in short and race builds too. The small Zipf rows run under a
// tight budget: on one thread (2^14 pairs under their 256 KiB, 2^16 under
// half their bytes) they fit it only with the overflow sort's cache
// bound, and its local passes' blocks, below the default, and check that
// a bucket overflowed and that the plan shrank the bound; 2^16 pairs on
// two threads fit two overflow workers at the default bound. The "hot"
// row puts 7/8 of 2^14 keys below 2^10 and the rest below 2^20, so one
// bucket holds about 90% of the input: at the default cache bound its
// in-cache buffer pair alone would be the whole 256 KiB budget.
func TestSpillPlanCoversMeasuredPeak(t *testing.T) {
	type row struct {
		n         int
		budgetDiv int64 // the budget is the pairs' bytes over budgetDiv
		dist      string
		threads   int
		shrunk    bool // the overflow sort runs below the default cache bound
	}
	var rows []row
	sizes := []int{1 << 20, 1 << 23}
	if testing.Short() || raceBuild {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for _, dist := range []string{"uniform", "zipf"} {
			for _, threads := range []int{1, 2, 4} {
				rows = append(rows, row{n, 8, dist, threads, false})
			}
		}
	}
	rows = append(rows, row{1 << 20, 1, "uniform", 8, false},
		row{1 << 14, 1, "zipf", 1, true}, row{1 << 14, 1, "hot", 1, true}, row{1 << 16, 2, "zipf", 1, true}, row{1 << 16, 2, "zipf", 2, false})
	for _, r := range rows {
		n, dist, threads := r.n, r.dist, r.threads
		budget := int64(n) * 16 / r.budgetDiv
		plan := tune.PlanSpill(n, 64, budget, threads)
		if plan.MemBytes > budget {
			t.Fatalf("n=%d T=%d: MemBytes %d over the budget %d", n, threads, plan.MemBytes, budget)
		}
		keys := gen.Uniform[uint64](n, 0, 21)
		switch dist {
		case "zipf":
			keys = gen.ZipfKeys[uint64](n, 1<<20, 1.0, 22)
		case "hot":
			keys = gen.Uniform[uint64](n, 1<<10, 23)
			for i, k := range gen.Uniform[uint64](n/8, 1<<20, 24) {
				keys[8*i] = k
			}
		}
		vals := RIDs[uint64](n)
		want := kv.ChecksumPairs(keys, vals)
		w := NewWorkspace()
		st, err := SortExternal(keys, vals, &SortOptions{Threads: threads, Workspace: w, MaxAuxBytes: budget, TempDir: t.TempDir()})
		peak := int64(w.internal().PeakAuxBytes())
		w.Close()
		if err != nil {
			t.Fatalf("n=%d %s T=%d: %v", n, dist, threads, err)
		}
		if !st.Spilled || !IsSorted(keys) || kv.ChecksumPairs(keys, vals) != want {
			t.Fatalf("n=%d %s T=%d: spilled=%v sorted=%v", n, dist, threads, st.Spilled, IsSorted(keys))
		}
		if peak > plan.MemBytes {
			t.Fatalf("n=%d %s T=%d: measured peak %d B over the plan's MemBytes %d B", n, dist, threads, peak, plan.MemBytes)
		}
		if r.shrunk && (st.ReadBytes <= st.FormationBytes || plan.OverflowCacheTuples >= memmodel.WorkerCacheBytes/16) {
			t.Fatalf("n=%d %s T=%d: read %d B of %d, overflow cache bound %d: want an overflow below the default bound",
				n, dist, threads, st.ReadBytes, st.FormationBytes, plan.OverflowCacheTuples)
		}
		t.Logf("n=%d %s T=%d: peak %d B, MemBytes %d B, budget %d B, overflow T %d cache %d, read %d B of %d", n, dist, threads, peak, plan.MemBytes, budget, plan.OverflowThreads, plan.OverflowCacheTuples, st.ReadBytes, st.FormationBytes)
	}
}
