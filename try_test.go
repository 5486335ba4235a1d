package partsort

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
)

// once is the single-attempt policy: SortResilientCtx under it makes one
// hardened sort attempt, with no retry, fallback, or backoff.
var once = &RetryPolicy{MaxAttempts: 1}

// trySort is one hardened attempt without a deadline.
func trySort[K Key](algo Algorithm, keys, vals []K, opt *SortOptions) error {
	return SortResilientCtx(context.Background(), algo, keys, vals, opt, once)
}

type tryAlgo struct {
	name string
	algo Algorithm
}

// run is one hardened attempt of the algorithm under ctx.
func (a tryAlgo) run(ctx context.Context, keys, vals []uint32, opt *SortOptions) error {
	return SortResilientCtx(ctx, a.algo, keys, vals, opt, once)
}

var tryAlgos = []tryAlgo{{"lsb", LSB}, {"msb", MSB}, {"cmp", CMP}}

func TestTrySortSucceeds(t *testing.T) {
	n := 1 << 15
	keys := gen.Uniform[uint32](n, 0, 1)
	vals := RIDs[uint32](n)
	for _, a := range tryAlgos {
		for _, threads := range []int{1, 4} {
			k := append([]uint32(nil), keys...)
			v := append([]uint32(nil), vals...)
			if err := a.run(context.Background(), k, v, &SortOptions{Threads: threads}); err != nil {
				t.Fatalf("%s threads=%d: %v", a.name, threads, err)
			}
			if !IsSorted(k) {
				t.Fatalf("%s threads=%d: not sorted", a.name, threads)
			}
			if !SameMultiset(keys, vals, k, v) {
				t.Fatalf("%s threads=%d: multiset changed", a.name, threads)
			}
		}
	}
}

func TestTryArgErrors(t *testing.T) {
	keys := make([]uint32, 8)
	vals := make([]uint32, 8)
	short := make([]uint32, 7)
	cases := []struct {
		name  string
		field string
		err   error
	}{
		{"pair", "vals", trySort(LSB, keys, short, nil)},
		{"threads", "Threads", trySort(MSB, keys, vals, &SortOptions{Threads: -1})},
		{"regions", "Regions", trySort(CMP, keys, vals, &SortOptions{Regions: -2})},
		{"radix-high", "RadixBits", trySort(LSB, keys, vals, &SortOptions{RadixBits: 17})},
		{"radix-neg", "RadixBits", trySort(LSB, keys, vals, &SortOptions{RadixBits: -3})},
		{"fanout", "RangeFanout", trySort(CMP, keys, vals, &SortOptions{RangeFanout: -1})},
		{"cache", "CacheTuples", trySort(MSB, keys, vals, &SortOptions{CacheTuples: -1})},
	}
	for _, c := range cases {
		var ae *ArgError
		if !errors.As(c.err, &ae) {
			t.Fatalf("%s: got %v, want *ArgError", c.name, c.err)
		}
		if ae.Field != c.field {
			t.Fatalf("%s: field %q, want %q", c.name, ae.Field, c.field)
		}
	}
	// Valid options (including the RadixBits extremes) must not error.
	for _, opt := range []*SortOptions{nil, {}, {RadixBits: 1}, {RadixBits: 16}} {
		k := gen.Uniform[uint32](1<<10, 0, 2)
		v := RIDs[uint32](len(k))
		if err := trySort(LSB, k, v, opt); err != nil {
			t.Fatalf("valid options %+v: %v", opt, err)
		}
		if !IsSorted(k) {
			t.Fatalf("valid options %+v: not sorted", opt)
		}
	}
}

// TestLegacyPanicsTyped pins the panicking wrappers to the hardened
// attempt: an argument problem panics with the typed *ArgError, and a
// worker fault with the *InternalError wrapping it — never a raw
// internal value — leaving keys/vals a permutation of the input.
func TestLegacyPanicsTyped(t *testing.T) {
	catch := func(f func()) (e any) {
		defer func() { e = recover() }()
		f()
		return nil
	}
	e := catch(func() { SortLSB(make([]uint32, 4), make([]uint32, 4), &SortOptions{RadixBits: 99}) })
	if ae, ok := e.(*ArgError); !ok || ae.Field != "RadixBits" {
		t.Fatalf("legacy panic value %v (%T), want *ArgError on RadixBits", e, e)
	}

	defer fault.Disable()
	n := 1 << 15
	keys := gen.Uniform[uint32](n, 0, 41)
	vals := RIDs[uint32](n)
	for _, threads := range []int{1, 4} {
		k := append([]uint32(nil), keys...)
		v := append([]uint32(nil), vals...)
		fault.Enable(fault.SiteLSBPass, 0)
		e := catch(func() { SortLSB(k, v, &SortOptions{Threads: threads}) })
		fault.Disable()
		ie, ok := e.(*InternalError)
		if !ok {
			t.Fatalf("threads=%d: panic value %v (%T), want *InternalError", threads, e, e)
		}
		if !errors.Is(ie, fault.Injected{Site: fault.SiteLSBPass}) {
			t.Fatalf("threads=%d: InternalError does not wrap the injected fault: %v", threads, ie.Value)
		}
		if !SameMultiset(keys, vals, k, v) {
			t.Fatalf("threads=%d: keys/vals are not a permutation of the input", threads)
		}
	}
}

// faultCase is one (algorithm, site, options) cell of the injection
// matrix: every registered site of every sort, on the configuration that
// reaches it.
type faultCase struct {
	algo    string
	site    fault.Site
	threads int
	regions int
	cache   int // CacheTuples override; CMP and LSB need it so 1<<15 tuples exceed the cache-resident path, which LSB runs on one worker
}

var faultMatrix = []faultCase{
	{"lsb", fault.SiteLSBPass, 4, 1, 1 << 12},
	{"lsb", fault.SiteWorkerStart, 4, 1, 1 << 12},
	{"lsb", fault.SiteLSBPass, 4, 2, 1 << 12},
	{"lsb", fault.SiteShuffleStart, 4, 2, 1 << 12},
	{"msb", fault.SiteMSBRecurse, 4, 1, 0},
	{"msb", fault.SiteWorkerStart, 4, 1, 0},
	{"msb", fault.SiteBlockPermute, 4, 1, 0},
	{"msb", fault.SiteBlockCleanup, 4, 1, 0},
	{"msb", fault.SiteBlockPermute, 4, 2, 0},
	{"msb", fault.SiteBlockCleanup, 4, 2, 0},
	{"cmp", fault.SiteCMPPass, 4, 1, 1 << 12},
	{"cmp", fault.SiteWorkerStart, 4, 1, 1 << 12},
	{"cmp", fault.SiteBlockPermute, 4, 1, 1 << 12},
	{"cmp", fault.SiteBlockCleanup, 4, 1, 1 << 12},
	{"cmp", fault.SiteCMPPass, 4, 2, 1 << 12},
	{"cmp", fault.SiteShuffleStart, 4, 2, 1 << 12},
	{"ext", fault.SiteExtSpill, 4, 1, 0},
	{"ext", fault.SiteMSBRecurse, 4, 1, 0},
}

// runFaultCase runs one matrix cell's sort on k/v. The "ext" cells run
// SortExternalCtx in a forced-spill shape — segments far below n so the
// run leaves RAM, and a real bucket fanout whose buckets (~4096 tuples)
// each overflow their 2048-tuple segment, so an msb/recurse fault strikes
// the in-place overflow sort after it has written its output range —
// spilling into spillDir.
func runFaultCase(c faultCase, k, v []uint32, w *Workspace, spillDir string) error {
	opt := &SortOptions{Threads: c.threads, Regions: c.regions, CacheTuples: c.cache, Workspace: w}
	if c.algo != "ext" {
		return algoByName(c.algo).run(context.Background(), k, v, opt)
	}
	opt.TempDir = spillDir
	opt.SpillSegmentTuples = 1 << 11
	opt.SpillBucketBits = 3
	_, err := SortExternalCtx(context.Background(), k, v, opt)
	return err
}

func algoByName(name string) tryAlgo {
	for _, a := range tryAlgos {
		if a.name == name {
			return a
		}
	}
	panic("unknown algo " + name)
}

// TestTryFaultMatrix arms every registered injection site against every
// sort that declares it and proves the hardened-execution contract: the
// panic comes back as *InternalError wrapping the injected value (never a
// crash), no goroutine leaks, no temp resource outlives its sort, the
// external sort's spill directory is left empty, and keys/vals are left a
// permutation of the input. Every registered site must have a cell.
func TestTryFaultMatrix(t *testing.T) {
	defer fault.Disable()
	n := 1 << 15
	keys := gen.Uniform[uint32](n, 0, 3)
	vals := RIDs[uint32](n)
	spillDir := t.TempDir()

	covered := map[fault.Site]bool{}
	for _, c := range faultMatrix {
		covered[c.site] = true
	}
	for _, s := range fault.Sites() {
		if !covered[s] {
			t.Fatalf("site %s has no matrix cell", s)
		}
	}

	for _, withWS := range []bool{false, true} {
		var w *Workspace
		if withWS {
			w = NewWorkspace()
			defer w.Close()
			// Prime the persistent pool so its parked workers are part of
			// the goroutine baseline, not mistaken for a leak.
			k := append([]uint32(nil), keys...)
			v := append([]uint32(nil), vals...)
			if err := trySort(LSB, k, v, &SortOptions{Threads: 4, Workspace: w}); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range faultMatrix {
			for _, after := range []int{0, 3} {
				name := c.algo + "/" + string(c.site)
				k := append([]uint32(nil), keys...)
				v := append([]uint32(nil), vals...)
				base := fault.TakeBaseline()
				fault.Enable(c.site, after)
				err := runFaultCase(c, k, v, w, spillDir)
				fired := fault.Fired()
				fault.Disable()
				if fired {
					var ie *InternalError
					if !errors.As(err, &ie) {
						t.Fatalf("%s ws=%v after=%d: fault fired but err = %v (%T), want *InternalError",
							name, withWS, after, err, err)
					}
					if !errors.Is(err, fault.Injected{Site: c.site}) {
						t.Fatalf("%s ws=%v after=%d: InternalError does not wrap the injected fault: %v",
							name, withWS, after, ie.Value)
					}
					if len(ie.Stack) == 0 {
						t.Fatalf("%s ws=%v after=%d: no stack captured", name, withWS, after)
					}
				} else if after == 0 {
					t.Fatalf("%s ws=%v: site never reached at after=0 (matrix is stale)", name, withWS)
				} else if err != nil {
					t.Fatalf("%s ws=%v after=%d: fault did not fire but err = %v", name, withWS, after, err)
				} else if !IsSorted(k) {
					t.Fatalf("%s ws=%v after=%d: clean run not sorted", name, withWS, after)
				}
				if !SameMultiset(keys, vals, k, v) {
					t.Fatalf("%s ws=%v after=%d fired=%v: keys/vals are not a permutation of the input",
						name, withWS, after, fired)
				}
				if err := base.Check(w, spillDir); err != nil {
					t.Fatalf("%s ws=%v after=%d: %v", name, withWS, after, err)
				}
			}
		}
	}
}

// inCacheBucketKeys returns n 32-bit keys whose top four of 30 bits take
// 16 values over a low part below 2^15. One-thread MSB on n ≤ its cache
// bound (32768 32-bit tuples) runs the in-cache branch from the top: the
// first digit's 16 parts, and at n = 8192 each one's 8 parts too, are
// larger than the insertion cutoff, so they are copied back verbatim and
// recursed into.
func inCacheBucketKeys(n int) []uint32 {
	r := gen.NewRNG(11)
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(r.Uint64n(16))<<26 | uint32(r.Uint64n(1<<15))
	}
	return keys
}

// TestTryFaultMSBLocalPass arms the block-permutation sites inside the
// out-of-cache local passes of MSB and CMP: one thread with a 1024-tuple
// cache bound sends 2^18 keys into msbRecurse or cmpRecurse, whose passes
// are single-worker block permutations large enough to reach the permute
// phase. MSB's first pass is already local; CMP's rows (RangeFanout 16)
// count past every hit of the top-level pass (256 blocks, one cleanup),
// so they fire only inside the recursion. The MSB recursion rows sort
// 8192 inCacheBucketKeys under the default cache bound, so the fault
// fires in a recursive call made by the in-cache branch, after its
// scatter and copy-back. Each arming must fire and come back as
// *InternalError with the input left a permutation and nothing left
// behind.
func TestTryFaultMSBLocalPass(t *testing.T) {
	defer fault.Disable()
	n := 1 << 18
	uniform := gen.Uniform[uint32](n, 0, 7)
	inCache := inCacheBucketKeys(1 << 13)
	for _, c := range []struct {
		algo  Algorithm
		opt   SortOptions
		site  fault.Site
		after []int
		keys  []uint32
	}{
		{MSB, SortOptions{CacheTuples: 1 << 10}, fault.SiteBlockPermute, []int{0, 3, 40}, uniform},
		{MSB, SortOptions{CacheTuples: 1 << 10}, fault.SiteBlockCleanup, []int{0, 3, 40}, uniform},
		{MSB, SortOptions{}, fault.SiteMSBRecurse, []int{1, 3, 10}, inCache},
		{CMP, SortOptions{CacheTuples: 1 << 10, RangeFanout: 16}, fault.SiteBlockPermute, []int{300, 600, 900}, uniform},
		{CMP, SortOptions{CacheTuples: 1 << 10, RangeFanout: 16}, fault.SiteBlockCleanup, []int{1, 8, 15}, uniform},
	} {
		vals := RIDs[uint32](len(c.keys))
		for _, withWS := range []bool{false, true} {
			var w *Workspace
			if withWS {
				w = NewWorkspace()
			}
			for _, after := range c.after {
				name := fmt.Sprintf("%v %s ws=%v after=%d", c.algo, c.site, withWS, after)
				k := append([]uint32(nil), c.keys...)
				v := append([]uint32(nil), vals...)
				opt := c.opt
				opt.Threads, opt.Workspace = 1, w
				base := fault.TakeBaseline()
				fault.Enable(c.site, after)
				err := trySort(c.algo, k, v, &opt)
				fired := fault.Fired()
				fault.Disable()
				if !fired {
					t.Fatalf("%s: site never reached", name)
				}
				var ie *InternalError
				if !errors.As(err, &ie) || !errors.Is(err, fault.Injected{Site: c.site}) {
					t.Fatalf("%s: err = %v (%T), want *InternalError wrapping the fault", name, err, err)
				}
				if !SameMultiset(c.keys, vals, k, v) {
					t.Fatalf("%s: keys/vals are not a permutation of the input", name)
				}
				if err := base.Check(w, ""); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			w.Close()
		}
	}
}

// TestTryPartitionFault covers TryPartitionCtx: an injected worker panic
// surfaces as *InternalError and src is untouched.
func TestTryPartitionFault(t *testing.T) {
	defer fault.Disable()
	n := 1 << 14
	src := gen.Uniform[uint32](n, 0, 9)
	srcV := RIDs[uint32](n)
	origK := append([]uint32(nil), src...)
	origV := append([]uint32(nil), srcV...)
	dst := make([]uint32, n)
	dstV := make([]uint32, n)
	fn := Radix[uint32](0, 8)

	hist, err := TryPartitionCtx(context.Background(), src, srcV, dst, dstV, fn, 4)
	if err != nil || len(hist) != 256 {
		t.Fatalf("clean run: hist %d err %v", len(hist), err)
	}
	if !SameMultiset(origK, origV, dst, dstV) {
		t.Fatal("clean run: multiset changed")
	}

	base := fault.TakeBaseline()
	fault.Enable(fault.SiteWorkerStart, 0)
	hist, err = TryPartitionCtx(context.Background(), src, srcV, dst, dstV, fn, 4)
	fired := fault.Fired()
	fault.Disable()
	if !fired {
		t.Fatal("worker/start never reached")
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if hist != nil {
		t.Fatal("histogram returned alongside an error")
	}
	for i := range src {
		if src[i] != origK[i] || srcV[i] != origV[i] {
			t.Fatal("src mutated by a failed partition")
		}
	}
	base.Verify(t, nil, "")

	if _, err := TryPartitionCtx(context.Background(), src, srcV, dst[:n-1], dstV[:n-1], fn, 4); err == nil {
		t.Fatal("short dst accepted")
	}
	if _, err := TryPartitionCtx(context.Background(), src, srcV, dst, dstV, fn, -1); err == nil {
		t.Fatal("negative threads accepted")
	}
}

// TestTryCancelRace cancels sorts mid-flight, many times, with scattered
// timing: the sort must return promptly with ctx.Err() (or finish clean),
// leave keys/vals a permutation, and leak no goroutines. The rotation
// runs every algorithm on one region and 4 threads, then LSB and CMP on
// two, where cancellation can land in the NUMA-aware first pass's
// shuffle and its restore from tmp, and last one-thread MSB on
// inCacheBucketKeys, where it lands between the in-cache branch's
// recursive calls.
func TestTryCancelRace(t *testing.T) {
	perCell := 200 // cancellation delays per cell
	if testing.Short() {
		perCell = 20
	}
	w := NewWorkspace()
	defer w.Close()
	n := 1 << 15
	keys := gen.Uniform[uint32](n, 0, 7)
	vals := RIDs[uint32](n)
	work := make([]uint32, n)
	workV := make([]uint32, n)

	type cell struct {
		a       tryAlgo
		regions int
		cache   int           // CacheTuples; CMP and LSB need it so 1<<15 tuples leave the cache-resident path, which LSB runs on one worker
		threads int           // 0: 4 workers
		keys    []uint32      // nil: the uniform input
		span    time.Duration // cancellation delays spread over [0, span)
	}
	var cells []cell
	for _, a := range tryAlgos {
		c := cell{a: a, regions: 1}
		if a.name == "lsb" {
			c.cache = 1 << 12
		}
		cells = append(cells, c)
	}
	cells = append(cells, cell{a: algoByName("lsb"), regions: 2, cache: 1 << 12}, cell{a: algoByName("cmp"), regions: 2, cache: 1 << 12})
	// One-thread MSB sorting wholly in its in-cache branch, whose parts
	// above the insertion cutoff are copied back and recursed into.
	cells = append(cells, cell{a: algoByName("msb"), regions: 1, threads: 1, keys: inCacheBucketKeys(n)})
	opt := func(c cell) *SortOptions {
		threads := c.threads
		if threads == 0 {
			threads = 4
		}
		return &SortOptions{Threads: threads, Regions: c.regions, CacheTuples: c.cache, Workspace: w}
	}
	input := func(c cell) []uint32 {
		if c.keys != nil {
			return c.keys
		}
		return keys
	}

	// Prime the pool for a stable goroutine baseline, and time one clean
	// run per cell: its cancellations are spread over 1.25x that run (at
	// least 800µs), so they land in every phase — the 2-region sorts'
	// shuffle sits past the first millisecond — and some after the sort
	// already finished.
	for i := range cells {
		copy(work, input(cells[i]))
		copy(workV, vals)
		start := time.Now()
		if err := cells[i].a.run(context.Background(), work, workV, opt(cells[i])); err != nil {
			t.Fatal(err)
		}
		cells[i].span = max(800*time.Microsecond, time.Since(start)*5/4)
	}
	base := fault.TakeBaseline()

	iters := perCell * len(cells)
	for i := 0; i < iters; i++ {
		c := cells[i%len(cells)]
		a := c.a
		copy(work, input(c))
		copy(workV, vals)
		ctx, cancel := context.WithCancel(context.Background())
		delay := c.span * time.Duration((i/len(cells))%perCell) / time.Duration(perCell)
		go func() {
			if delay > 0 {
				time.Sleep(delay)
			}
			cancel()
		}()
		err := a.run(ctx, work, workV, opt(c))
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iter %d %s regions=%d: err = %v, want nil or context.Canceled", i, a.name, c.regions, err)
		}
		if err == nil && !IsSorted(work) {
			t.Fatalf("iter %d %s regions=%d: clean return but not sorted", i, a.name, c.regions)
		}
		if !SameMultiset(input(c), vals, work, workV) {
			t.Fatalf("iter %d %s regions=%d (err=%v): keys/vals are not a permutation of the input", i, a.name, c.regions, err)
		}
	}
	base.Verify(t, w, "")
}

// TestTryCancelPrompt bounds the cancellation latency: a deadline that
// expires mid-sort must surface well before the sort would finish.
func TestTryCancelPrompt(t *testing.T) {
	n := 1 << 21
	keys := gen.Uniform[uint32](n, 0, 11)
	vals := RIDs[uint32](n)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := SortResilientCtx(ctx, LSB, keys, vals, &SortOptions{Threads: 4}, once)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want nil or context.DeadlineExceeded", err)
	}
	if err == nil {
		t.Skip("sort finished before the deadline; nothing to measure")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v: checkpoints are not being polled", elapsed)
	}
}

// TestTryPreCancelled pins the fast path: an already-cancelled context
// returns before touching the input.
func TestTryPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	keys := gen.Uniform[uint32](1<<12, 0, 5)
	orig := append([]uint32(nil), keys...)
	vals := RIDs[uint32](len(keys))
	for _, a := range tryAlgos {
		if err := a.run(ctx, keys, vals, &SortOptions{Threads: 4}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", a.name, err)
		}
	}
	for i := range keys {
		if keys[i] != orig[i] {
			t.Fatal("pre-cancelled sort touched the input")
		}
	}
}

// FuzzTryOptions is the satellite no-panic fuzzer: whatever the option
// fields, lengths and context state, one hardened attempt (and
// TryPartitionCtx) must return an error or succeed — never panic — and a nil error means a sorted
// permutation.
func FuzzTryOptions(f *testing.F) {
	f.Add(64, 64, 4, 2, 8, 360, 0, uint8(0), false)
	f.Add(100, 99, 1, 1, 0, 0, 0, uint8(1), false)
	f.Add(0, 0, 0, 0, -1, 0, 0, uint8(2), true)
	f.Add(4096, 4096, 16, 4, 16, 7, 33, uint8(3), false)
	f.Add(17, 17, -5, -5, 99, -1, -1, uint8(0), true)
	f.Fuzz(func(t *testing.T, nKeys, nVals, threads, regions, radixBits, rangeFanout, cacheTuples int, algo uint8, cancelled bool) {
		if nKeys < 0 {
			nKeys = -nKeys
		}
		if nVals < 0 {
			nVals = -nVals
		}
		nKeys %= 4097
		nVals %= 4097
		if threads > 16 {
			threads %= 17
		}
		if regions > 8 {
			regions %= 9
		}
		keys := gen.Uniform[uint32](nKeys, 0, uint64(nKeys)+1)
		vals := make([]uint32, nVals)
		origK := append([]uint32(nil), keys...)
		origV := append([]uint32(nil), vals...)
		opt := &SortOptions{
			Threads:     threads,
			Regions:     regions,
			RadixBits:   radixBits,
			RangeFanout: rangeFanout,
			CacheTuples: cacheTuples,
		}
		ctx, cancel := context.WithCancel(context.Background())
		if cancelled {
			cancel()
		} else {
			defer cancel()
		}
		var err error
		switch algo % 4 {
		case 0, 1, 2:
			err = tryAlgos[algo%4].run(ctx, keys, vals, opt)
		case 3:
			dstK := make([]uint32, nKeys)
			dstV := make([]uint32, nVals)
			_, err = TryPartitionCtx(ctx, keys, vals, dstK, dstV, Radix[uint32](0, 6), threads)
		}
		if nKeys != nVals {
			var ae *ArgError
			if !errors.As(err, &ae) {
				t.Fatalf("mismatched lengths %d/%d accepted: err = %v", nKeys, nVals, err)
			}
			return
		}
		if err == nil && algo%4 != 3 {
			if !IsSorted(keys) {
				t.Fatal("nil error but not sorted")
			}
			if !SameMultiset(origK, origV, keys, vals) {
				t.Fatal("nil error but multiset changed")
			}
		}
	})
}
