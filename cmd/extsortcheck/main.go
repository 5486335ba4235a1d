// Command extsortcheck drives the external (disk-spilling) sort end to
// end and is the CI gate behind verify.sh's extsort smoke lane: exit 0
// means a forced spill on an input several times the memory budget
// produced a sorted permutation of the input, run formation wrote exactly
// one streaming copy, every temp file was removed, no file descriptors or
// goroutines leaked, and an injected fault in each extsort site was
// contained with the spill directory cleaned behind it. It also prints the
// merge pipeline's prefetch-effectiveness (OverlapRatio) so the lane's
// benchjson gate has an eyeball companion.
//
// Examples:
//
//	extsortcheck                      # defaults: 1<<18 tuples, os temp
//	extsortcheck -n 1000000 -v        # bigger input, per-lane progress
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

func main() {
	n := flag.Int("n", 1<<18, "tuples per lane")
	tmpRoot := flag.String("tmpdir", "", "parent for the spill directory (empty: os.TempDir)")
	threads := flag.Int("threads", 2, "worker threads")
	verbose := flag.Bool("v", false, "print one line per lane")
	flag.Parse()
	defer fault.Disable()

	spillDir, err := os.MkdirTemp(*tmpRoot, "extsortcheck-")
	if err != nil {
		fail("spill dir: %v", err)
	}
	defer os.RemoveAll(spillDir)

	// Forced-spill shape: segments far below n so the run must leave RAM,
	// a real formation fanout, and merges deep enough to exercise the
	// pipeline. SpillSegmentTuples 1<<12 over n = 1<<18 gives 64+
	// segments through a 4-way merge.
	opt := func() *partsort.SortOptions {
		return &partsort.SortOptions{
			Threads:            *threads,
			TempDir:            spillDir,
			SpillSegmentTuples: 1 << 12,
			SpillBucketBits:    3,
			SpillMergeWidth:    4,
		}
	}

	keys := gen.Uniform[uint32](*n, 0, 42)
	vals := make([]uint32, *n)
	for i := range vals {
		vals[i] = keys[i] ^ 0x5bd1e995
	}
	work := make([]uint32, *n)
	workV := make([]uint32, *n)

	baseGoroutines := runtime.NumGoroutine()

	// Lane 1: forced-spill correctness plus the single-streaming-pass and
	// cleanup witnesses.
	copy(work, keys)
	copy(workV, vals)
	start := time.Now()
	st, err := partsort.SortExternal(work, workV, opt())
	if err != nil {
		fail("correctness: %v", err)
	}
	if !st.Spilled {
		fail("correctness: input of %d tuples at segment 4096 did not spill", *n)
	}
	for i := 1; i < len(work); i++ {
		if work[i-1] > work[i] {
			fail("correctness: keys[%d]=%d > keys[%d]=%d", i-1, work[i-1], i, work[i])
		}
	}
	if !partsort.SameMultiset(keys, vals, work, workV) {
		fail("correctness: output is not a permutation of the input")
	}
	for i, k := range work {
		if workV[i] != k^0x5bd1e995 {
			fail("correctness: value at %d detached from its key", i)
		}
	}
	if wantB := int64(*n) * 8; st.FormationBytes != wantB {
		fail("formation wrote %d bytes, want exactly one streaming pass = %d", st.FormationBytes, wantB)
	}
	assertClean(spillDir, "correctness")
	if *verbose {
		fmt.Printf("extsortcheck: correctness      %d tuples in %v, %d runs, %d merge rounds, overlap %.2f\n",
			*n, time.Since(start).Round(time.Millisecond), st.RunsWritten, st.MergeRounds, st.OverlapRatio())
	}
	overlap := st.OverlapRatio()

	// The fd baseline is taken after the first lane: the runtime's
	// netpoller (epoll + eventfd) is created lazily on first file I/O and
	// those two descriptors live for the rest of the process.
	baseFDs := countFDs()

	// Lane 2: cancellation — a deadline expiring mid-spill must unwind to
	// a permutation with the temp files gone.
	copy(work, keys)
	copy(workV, vals)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	_, err = partsort.SortExternalCtx(ctx, work, workV, opt())
	cancel()
	if err == nil {
		fmt.Println("extsortcheck: sort outran the 1ms deadline; cancellation lane skipped")
	} else {
		if !errors.Is(err, context.DeadlineExceeded) {
			fail("cancellation: err = %v, want context.DeadlineExceeded", err)
		}
		if !partsort.SameMultiset(keys, vals, work, workV) {
			fail("cancellation: input not restored to a permutation")
		}
		assertClean(spillDir, "cancellation")
		if *verbose {
			fmt.Println("extsortcheck: cancellation     unwound to a permutation, spill dir clean")
		}
	}

	// Lane 3: fault containment — an injected crash in each extsort site
	// must surface as *InternalError, leave a permutation, drain the
	// resource ledger, and remove every temp file.
	for _, site := range []fault.Site{fault.SiteExtSpill, fault.SiteExtMerge} {
		copy(work, keys)
		copy(workV, vals)
		fault.Enable(site, 0)
		_, err = partsort.SortExternal(work, workV, opt())
		fired := fault.Fired()
		fault.Disable()
		if !fired {
			fail("fault %s: site never reached", site)
		}
		var ie *partsort.InternalError
		if !errors.As(err, &ie) {
			fail("fault %s: err = %v (%T), want *partsort.InternalError", site, err, err)
		}
		if !partsort.SameMultiset(keys, vals, work, workV) {
			fail("fault %s: input not restored to a permutation", site)
		}
		if err := fault.CheckResources(); err != nil {
			fail("fault %s: resource ledger not drained: %v", site, err)
		}
		assertClean(spillDir, "fault "+string(site))
		if *verbose {
			fmt.Printf("extsortcheck: fault %-12s contained, spill dir clean\n", site)
		}
	}

	// Lane 4: process hygiene — after every lane, the fd table and
	// goroutine count are back at baseline.
	if fds := countFDs(); baseFDs > 0 && fds > baseFDs {
		fail("fd leak: %d open, baseline %d", fds, baseFDs)
	}
	waitGoroutines(baseGoroutines)

	fmt.Printf("extsortcheck: all lanes ok (n=%d, overlap %.2f)\n", *n, overlap)
}

// assertClean fails unless the spill directory is empty.
func assertClean(dir, lane string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		fail("%s: read spill dir: %v", lane, err)
	}
	if len(ents) != 0 {
		fail("%s: spill dir not cleaned: %d entries remain", lane, len(ents))
	}
}

// countFDs returns the open file-descriptor count via /proc, or 0 when
// the platform has no procfs (the check is then skipped).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

// waitGoroutines waits briefly for exited workers to be reaped before
// declaring a leak.
func waitGoroutines(base int) {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			fail("goroutine leak: %d live, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "extsortcheck: "+format+"\n", args...)
	os.Exit(1)
}
