// The resilient execution supervisor: retry with exponential backoff on
// contained worker failures, then degrade along a fallback chain of ever
// more conservative plans, ending at a guaranteed-progress
// single-threaded in-place sort. Retry-in-place is sound because the
// hardened attempt (sortOnce) restores the columns to a permutation of
// the input before returning any *InternalError — re-sorting a
// permutation yields the same sorted output (stability of
// already-disturbed equal-key runs is the one casualty; callers that need
// stability over availability make one attempt, RetryPolicy{MaxAttempts:
// 1}).

package partsort

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/tune"
)

// retryVerdict is the supervisor's verdict on one failed attempt: give
// up, try again, or degrade to a cheaper plan.
type retryVerdict int

const (
	// retryFatal: re-running cannot fix the error — invalid arguments,
	// context cancellation, deadline expiry, an unknown error type.
	retryFatal retryVerdict = iota
	// retryTransient: a contained worker failure; re-running the same
	// plan (or a more conservative one) may succeed.
	retryTransient
	// retryDegrade: the plan exceeded its auxiliary-memory budget.
	// Repeating it is pointless; the supervisor skips to the in-place
	// stage with a freshly measured budget.
	retryDegrade
)

// classifyError is the supervisor's classifier: *ResourceError degrades,
// *InternalError (a contained worker panic) is transient, and anything
// else — nil, *ArgError, context cancellation and deadline expiry, an
// unknown error — is fatal.
func classifyError(err error) retryVerdict {
	switch err.(type) {
	case *ResourceError:
		return retryDegrade
	case *InternalError:
		return retryTransient
	}
	return retryFatal
}

// RetryStats reports what the supervisor did on one SortResilientCtx run,
// written through RetryPolicy.Stats when non-nil.
type RetryStats struct {
	// Attempts is the total number of sort attempts, including the
	// successful one (1 on a clean first-try success).
	Attempts int
	// Stage is the fallback-chain stage that produced the final outcome:
	// 0 the caller's plan, 1 the conservative sequential plan, 2 the
	// single-threaded in-place sort.
	Stage int
	// Degraded records that memory pressure (a *ResourceError or a
	// shrunken live budget) steered the run onto the in-place stage.
	Degraded bool
	// Backoff is the total time slept between attempts.
	Backoff time.Duration
}

// RetryPolicy configures SortResilientCtx. The zero value (or nil) runs
// the supervisor's one policy: two attempts on each of the three
// fallback stages, with a backoff before each retry that starts at 1 ms
// and doubles.
type RetryPolicy struct {
	// MaxAttempts caps total attempts across all stages (0: no cap
	// beyond the chain's six; negative is invalid). 1 makes one hardened
	// attempt with no retry, fallback, or backoff: the setting for
	// callers that need stability or their exact plan more than
	// availability.
	MaxAttempts int
	// Stats, when non-nil, receives the supervisor's outcome.
	Stats *RetryStats
}

// The fallback chain: the caller's plan, the conservative sequential
// plan, the single-threaded in-place sort, each tried attemptsPerStage
// times.
const (
	retryStages      = 3
	attemptsPerStage = 2
)

// retryBackoff is the sleep before the second attempt; each later sleep
// doubles it. A variable so in-package tests can change it.
var retryBackoff = time.Millisecond

// resilientOp names SortResilientCtx in the errors it returns.
const resilientOp = "SortResilientCtx"

// SortResilientCtx runs the requested sort under the resilient
// supervisor; it is the library's error-returning sort call. Each
// attempt is one hardened run: argument problems come back as
// *ArgError, an over-budget aux acquisition as *ResourceError, a
// contained worker panic as *InternalError, cancellation as ctx.Err()
// (observed at pass boundaries and between chunks of parallel loops),
// and on any of them keys/vals hold a permutation of the input.
// &RetryPolicy{MaxAttempts: 1} makes exactly that one attempt; with a
// warm Workspace a clean first attempt allocates nothing. On a
// contained worker failure (*InternalError) the attempt is retried in
// place — sound because containment restored the columns to a
// permutation — with exponential backoff between attempts; after two
// failures on a stage the supervisor degrades along the fallback chain:
// the caller's plan, then a conservative sequential plan (parallelism,
// NUMA layout, and tuning overrides stripped), then a single-threaded
// in-place MSB radix-sort that needs no auxiliary arrays and always
// makes progress. A *ResourceError skips directly to the in-place
// stage with an auxiliary budget re-measured from the live machine
// (memory pressure that appeared after process start is honoured).
// *ArgError and context cancellation never retry. The final stage's
// in-place sort is unstable; callers that must keep equal-key payload
// order set RetryPolicy{MaxAttempts: 1} and handle the error themselves.
func SortResilientCtx[K Key](ctx context.Context, algo Algorithm, keys, vals []K, opt *SortOptions, pol *RetryPolicy) error {
	if pol != nil && pol.MaxAttempts < 0 {
		return &ArgError{Func: resilientOp, Field: "MaxAttempts", Reason: "must be non-negative"}
	}
	switch algo {
	case LSB, MSB, CMP:
	default:
		return &ArgError{Func: resilientOp, Field: "algo", Reason: "must be LSB, MSB, or CMP"}
	}

	// Stage 0, attempt 1: the caller's own plan, straight through. This
	// is the hot path — no stats, no copies, no closures.
	err := sortOnce(ctx, resilientOp, algo, keys, vals, opt)
	if err == nil {
		if pol != nil && pol.Stats != nil {
			*pol.Stats = RetryStats{Attempts: 1}
		}
		return nil
	}
	return sortResilientSlow(ctx, algo, keys, vals, opt, pol, err)
}

// conservativeOpt derives the stage-1 plan: single-threaded, no NUMA
// layout, no autotuning, every tuning override zeroed back to its
// default — only the caller's workspace, stats sink, seed, and memory
// cap survive.
func conservativeOpt(opt *SortOptions) *SortOptions {
	c := &SortOptions{}
	if opt != nil {
		c.Workspace = opt.Workspace
		c.Stats = opt.Stats
		c.Seed = opt.Seed
		c.MaxAuxBytes = opt.MaxAuxBytes
	}
	c.Threads = 1
	return c
}

// inPlaceOpt derives the stage-2 plan from the stage-1 plan: the
// auxiliary budget is re-measured from the live machine so pressure that
// developed since process start steers acquisition, never raised above
// the caller's own cap.
func inPlaceOpt(opt *SortOptions) *SortOptions {
	c := conservativeOpt(opt)
	live := tune.LiveAuxBudget()
	if c.MaxAuxBytes == 0 || live < c.MaxAuxBytes {
		c.MaxAuxBytes = live
	}
	return c
}

// sortResilientSlow is the supervisor's failure path: classification,
// backoff, fallback. Split out so the happy path stays allocation-free.
func sortResilientSlow[K Key](ctx context.Context, algo Algorithm, keys, vals []K, opt *SortOptions, pol *RetryPolicy, err error) error {
	st := RetryStats{Attempts: 1}
	defer func() {
		if pol != nil && pol.Stats != nil {
			*pol.Stats = st
		}
	}()
	maxTotal := retryStages * attemptsPerStage
	if pol != nil && pol.MaxAttempts > 0 {
		maxTotal = min(maxTotal, pol.MaxAttempts)
	}
	stage, inStage := 0, 1 // attempts consumed in the current stage
	for {
		class := classifyError(err)
		// The cap is checked before any transition: a run that stops here
		// records no fallback or degradation it never attempted.
		if class == retryFatal || st.Attempts >= maxTotal {
			return err
		}
		next, degraded := stage, false
		switch class {
		case retryDegrade:
			if stage >= retryStages-1 {
				// Even the in-place stage cannot fit the budget: no
				// further attempt can change that arithmetic.
				return err
			}
			next, degraded = retryStages-1, true
		case retryTransient:
			if inStage >= attemptsPerStage {
				if stage >= retryStages-1 {
					return err
				}
				next++
			}
		}
		if serr := retrySleep(ctx, retryBackoff<<(st.Attempts-1), &st); serr != nil {
			return err
		}
		if next != stage {
			if degraded {
				st.Degraded = true
				obsRetry(func(c *obs.Counters) { c.MemDegrades.Add(1) })
			} else {
				obsRetry(func(c *obs.Counters) { c.RetryFallbacks.Add(1) })
			}
			stage, inStage = next, 0
		}
		stageOpt, stageAlgo := opt, algo
		switch stage {
		case 1:
			stageOpt = conservativeOpt(opt)
		case 2:
			// The guaranteed-progress terminal stage: single-threaded
			// in-place MSB needs no linear auxiliary arrays.
			stageOpt, stageAlgo = inPlaceOpt(opt), MSB
		}
		st.Attempts++
		inStage++
		st.Stage = stage
		obsRetry(func(c *obs.Counters) { c.RetryAttempts.Add(1) })
		if err = sortOnce(ctx, resilientOp, stageAlgo, keys, vals, stageOpt); err == nil {
			return nil
		}
	}
}

// retrySleep sleeps the backoff or gives up early: if the context is
// already done, or its deadline cannot accommodate the sleep, the
// supervisor stops burning attempts the caller can no longer use.
func retrySleep(ctx context.Context, d time.Duration, st *RetryStats) error {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return context.DeadlineExceeded
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		st.Backoff += d
		return nil
	}
}

// obsRetry applies one counter update to the current obs session, if any.
func obsRetry(f func(*obs.Counters)) {
	if s := obs.Cur(); s != nil {
		f(&s.Counters)
	}
}
