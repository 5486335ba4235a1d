// The resilient execution supervisor: retry with capped exponential
// backoff on contained worker failures, then degrade along a fallback
// chain of ever more conservative plans, ending at a guaranteed-progress
// single-threaded in-place sort. Retry-in-place is sound because the
// hardened attempt (sortOnce) restores the columns to a permutation of
// the input before returning any *InternalError — re-sorting a
// permutation yields the same sorted output (stability of
// already-disturbed equal-key runs is the one casualty; see
// RetryPolicy.NoFallback for callers that need stability over
// availability).

package partsort

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/tune"
)

// RetryClass is the supervisor's verdict on one failed attempt: give up,
// try again, or degrade to a cheaper plan.
type RetryClass int

// The three verdicts of ClassifyError.
const (
	// RetryFatal: the error cannot be fixed by re-running — invalid
	// arguments, context cancellation, deadline expiry. The supervisor
	// returns it immediately.
	RetryFatal RetryClass = iota
	// RetryTransient: a contained worker failure worth re-attempting —
	// re-running the same plan (or a more conservative one) may succeed.
	RetryTransient
	// RetryDegrade: the plan exceeded its auxiliary-memory budget.
	// Repeating it is pointless; the supervisor skips directly to the
	// in-place fallback stage with a freshly measured budget.
	RetryDegrade
)

// String implements fmt.Stringer.
func (c RetryClass) String() string {
	switch c {
	case RetryFatal:
		return "fatal"
	case RetryTransient:
		return "transient"
	case RetryDegrade:
		return "degrade"
	}
	return "unknown"
}

// ClassifyError is the default error classifier of RetryPolicy: nil and
// *ArgError are fatal (retrying cannot change a validation verdict),
// context cancellation and deadline expiry are fatal (the caller gave
// up), *ResourceError degrades, *InternalError — a contained worker
// panic — is transient. Unknown error types are conservatively fatal.
func ClassifyError(err error) RetryClass {
	switch err.(type) {
	case nil:
		return RetryFatal
	case *ArgError:
		return RetryFatal
	case *ResourceError:
		return RetryDegrade
	case *InternalError:
		return RetryTransient
	}
	if err == context.Canceled || err == context.DeadlineExceeded {
		return RetryFatal
	}
	return RetryFatal
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

// RetryPolicy configures SortResilientCtx. The zero value is a working
// policy: 2 attempts per stage, the full three-stage fallback chain,
// 1 ms initial backoff doubling to a 100 ms cap, default classifier.
type RetryPolicy struct {
	// AttemptsPerStage is how many times each fallback stage is tried
	// before moving to the next (default 2; negative is invalid).
	AttemptsPerStage int
	// MaxAttempts caps total attempts across all stages (0: no cap
	// beyond stages × AttemptsPerStage; negative is invalid). 1 makes
	// one hardened attempt with no retry, fallback, or backoff.
	MaxAttempts int
	// InitialBackoff is the sleep before the second attempt (default
	// 1 ms; negative is invalid). Zero selects the default; to retry
	// with no sleep, set it to a sub-microsecond positive duration.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 100 ms; negative
	// is invalid).
	MaxBackoff time.Duration
	// Multiplier is the backoff growth factor (default 2; values below 1
	// are invalid).
	Multiplier float64
	// JitterSeed seeds the deterministic backoff jitter so tests can
	// reproduce exact sleep sequences (default: a fixed seed).
	JitterSeed uint64
	// NoFallback confines the supervisor to the caller's own plan:
	// transient failures still retry AttemptsPerStage times, but no
	// conservative or in-place stage ever runs, and RetryDegrade errors
	// return immediately. Set it when stability or an exact plan matters
	// more than availability.
	NoFallback bool
	// Classify overrides the error classifier (default ClassifyError).
	// It is never called with a nil error.
	Classify func(error) RetryClass
	// Stats, when non-nil, receives the supervisor's outcome.
	Stats *RetryStats
}

// retryStages is the length of the fallback chain: the caller's plan,
// the conservative sequential plan, the single-threaded in-place sort.
const retryStages = 3

// Defaults for the zero-value RetryPolicy.
const (
	defaultAttemptsPerStage = 2
	defaultInitialBackoff   = time.Millisecond
	defaultMaxBackoff       = 100 * time.Millisecond
	defaultMultiplier       = 2.0
	defaultJitterSeed       = 0x9e3779b97f4a7c15
)

// validate reports the first invalid field, nil-safe.
func (p *RetryPolicy) validate(fn string) error {
	if p == nil {
		return nil
	}
	if p.AttemptsPerStage < 0 {
		return &ArgError{Func: fn, Field: "AttemptsPerStage", Reason: "must be non-negative"}
	}
	if p.MaxAttempts < 0 {
		return &ArgError{Func: fn, Field: "MaxAttempts", Reason: "must be non-negative"}
	}
	if p.InitialBackoff < 0 {
		return &ArgError{Func: fn, Field: "InitialBackoff", Reason: "must be non-negative"}
	}
	if p.MaxBackoff < 0 {
		return &ArgError{Func: fn, Field: "MaxBackoff", Reason: "must be non-negative"}
	}
	if p.Multiplier != 0 && p.Multiplier < 1 {
		return &ArgError{Func: fn, Field: "Multiplier", Reason: "must be at least 1"}
	}
	return nil
}

// retrySplitmix is splitmix64, the jitter PRNG step.
func retrySplitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffFor computes the sleep before attempt i (i >= 1): capped
// exponential growth with deterministic half-width jitter in
// [backoff/2, backoff).
func (p *RetryPolicy) backoffFor(i int) time.Duration {
	initial, maxB, mult, seed := defaultInitialBackoff, defaultMaxBackoff, defaultMultiplier, uint64(defaultJitterSeed)
	if p != nil {
		if p.InitialBackoff > 0 {
			initial = p.InitialBackoff
		}
		if p.MaxBackoff > 0 {
			maxB = p.MaxBackoff
		}
		if p.Multiplier >= 1 {
			mult = p.Multiplier
		}
		if p.JitterSeed != 0 {
			seed = p.JitterSeed
		}
	}
	b := float64(initial)
	for k := 1; k < i && b < float64(maxB); k++ {
		b *= mult
	}
	if b > float64(maxB) {
		b = float64(maxB)
	}
	u := float64(retrySplitmix(seed^uint64(i))>>11) / (1 << 53)
	return time.Duration(b * (0.5 + 0.5*u))
}

// attemptsPerStage resolves the per-stage attempt budget.
func (p *RetryPolicy) attemptsPerStage() int {
	if p != nil && p.AttemptsPerStage > 0 {
		return p.AttemptsPerStage
	}
	return defaultAttemptsPerStage
}

// classify applies the configured or default classifier.
func (p *RetryPolicy) classify(err error) RetryClass {
	if p != nil && p.Classify != nil {
		return p.Classify(err)
	}
	return ClassifyError(err)
}

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
// permutation — with capped exponential backoff between attempts; after
// AttemptsPerStage
// failures the supervisor degrades along the fallback chain: the
// caller's plan, then a conservative sequential plan (parallelism,
// NUMA layout, and tuning overrides stripped), then a single-threaded
// in-place MSB radix-sort that needs no auxiliary arrays and always
// makes progress. A *ResourceError skips directly to the in-place
// stage with an auxiliary budget re-measured from the live machine
// (memory pressure that appeared after process start is honoured).
// *ArgError and context cancellation never retry. The final stage's
// in-place sort is unstable; callers that must keep equal-key payload
// order set RetryPolicy.NoFallback and handle the error themselves.
func SortResilientCtx[K Key](ctx context.Context, algo Algorithm, keys, vals []K, opt *SortOptions, pol *RetryPolicy) error {
	if err := pol.validate(resilientOp); err != nil {
		return err
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
	perStage := pol.attemptsPerStage()
	maxTotal := retryStages * perStage
	noFallback := pol != nil && pol.NoFallback
	if noFallback {
		maxTotal = perStage
	}
	if pol != nil && pol.MaxAttempts > 0 && pol.MaxAttempts < maxTotal {
		maxTotal = pol.MaxAttempts
	}
	stage, inStage := 0, 1 // attempts consumed in the current stage
	for {
		class := pol.classify(err)
		// The cap is checked before any transition: a run that stops here
		// records no fallback or degradation it never attempted.
		if class == RetryFatal || st.Attempts >= maxTotal {
			return err
		}
		next, degraded := stage, false
		switch class {
		case RetryDegrade:
			if noFallback || stage >= retryStages-1 {
				// Even the in-place stage cannot fit the budget: no
				// further attempt can change that arithmetic.
				return err
			}
			next, degraded = retryStages-1, true
		case RetryTransient:
			if inStage >= perStage {
				if noFallback || stage >= retryStages-1 {
					return err
				}
				next++
			}
		}
		if serr := retrySleep(ctx, pol.backoffFor(st.Attempts), &st); serr != nil {
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
	if d <= 0 {
		return ctx.Err()
	}
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
