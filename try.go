package partsort

import (
	"context"
	"fmt"
	"runtime/debug"
	"unsafe"

	"repro/internal/hard"
	"repro/internal/tune"
	"repro/internal/ws"
)

// maxRadixBits bounds SortOptions.RadixBits: 2^16 histogram entries is
// already far past the out-of-cache optimum, and larger fanouts overflow
// the per-pass tables the kernels size for.
const maxRadixBits = 16

// validatePairs checks that a key column and its payload column have equal
// length. Every entry point routes through it.
func validatePairs[K Key](fn, keyField, valField string, keys, vals []K) *ArgError {
	if len(keys) != len(vals) {
		return &ArgError{Func: fn, Field: valField,
			Reason: fmt.Sprintf("length %d does not match %s length %d", len(vals), keyField, len(keys))}
	}
	return nil
}

// validateOptions checks every SortOptions field up front, so option
// mistakes surface as one *ArgError instead of a panic (or silent
// misbehavior) deep inside a parallel pass. The zero value of every field
// remains valid and selects the documented default.
func validateOptions(fn string, opt *SortOptions) *ArgError {
	if opt == nil {
		return nil
	}
	if opt.Threads < 0 {
		return &ArgError{Func: fn, Field: "Threads",
			Reason: fmt.Sprintf("%d; must be non-negative (0 selects the default)", opt.Threads)}
	}
	if opt.Regions < 0 {
		return &ArgError{Func: fn, Field: "Regions",
			Reason: fmt.Sprintf("%d; must be non-negative (0 selects the default)", opt.Regions)}
	}
	if opt.RadixBits < 0 || opt.RadixBits > maxRadixBits {
		return &ArgError{Func: fn, Field: "RadixBits",
			Reason: fmt.Sprintf("%d; must be in [1, %d] (0 selects the default)", opt.RadixBits, maxRadixBits)}
	}
	if opt.RangeFanout < 0 {
		return &ArgError{Func: fn, Field: "RangeFanout",
			Reason: fmt.Sprintf("%d; must be non-negative (0 selects the default)", opt.RangeFanout)}
	}
	if opt.CacheTuples < 0 {
		return &ArgError{Func: fn, Field: "CacheTuples",
			Reason: fmt.Sprintf("%d; must be non-negative (0 selects the default)", opt.CacheTuples)}
	}
	if opt.MaxAuxBytes < 0 {
		return &ArgError{Func: fn, Field: "MaxAuxBytes",
			Reason: fmt.Sprintf("%d; must be non-negative (0 selects the default budget)", opt.MaxAuxBytes)}
	}
	if opt.Profile != nil {
		if err := opt.Profile.Validate(); err != nil {
			return &ArgError{Func: fn, Field: "Profile", Reason: err.Error()}
		}
	}
	if opt.SpillSegmentTuples < 0 {
		return &ArgError{Func: fn, Field: "SpillSegmentTuples",
			Reason: fmt.Sprintf("%d; must be non-negative (0 selects the planned size)", opt.SpillSegmentTuples)}
	}
	if opt.SpillBucketBits < 0 || opt.SpillBucketBits > tune.MaxBucketBits {
		return &ArgError{Func: fn, Field: "SpillBucketBits",
			Reason: fmt.Sprintf("%d; must be in [1, %d] (0 selects the planned fanout)", opt.SpillBucketBits, tune.MaxBucketBits)}
	}
	if opt.MaxSpillBytes < 0 {
		return &ArgError{Func: fn, Field: "MaxSpillBytes",
			Reason: fmt.Sprintf("%d; must be non-negative (0 means unlimited)", opt.MaxSpillBytes)}
	}
	return nil
}

// validateWorkload checks the Workload ranges Recommend documents: N at
// least 1, KeyBits one of 0/32/64, DomainBits in [0, 64].
func validateWorkload(fn string, w Workload) *ArgError {
	if w.N < 1 {
		return &ArgError{Func: fn, Field: "N",
			Reason: fmt.Sprintf("%d; must be at least 1", w.N)}
	}
	switch w.KeyBits {
	case 0, 32, 64:
	default:
		return &ArgError{Func: fn, Field: "KeyBits",
			Reason: fmt.Sprintf("%d; must be 32, 64, or 0 (unknown)", w.KeyBits)}
	}
	if w.DomainBits < 0 || w.DomainBits > 64 {
		return &ArgError{Func: fn, Field: "DomainBits",
			Reason: fmt.Sprintf("%d; must be in [0, 64] (0 means unknown)", w.DomainBits)}
	}
	return nil
}

// validateFanout checks a partition function's fanout.
func validateFanout(fn string, fanout int) *ArgError {
	if fanout < 1 {
		return &ArgError{Func: fn, Field: "fn",
			Reason: fmt.Sprintf("fanout %d; must be at least 1", fanout)}
	}
	return nil
}

// validateThreads checks an explicit thread-count parameter.
func validateThreads(fn string, threads int) *ArgError {
	if threads < 0 {
		return &ArgError{Func: fn, Field: "threads",
			Reason: fmt.Sprintf("%d; must be non-negative (0 selects single-threaded)", threads)}
	}
	return nil
}

// mustValid is the bridge to the shared validator for the entry points
// that validate outside sortOnce: they panic with the same typed *ArgError
// the error-returning calls return.
func mustValid(err *ArgError) {
	if err != nil {
		panic(err)
	}
}

// tryRun is the hardened-execution harness shared by every sort and
// partition attempt:
// it arms a (workspace-pooled) cancellation control under ctx, runs body
// with it, and converts whatever unwinds — a cooperative cancellation bail,
// a contained worker panic carrying its original stack, a validation panic
// from a nested call, a workspace budget violation — into the error
// taxonomy. The body runs with panic containment on every fan-out,
// so by the time a failure reaches this frame all worker goroutines of the
// run have finished.
//
// Resource accounting: maxAux (SortOptions.MaxAuxBytes) is installed as
// the workspace's aux-byte budget for the duration of the run — when the
// caller set none and the arena carries no budget of its own, the default
// budget (half the machine's available memory) is enforced instead of
// silently over-allocating. On a contained failure the arena's
// checked-out-bytes ledger is reconciled back to the entry level, because
// buffers in flight at the panic were abandoned to the GC on the unwind.
func tryRun(op string, ctx context.Context, w *Workspace, maxAux int64, body func(ctl *hard.Ctl)) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e := ctx.Err(); e != nil {
		return e
	}
	iw := w.internal()
	preAux := int64(iw.AuxBytes())
	budgeted, prevBudget := false, int64(0)
	if iw != nil {
		if maxAux > 0 {
			budgeted, prevBudget = true, iw.SetBudget(maxAux)
		} else if iw.Budget() == 0 {
			budgeted, prevBudget = true, iw.SetBudget(tune.DefaultAuxBudget())
		}
	}
	ctl := ws.Scratch[hard.Ctl](iw, ws.SlotCtl)
	ctl.Reset(ctx)
	defer func() {
		e := recover()
		// Safe to pool again: containment drained every goroutine that
		// could still observe this Ctl before re-raising.
		ws.PutScratch(iw, ws.SlotCtl, ctl)
		if budgeted {
			iw.SetBudget(prevBudget)
		}
		if e != nil {
			iw.ReconcileAux(preAux)
			err = asTryError(op, e)
		}
	}()
	body(ctl)
	return nil
}

// asTryError maps a recovered unwind value onto the error taxonomy.
func asTryError(op string, e any) error {
	if cause, ok := hard.BailCause(e); ok {
		// Cooperative cancellation: context.Canceled, DeadlineExceeded, or
		// (never normally surfacing past containment) the sibling-stop
		// sentinel.
		return cause
	}
	if pe, ok := e.(*hard.PanicError); ok {
		if ae, ok := pe.Val.(*ArgError); ok {
			return ae
		}
		if be, ok := pe.Val.(*ws.BudgetError); ok {
			return &ResourceError{Op: op, Need: be.Need, InUse: be.InUse, Budget: be.Budget}
		}
		return &InternalError{Op: op, Value: pe.Val, Stack: pe.Stack}
	}
	if ae, ok := e.(*ArgError); ok {
		return ae
	}
	if be, ok := e.(*ws.BudgetError); ok {
		return &ResourceError{Op: op, Need: be.Need, InUse: be.InUse, Budget: be.Budget}
	}
	return &InternalError{Op: op, Value: e, Stack: debug.Stack()}
}

// meteredScratchPair takes sortOnce's two auxiliary arrays from the
// workspace (pooled) or the allocator (nil workspace). When no arena is
// metering acquisitions, the linear tmp columns — the dominant auxiliary
// cost of the non-in-place sorts — are checked against the run's budget
// here, so a budget-less allocation cannot silently exceed MaxAuxBytes
// (or the default half-of-available budget). With an arena, its own
// ledger enforces the budget.
func meteredScratchPair[K Key](opt *SortOptions, n int) ([]K, []K, *ws.Workspace) {
	w := optWorkspace(opt).internal()
	if w == nil {
		var z K
		need := 2 * int64(n) * int64(unsafe.Sizeof(z))
		budget := optMaxAux(opt)
		if budget == 0 {
			budget = tune.DefaultAuxBudget()
		}
		if budget > 0 && need > budget {
			panic(&ws.BudgetError{Need: need, InUse: 0, Budget: budget})
		}
	}
	return ws.Keys[K](w, n), ws.Keys[K](w, n), w
}

// optMaxAux returns opt's auxiliary-memory cap (nil-safe).
func optMaxAux(opt *SortOptions) int64 {
	if opt == nil {
		return 0
	}
	return opt.MaxAuxBytes
}

// optWorkspace returns opt's workspace (nil-safe).
func optWorkspace(opt *SortOptions) *Workspace {
	if opt == nil {
		return nil
	}
	return opt.Workspace
}
