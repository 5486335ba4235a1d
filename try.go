package partsort

import (
	"context"
	"fmt"
	"runtime/debug"
	"unsafe"

	"repro/internal/hard"
	"repro/internal/part"
	"repro/internal/sortalgo"
	"repro/internal/tune"
	"repro/internal/ws"
)

// maxRadixBits bounds SortOptions.RadixBits: 2^16 histogram entries is
// already far past the out-of-cache optimum, and larger fanouts overflow
// the per-pass tables the kernels size for.
const maxRadixBits = 16

// validatePairs checks that a key column and its payload column have equal
// length. Every entry point — Try and legacy — routes through it.
func validatePairs[K Key](fn, keyField, valField string, keys, vals []K) *ArgError {
	if len(keys) != len(vals) {
		return &ArgError{Func: fn, Field: valField,
			Reason: fmt.Sprintf("length %d does not match %s length %d", len(vals), keyField, len(keys))}
	}
	return nil
}

// validateScratch checks caller-provided auxiliary arrays against the
// input length.
func validateScratch[K Key](fn string, keys, tmpKeys, tmpVals []K) *ArgError {
	if len(tmpKeys) != len(keys) {
		return &ArgError{Func: fn, Field: "tmpKeys",
			Reason: fmt.Sprintf("length %d does not match keys length %d", len(tmpKeys), len(keys))}
	}
	if len(tmpVals) != len(keys) {
		return &ArgError{Func: fn, Field: "tmpVals",
			Reason: fmt.Sprintf("length %d does not match keys length %d", len(tmpVals), len(keys))}
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
	if opt.SpillBucketBits < 0 || opt.SpillBucketBits > 16 {
		return &ArgError{Func: fn, Field: "SpillBucketBits",
			Reason: fmt.Sprintf("%d; must be in [1, 16] (0 selects the planned fanout)", opt.SpillBucketBits)}
	}
	if opt.SpillMergeWidth < 0 || opt.SpillMergeWidth > 16 {
		return &ArgError{Func: fn, Field: "SpillMergeWidth",
			Reason: fmt.Sprintf("%d; must be in [2, 16] (0 selects the planned width)", opt.SpillMergeWidth)}
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

// mustValid is the legacy entry points' bridge to the shared validator:
// they keep their panicking contract, now raising the same typed *ArgError
// the Try API returns.
func mustValid(err *ArgError) {
	if err != nil {
		panic(err)
	}
}

// tryRun is the hardened-execution harness shared by the Try entry points:
// it arms a (workspace-pooled) cancellation control under ctx, runs body
// with it, and converts whatever unwinds — a cooperative cancellation bail,
// a contained worker panic carrying its original stack, a validation panic
// from a nested call, a workspace budget violation — into the Try API's
// error taxonomy. The body runs with panic containment on every fan-out,
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

// asTryError maps a recovered unwind value onto the Try error taxonomy.
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

// meteredScratchPair is scratchPair for the Try bodies: when no arena is
// metering acquisitions (opt.Workspace nil), the linear tmp columns —
// the dominant auxiliary cost of the non-in-place sorts — are checked
// against the run's budget here, so a budget-less allocation cannot
// silently exceed MaxAuxBytes (or the default half-of-available budget).
// With an arena, its own ledger enforces the budget and this is a plain
// scratchPair.
func meteredScratchPair[K Key](opt *SortOptions, n int) ([]K, []K, *ws.Workspace) {
	if optWorkspace(opt) == nil {
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
	return scratchPair[K](opt, n)
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

// TrySortLSB is SortLSB returning errors instead of panicking: argument
// problems come back as *ArgError, contained worker panics as
// *InternalError. On error keys/vals hold a permutation of the input (in
// unspecified order) whenever the failure struck at an interruption point
// — always the case for cancellation and injected faults.
func TrySortLSB[K Key](keys, vals []K, opt *SortOptions) error {
	return TrySortLSBCtx(context.Background(), keys, vals, opt)
}

// TrySortLSBCtx is TrySortLSB under a context: cancellation is observed at
// pass boundaries and between chunks of parallel loops (bounded latency),
// unwinds cooperatively leaving keys/vals a permutation of the input, and
// returns ctx.Err().
func TrySortLSBCtx[K Key](ctx context.Context, keys, vals []K, opt *SortOptions) error {
	const op = "TrySortLSB"
	if err := validatePairs(op, "keys", "vals", keys, vals); err != nil {
		return err
	}
	if err := validateOptions(op, opt); err != nil {
		return err
	}
	return tryRun(op, ctx, optWorkspace(opt), optMaxAux(opt), func(ctl *hard.Ctl) {
		tmpK, tmpV, iw := meteredScratchPair[K](opt, len(keys))
		defer func() {
			ws.PutKeys(iw, tmpK)
			ws.PutKeys(iw, tmpV)
		}()
		opt, _ := autotune(keys, opt, tune.AlgoLSB, true, false)
		io, _ := opt.toInternal()
		io.Ctl = ctl
		sortalgo.LSB(keys, vals, tmpK, tmpV, io)
	})
}

// TrySortMSB is SortMSB returning errors instead of panicking; see
// TrySortLSB for the error and restore contract.
func TrySortMSB[K Key](keys, vals []K, opt *SortOptions) error {
	return TrySortMSBCtx(context.Background(), keys, vals, opt)
}

// TrySortMSBCtx is TrySortMSB under a context; see TrySortLSBCtx.
func TrySortMSBCtx[K Key](ctx context.Context, keys, vals []K, opt *SortOptions) error {
	const op = "TrySortMSB"
	if err := validatePairs(op, "keys", "vals", keys, vals); err != nil {
		return err
	}
	if err := validateOptions(op, opt); err != nil {
		return err
	}
	return tryRun(op, ctx, optWorkspace(opt), optMaxAux(opt), func(ctl *hard.Ctl) {
		opt, _ := autotune(keys, opt, tune.AlgoMSB, false, true)
		io, _ := opt.toInternal()
		io.Ctl = ctl
		sortalgo.MSB(keys, vals, io)
	})
}

// TrySortCmp is SortCMP returning errors instead of panicking; see
// TrySortLSB for the error and restore contract.
func TrySortCmp[K Key](keys, vals []K, opt *SortOptions) error {
	return TrySortCmpCtx(context.Background(), keys, vals, opt)
}

// TrySortCmpCtx is TrySortCmp under a context; see TrySortLSBCtx.
func TrySortCmpCtx[K Key](ctx context.Context, keys, vals []K, opt *SortOptions) error {
	const op = "TrySortCmp"
	if err := validatePairs(op, "keys", "vals", keys, vals); err != nil {
		return err
	}
	if err := validateOptions(op, opt); err != nil {
		return err
	}
	return tryRun(op, ctx, optWorkspace(opt), optMaxAux(opt), func(ctl *hard.Ctl) {
		eff, plan := autotune(keys, opt, tune.AlgoCMP, false, false)
		io, _ := eff.toInternal()
		io.Ctl = ctl
		if cmpInPlace[K](eff, plan, len(keys)) {
			sortalgo.CMP[K](keys, vals, nil, nil, io)
			return
		}
		tmpK, tmpV, iw := meteredScratchPair[K](eff, len(keys))
		defer func() {
			ws.PutKeys(iw, tmpK)
			ws.PutKeys(iw, tmpV)
		}()
		sortalgo.CMP(keys, vals, tmpK, tmpV, io)
	})
}

// TryPartition is Partition returning errors instead of panicking. On
// error src is untouched (the scatter only writes dst) and the returned
// histogram is nil.
func TryPartition[K Key, F PartitionFunc[K]](srcKeys, srcVals, dstKeys, dstVals []K, fn F, threads int) ([]int, error) {
	return TryPartitionCtx(context.Background(), srcKeys, srcVals, dstKeys, dstVals, fn, threads)
}

// TryPartitionCtx is TryPartition under a context; cancellation is
// observed between chunks of the parallel histogram and scatter loops.
func TryPartitionCtx[K Key, F PartitionFunc[K]](ctx context.Context, srcKeys, srcVals, dstKeys, dstVals []K, fn F, threads int) ([]int, error) {
	const op = "TryPartition"
	if err := validatePairs(op, "srcKeys", "srcVals", srcKeys, srcVals); err != nil {
		return nil, err
	}
	if err := validatePairs(op, "dstKeys", "dstVals", dstKeys, dstVals); err != nil {
		return nil, err
	}
	if len(srcKeys) != len(dstKeys) {
		return nil, &ArgError{Func: op, Field: "dstKeys",
			Reason: fmt.Sprintf("length %d does not match srcKeys length %d", len(dstKeys), len(srcKeys))}
	}
	if err := validateThreads(op, threads); err != nil {
		return nil, err
	}
	if err := validateFanout(op, fn.Fanout()); err != nil {
		return nil, err
	}
	var hist []int
	err := tryRun(op, ctx, nil, 0, func(ctl *hard.Ctl) {
		t := threads
		if t < 1 {
			t = 1
		}
		hist = part.ParallelNonInPlace(nil, srcKeys, srcVals, dstKeys, dstVals, fn, t, ctl)
	})
	if err != nil {
		return nil, err
	}
	return hist, nil
}
