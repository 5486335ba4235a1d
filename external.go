package partsort

import (
	"context"
	"errors"

	"repro/internal/extsort"
	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/tune"
)

// ExternalStats reports what one SortExternal run did: whether it
// spilled, how many bytes moved through the spill file, the bucket count,
// and the wall time of its two phases.
type ExternalStats = extsort.Stats

// ErrSpillBudget is wrapped by the *SpillError returned when an external
// sort would exceed SortOptions.MaxSpillBytes of disk.
var ErrSpillBudget = extsort.ErrDiskBudget

// ErrSpillCorrupt is wrapped by the *SpillError returned when spill data
// read back from disk fails its seal: a formation bucket's CRC32C.
var ErrSpillCorrupt = extsort.ErrCorrupt

// SpillPlan is the external-sort shape PlanSpill derives from an input
// size and memory budget; sortd charges external jobs its MemBytes.
type SpillPlan = tune.SpillPlan

// PlanSpill plans the external-sort decision for n tuples of keyBits-bit
// keys under an auxiliary-memory budget of maxAux bytes (0: the default
// budget of half the machine's available memory), for one worker
// (SortOptions' default Threads; SortExternal plans for its own Threads):
// whether the input must spill at all and, if so, the segment, fanout,
// line and extent shape, the worker count and cache bound of the in-place
// overflow sort, and the peak resident footprint MemBytes, the largest of
// the pipeline's three phases (the sorter holds each phase's buffers only
// while that phase runs). MemBytes is at least the planner's floor (the
// minimum buffers, and the in-place sort of a bucket that holds the whole
// input, which grows by about n/32 bytes at large n), so for tiny budgets
// it exceeds maxAux; SortExternal then runs at MemBytes.
func PlanSpill(n, keyBits int, maxAux int64) SpillPlan {
	return tune.PlanSpill(n, keyBits, maxAux, 1)
}

// SortExternal sorts (keys, vals) by key even when the working set
// exceeds the auxiliary-memory budget, by spilling to disk: one
// counting-free streaming pass scatters the input into key-range buckets
// in a temp directory, planned so that each fits half an in-memory
// segment; each bucket is read back once and sorted in memory straight
// into its output range. A bucket that skew pushes past one segment is
// read into its output range once its seals have been checked, and sorted
// there in place by the in-place MSB radix-sort. Inputs that fit one
// segment never touch disk. Not stable.
//
// Threads parallelizes both phases: formation scatters Threads slices of
// the input, each through its own line buffers, and delivery sorts
// Threads buckets at once, one thread each; an overflowing bucket is
// sorted on as many of the Threads as the budget fits (the plan's
// OverflowThreads). The plan (PlanSpill's shape at that worker count)
// prices the widest phase.
//
// The spill's shape comes only from the plan. A positive MaxAuxBytes
// caps the run at the plan's MemBytes: at most MaxAuxBytes, and raised
// to the plan's floor when MaxAuxBytes is below it, with or without a
// Workspace, so a tiny budget still spills rather than failing.
//
// Argument problems return *ArgError, spill I/O failures *SpillError
// (disk budget overruns unwrap to ErrSpillBudget), contained worker
// panics *InternalError. On error keys/vals hold a permutation of the
// input and the temp directory has been removed — except when a formation
// bucket fails its seal or its read after delivery has overwritten part
// of the input: that bucket's tuples then exist nowhere intact, its
// output range is wrong (every other range is restored), and the error
// says that the permutation restore failed.
func SortExternal[K Key](keys, vals []K, opt *SortOptions) (ExternalStats, error) {
	return SortExternalCtx(context.Background(), keys, vals, opt)
}

// SortExternalCtx is SortExternal under a context: cancellation is
// observed between work chunks of every phase, unwinds cooperatively
// (restoring keys/vals to a permutation of the input and removing the
// temp files), and returns ctx.Err().
func SortExternalCtx[K Key](ctx context.Context, keys, vals []K, opt *SortOptions) (ExternalStats, error) {
	const op = "SortExternal"
	var st ExternalStats
	if err := validatePairs(op, "keys", "vals", keys, vals); err != nil {
		return st, err
	}
	if err := validateOptions(op, opt); err != nil {
		return st, err
	}
	eo, maxAux := externalOptions[K](opt, len(keys))
	var runErr error
	err := tryRun(op, ctx, optWorkspace(opt), maxAux, func(ctl *hard.Ctl) {
		st, runErr = extsort.Run(ctl, keys, vals, optWorkspace(opt).internal(), eo)
	})
	if err != nil {
		return st, err
	}
	if runErr != nil {
		return st, wrapSpill(op, runErr)
	}
	return st, nil
}

// externalOptions resolves the extsort configuration: tune.PlanSpill
// shapes every knob from the memory budget, and a non-spilling plan
// widens the segment so the whole input takes the in-memory path. It also
// returns the run's aux cap: when MaxAuxBytes is set, the plan's
// MemBytes, which is at most MaxAuxBytes unless that is below the
// planner's floor.
func externalOptions[K Key](opt *SortOptions, n int) (extsort.Options, int64) {
	maxAux := optMaxAux(opt)
	eo := extsort.Options{Threads: 1}
	if opt != nil {
		eo.Threads, eo.RadixBits = opt.Threads, opt.RadixBits
		eo.TempDir, eo.MaxSpillBytes = opt.TempDir, opt.MaxSpillBytes
	}
	plan := tune.PlanSpill(n, kv.Width[K](), maxAux, eo.Threads)
	eo.SegmentTuples, eo.BucketBits, eo.LineTuples = plan.SegmentTuples, plan.BucketBits, plan.LineTuples
	eo.OverflowThreads, eo.OverflowCacheTuples = plan.OverflowThreads, plan.OverflowCacheTuples
	if !plan.Spill {
		// The plan says the input fits the memory budget: make the
		// segment cover it so Run takes the in-memory shortcut.
		eo.SegmentTuples = n
	}
	if maxAux > 0 {
		maxAux = plan.MemBytes
	}
	return eo, maxAux
}

// wrapSpill maps an extsort error onto the public taxonomy.
func wrapSpill(op string, err error) error {
	var ioe *extsort.IOError
	if errors.As(err, &ioe) {
		return &SpillError{Op: op, Path: ioe.Path, Err: err}
	}
	return &SpillError{Op: op, Path: "?", Err: err}
}
