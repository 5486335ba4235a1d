package partsort

import (
	"context"

	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/numa"
	"repro/internal/sortalgo"
	"repro/internal/tune"
	"repro/internal/ws"
)

// SortStats is the per-phase wall-clock breakdown of a sort run, matching
// the phases of the paper's Figures 11 and 13.
type SortStats = sortalgo.Stats

// SortOptions configures the sorting algorithms. The zero value (or a nil
// pointer) selects sensible defaults: one worker per logical CPU is NOT
// assumed — set Threads explicitly for parallel runs.
type SortOptions struct {
	// Threads is the number of worker goroutines (default 1).
	Threads int
	// Regions simulates a NUMA topology with this many regions and
	// engages the NUMA-aware layout: range-split first pass plus one
	// cross-region shuffle (default 1: no NUMA layer).
	Regions int
	// Oblivious disables the NUMA-aware layout even when Regions > 1.
	Oblivious bool
	// RadixBits fixes the per-pass fanout in bits of the LSB radix-sort. Zero
	// selects the working-set digit plan: 8-bit digits, scattered with the
	// in-cache kernel on one worker, when the input fits the per-worker
	// cache budget (CacheTuples); otherwise the fewest passes of at most
	// 11 bits, of near-equal width (a 22-bit domain sorts in two passes).
	RadixBits int
	// RangeFanout caps the comparison sort's per-pass fanout (default
	// 360). Each range pass takes its fanout from the segment it
	// partitions, about 4 × its tuples / CacheTuples, so the cap binds
	// only on segments past RangeFanout × CacheTuples / 4 tuples.
	RangeFanout int
	// CacheTuples overrides the cache-resident threshold in tuples.
	CacheTuples int
	// Stats, when non-nil, receives the phase breakdown.
	Stats *SortStats
	// Seed makes splitter sampling deterministic (default fixed).
	Seed uint64
	// Workspace, when non-nil, supplies pooled scratch buffers, internal
	// auxiliary arrays, and a persistent worker pool so repeated sorts make
	// zero steady-state heap allocations. See NewWorkspace.
	Workspace *Workspace
	// MaxAuxBytes caps the auxiliary memory a sort may take for scratch
	// arrays (0: half of the machine's available memory); every sort
	// call enforces it, and an acquisition past it fails the attempt
	// with a *ResourceError. The cap does not pick the comparison sort's
	// layout: that is in place unless the NUMA-aware layout is engaged.
	// The AutoTune planner budgets its algorithm choice against the same
	// cap. SortExternal shapes its spill from the cap and runs under
	// its plan's footprint (PlanSpill's MemBytes): at most the cap, or
	// the planner's floor when the cap is below it. Negative is invalid.
	MaxAuxBytes int64
	// AutoTune engages the machine-calibrated adaptive planner: the sort
	// samples the key column, prices the candidate algorithms with the
	// sort model on the machine profile (Profile, or the process-wide one
	// — see Calibrate), and fills Threads, when left at zero, from the
	// plan; Sort also takes the plan's algorithm. The plan is recorded in
	// Stats.Plan and, under an observability session, emitted as an
	// "autotune-plan" meta event. Inputs smaller than ~4K tuples skip
	// planning entirely.
	AutoTune bool
	// Profile is the calibrated machine profile AutoTune plans against;
	// nil selects the process-wide profile (installed by Calibrate,
	// SetMachineProfile, or LoadMachineProfile, or quick-calibrated
	// lazily on first use). Ignored unless AutoTune is set.
	Profile *MachineProfile

	// TempDir is where SortExternal creates its per-run spill directory
	// ("" selects os.TempDir()). Ignored by the in-memory sorts.
	TempDir string
	// MaxSpillBytes caps SortExternal's total spill-file footprint on
	// disk (0: unlimited). Exceeding it surfaces as a *SpillError
	// wrapping ErrSpillBudget.
	MaxSpillBytes int64
}

func (o *SortOptions) toInternal() (sortalgo.Options, *numa.Topology) {
	if o == nil {
		o = &SortOptions{}
	}
	var topo *numa.Topology
	if o.Regions > 1 {
		topo = numa.NewTopology(o.Regions)
	}
	return sortalgo.Options{
		Threads:     o.Threads,
		Topo:        topo,
		Oblivious:   o.Oblivious,
		RadixBits:   o.RadixBits,
		RangeFanout: o.RangeFanout,
		CacheTuples: o.CacheTuples,
		Stats:       o.Stats,
		Seed:        o.Seed,
		Workspace:   o.Workspace.internal(),
	}, topo
}

// sortOnce is the one hardened sort attempt behind every public sort
// call: it validates the pairs and options (errors name op) and runs the
// algorithm under tryRun. It is the only place an Algorithm maps to its
// autotune constraints, its scratch layout (a metered tmp pair for LSB
// and NUMA-aware CMP, none for MSB and in-place CMP) and its sortalgo
// call. With Regions > 1, LSB and CMP hand the tmp pair to the one
// NUMA-aware first pass they share (LSB's later passes ping-pong through
// it too); that pass copies tmp back itself when interrupted
// mid-shuffle, so the input is left a permutation without a restore
// here.
func sortOnce[K Key](ctx context.Context, op string, algo Algorithm, keys, vals []K, opt *SortOptions) error {
	if err := validatePairs(op, "keys", "vals", keys, vals); err != nil {
		return err
	}
	if err := validateOptions(op, opt); err != nil {
		return err
	}
	return tryRun(op, ctx, optWorkspace(opt), optMaxAux(opt), func(ctl *hard.Ctl) {
		eff, _ := autotune(keys, opt, tune.Algo(algo.String()), algo == LSB, algo == MSB)
		io, _ := eff.toInternal()
		io.Ctl = ctl
		if algo == MSB {
			sortalgo.MSB(keys, vals, io)
			return
		}
		if algo == CMP && cmpInPlace(eff) {
			sortalgo.CMP[K](keys, vals, nil, nil, io)
			return
		}
		tmpK, tmpV, iw := meteredScratchPair[K](eff, len(keys))
		defer func() {
			ws.PutKeys(iw, tmpK)
			ws.PutKeys(iw, tmpV)
		}()
		if algo == LSB {
			sortalgo.LSB(keys, vals, tmpK, tmpV, io)
		} else {
			sortalgo.CMP(keys, vals, tmpK, tmpV, io)
		}
	})
}

// mustSort is the panicking wrappers' bridge over the error-returning
// cores: a failure panics with the typed error itself.
func mustSort(err error) {
	if err != nil {
		panic(err)
	}
}

// SortLSB sorts (keys, vals) by key with the stable NUMA-aware LSB
// radix-sort (Section 4.2.1): the fastest choice for dense (compressed)
// key domains, using one linear auxiliary array pair (pooled from
// opt.Workspace when set). Payloads of equal keys keep their input order.
// It panics with the error SortResilientCtx would return under
// &RetryPolicy{MaxAttempts: 1}; the input is then left a permutation.
func SortLSB[K Key](keys, vals []K, opt *SortOptions) {
	mustSort(sortOnce(context.Background(), "SortLSB", LSB, keys, vals, opt))
}

// SortMSB sorts (keys, vals) by key with the fully in-place MSB radix-sort
// (Section 4.2.2): no linear auxiliary space, and passes proportional to
// log n rather than the key domain width — the best choice for sparse
// domains or when memory is tight. Not stable. Panics as SortLSB does.
func SortMSB[K Key](keys, vals []K, opt *SortOptions) {
	mustSort(sortOnce(context.Background(), "SortMSB", MSB, keys, vals, opt))
}

// SortCMP sorts (keys, vals) by key with the range-partitioning comparison
// sort (Section 4.3): sampled splitters give perfect load balance and skew
// immunity regardless of the key distribution; heavily repeated keys get
// single-key partitions that skip sorting entirely. Every range pass is
// an in-place block permutation, with no linear auxiliary arrays, unless
// the NUMA-aware layout is engaged (Regions > 1 without Oblivious): that
// first pass routes through one linear auxiliary array pair, and the
// passes after it run in place. Not stable. Panics as SortLSB does.
func SortCMP[K Key](keys, vals []K, opt *SortOptions) {
	mustSort(sortOnce(context.Background(), "SortCMP", CMP, keys, vals, opt))
}

// cmpInPlace decides SortCMP's layout: the in-place block-permutation
// path unless the NUMA-aware first pass, which must route through tmp, is
// engaged.
func cmpInPlace(opt *SortOptions) bool {
	return opt == nil || opt.Regions <= 1 || opt.Oblivious
}

// IsSorted reports whether keys are in non-decreasing order.
func IsSorted[K Key](keys []K) bool {
	return kv.IsSorted(keys)
}

// SameMultiset reports whether two (key, payload) column pairs hold the
// same tuple multiset — the permutation check for partition and sort
// outputs. It uses an order-independent mixed checksum; collisions are
// astronomically unlikely but not impossible.
func SameMultiset[K Key](aKeys, aVals, bKeys, bVals []K) bool {
	return kv.ChecksumPairs(aKeys, aVals) == kv.ChecksumPairs(bKeys, bVals)
}

// IsStableSorted reports whether keys are sorted and payloads of equal
// keys are in strictly increasing order — the stability witness when
// payloads are record ids.
func IsStableSorted[K Key](keys, vals []K) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return false
		}
		if keys[i-1] == keys[i] && vals[i-1] >= vals[i] {
			return false
		}
	}
	return true
}
