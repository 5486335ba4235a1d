// Package extsort breaks the in-memory ceiling: it sorts key/payload
// columns whose working set exceeds the auxiliary-memory budget by
// spilling them to disk once and reading them back into their output
// ranges, in two phases, each on Options.Threads workers.
//
//  1. Run formation (one streaming pass, counting-free): each worker
//     classifies its contiguous slice of the input by the keys' place in
//     the sampled key domain, scaled onto the fanout, into equal-width
//     key-range buckets. Every worker keeps its own chain per bucket:
//     a small write-combining line in its private slab (only full lines,
//     and the final drain, reach the spill file), file extents reserved
//     on first touch — the Wassenberg & Sanders bucket-reservation trick
//     translated from virtual memory to file space, so no histogram pass
//     precedes the scatter — and a CRC32C of every byte it wrote. Only
//     the reservation against the file tail and the disk budget is
//     shared. A bucket is the concatenation of its workers' chains.
//  2. Delivery: every bucket's output range is the prefix sum of the
//     bucket counts. A bucket that fits one segment — every bucket of a
//     uniform input under the planned fanout — goes to the next free
//     worker, which reads it back, checks each chain's CRC32C, then sorts
//     it on one thread from that read buffer into its output range
//     (sortalgo.MSBPairs): the buffer is the spare array of the bucket's
//     first radix pass, run out of place on the digits below the key
//     prefix the whole bucket shares, and of its in-cache levels, so the
//     sort holds no block-permutation buffers. Afterwards each larger
//     bucket is sorted in place in its output range, which delivery
//     overwrites anyway: a read-only pass checks its seals, a second pass
//     reads its chains into the range through one staging buffer, and the
//     in-place MSB sort (the paper's Section 4.2.2) runs over the range on
//     Options.OverflowThreads workers.
//
// Every buffer comes from the workspace arena, held only during its phase
// (steady-state buffer acquisition allocates nothing). A worker's error
// stops its siblings at their next checkpoint and is returned as is.
// Panics and errors unwind through a restore handler that rebuilds the
// input permutation from the phase-1 chains once delivery has overwritten
// part of the input, and the spill file is registered on the fault
// package's resource ledger so a containment that leaks it fails tests.
package extsort

import (
	"fmt"
	"os"
	"time"
	"unsafe"

	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/sortalgo"
	"repro/internal/tune"
	"repro/internal/ws"
)

// TempResource is the fault-ledger kind under which the live spill file is
// accounted; harnesses assert it drains to zero after containment.
const TempResource = "extsort/tempfile"

// Options shapes one external sort. The caller (the public SortExternal
// entry points) fills every field from tune.PlanSpill plus explicit
// SortOptions overrides; extsort itself applies no defaults beyond
// clamping obvious zeroes.
type Options struct {
	// TempDir is where the spill directory is created ("": os.TempDir()).
	TempDir string
	// SegmentTuples is the largest bucket delivered in one piece, and the
	// staging buffer of a larger one in pairs (and the in-memory shortcut
	// threshold: inputs at most this large never touch disk).
	SegmentTuples int
	// BucketBits is the run-formation fanout in bits (fanout 1<<bits).
	BucketBits int
	// LineTuples is the per-bucket write-combining buffer in tuples.
	LineTuples int
	// MaxSpillBytes caps total reserved spill-file bytes (0: unlimited).
	MaxSpillBytes int64
	// Threads is the worker count of both phases: formation scatters
	// Threads input slices, and delivery sorts Threads one-segment buckets
	// at once (one thread each). A bucket larger than one segment is
	// sorted in place on OverflowThreads workers (0: Threads; at most
	// Threads) under a cache bound of OverflowCacheTuples (0: the sorts'
	// default), the plan's (tune.SpillPlan). RadixBits configures the
	// in-memory sorts.
	Threads             int
	OverflowThreads     int
	OverflowCacheTuples int
	RadixBits           int
}

// Stats reports what one external sort did; the public entry points and
// benchmarks read it, and obs mirrors it process-wide.
type Stats struct {
	// Spilled is false when the input fit one segment and never left RAM.
	Spilled bool
	// FormationBytes/FormationWrites are the run-formation pass's spill
	// traffic: exactly one interleaved copy of the input, written once —
	// the single-streaming-pass witness tests assert on.
	FormationBytes  int64
	FormationWrites int64
	// SpillBytes/ReadBytes are total spill-file traffic in bytes. Only
	// formation writes, so SpillBytes is FormationBytes; a bucket larger
	// than one segment is read twice (its seal check, then into its output
	// range), so ReadBytes exceeds FormationBytes by those buckets' bytes.
	SpillBytes int64
	ReadBytes  int64
	// Buckets is the number of non-empty formation buckets.
	Buckets int
	// RunsWritten, MaxFanIn, MergeRounds, IONs and StallNs read 0: the
	// external sort writes no sorted run and merges nothing. They remain
	// because the benchmark harness (bench/layers.go) reports them.
	RunsWritten int64
	MaxFanIn    int
	MergeRounds int64
	IONs        int64
	StallNs     int64
	// FormNs and DeliverNs are the wall time of run formation and of
	// delivery (one-segment buckets, then the larger ones).
	FormNs    int64
	DeliverNs int64
}

// OverlapRatio reads 0: no merge runs whose reads could overlap its
// compute. Like the zero counters in Stats, it remains for the benchmark
// harness.
func (st Stats) OverlapRatio() float64 { return 0 }

// IOError is a spill-path failure: the operation, the file involved, and
// the underlying error. The public surface wraps it as *SpillError.
type IOError struct {
	Op   string
	Path string
	Err  error
}

// Error implements error.
func (e *IOError) Error() string {
	return fmt.Sprintf("extsort: %s %s: %v", e.Op, e.Path, e.Err)
}

// Unwrap exposes the underlying error.
func (e *IOError) Unwrap() error { return e.Err }

// ErrDiskBudget is wrapped by the IOError returned when reserving spill
// space would cross Options.MaxSpillBytes.
var ErrDiskBudget = fmt.Errorf("disk spill budget exceeded")

// ErrCorrupt is wrapped by the IOError returned when spill data read back
// from disk fails its seal: a formation bucket's CRC32C.
var ErrCorrupt = fmt.Errorf("spill data failed its seal check")

// Run sorts keys/vals (same length) through the external pipeline under
// the given control and workspace (both may be nil). It returns the run's
// stats and the first I/O error, that of whichever worker hit it first;
// injected faults, budget overruns, and cancellation unwind as panics for
// the caller's containment, after the deferred handler here restored the
// permutation from the phase-1 chains and removed the spill file. On
// either path the workspace's checked-out bytes go back to their level at
// entry. A bucket whose extents fail on the way back cannot be restored;
// the error, or the re-raised unwind value, then says so (restoreFailed).
func Run[K kv.Key](ctl *hard.Ctl, keys, vals []K, w *ws.Workspace, opt Options) (_ Stats, err error) {
	n := len(keys)
	if opt.SegmentTuples < 1 {
		opt.SegmentTuples = 1 << 20
	}
	if n <= opt.SegmentTuples {
		// The input fits one segment: sort in memory, no spill.
		if n > 1 {
			sortChunk(ctl, keys, vals, w, opt.Threads, 0, opt.RadixBits)
		}
		return Stats{Spilled: false}, nil
	}
	opt = opt.clamped()

	preAux := int64(w.AuxBytes())
	s := getSorter[K](w, n, opt)
	if ctl == nil {
		// Workers still need a stop flag for their siblings' failures.
		s.own.Reset(nil)
		ctl = &s.own
	}
	s.ctl, s.keys, s.vals = ctl, keys, vals
	defer func() {
		r := recover()
		var rerr error
		if r != nil || err != nil {
			// Once delivery has written an output range, parts of
			// keys/vals have been overwritten; every tuple is still on
			// disk in the bucket chains, so read them all back. Before
			// that point the pipeline only read the input, which is still
			// intact.
			// A bucket that fails on the way back leaves its own output
			// range wrong; the error (or the unwind value) says so.
			if s.phase.Load() >= phaseDeliver {
				rerr = s.restore()
			}
			if rerr != nil && r == nil {
				err = fmt.Errorf("%w (and permutation restore failed: %w)", err, rerr)
			}
		}
		s.cleanup()
		putSorter(w, s)
		if r != nil || err != nil {
			// A worker error stops its siblings wherever they are, and
			// the buffers they held then are abandoned to the GC: take
			// them off the ledger, as the public calls do for a panic.
			w.ReconcileAux(preAux)
		}
		if r != nil {
			panic(restoreFailed(hard.NewPanic(r), rerr))
		}
	}()

	if err = s.open(); err != nil {
		return s.stats, err
	}
	t0 := time.Now()
	err = s.formRuns()
	s.stats.FormNs = int64(time.Since(t0))
	if err != nil {
		return s.stats, err
	}
	t0 = time.Now()
	err = s.deliver()
	s.stats.DeliverNs = int64(time.Since(t0))
	if err != nil {
		return s.stats, err
	}
	s.stats.Spilled = true
	return s.stats, nil
}

// restoreFailed folds a failed permutation restore (nil: none) into the
// value an unwind re-raises, so a cancellation or contained panic that
// lost tuples says so: a bail keeps its cause (still a context error for
// errors.Is) with the restore error wrapped beside it; a PanicError gets a
// value that wraps both. A budget panic is then no longer a resource
// shortage to degrade from: the input is gone, not too large.
func restoreFailed(p any, rerr error) any {
	if rerr == nil {
		return p
	}
	if cause, ok := hard.BailCause(p); ok {
		return hard.NewBail(fmt.Errorf("%w (and permutation restore failed: %w)", cause, rerr))
	}
	pe := p.(*hard.PanicError)
	return &hard.PanicError{Val: fmt.Errorf("%v (and permutation restore failed: %w)", pe.Val, rerr), Stack: pe.Stack}
}

// clamped sanitizes the option fields extsort derives sizes from.
func (o Options) clamped() Options {
	if o.BucketBits < 1 {
		o.BucketBits = 1
	}
	if o.BucketBits > tune.MaxBucketBits {
		o.BucketBits = tune.MaxBucketBits
	}
	if o.LineTuples < 16 {
		o.LineTuples = 16
	}
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.OverflowThreads < 1 || o.OverflowThreads > o.Threads {
		o.OverflowThreads = o.Threads
	}
	return o
}

// Pipeline phases, recorded so the unwind handler knows whether the
// output arrays have been partially overwritten: phaseDeliver starts at
// delivery's first write into keys/vals by any worker, not at the end of
// formation.
const (
	phaseForm = iota + 1
	phaseDeliver
)

// sortChunk runs the in-place MSB sort over keys/vals on threads workers
// under a cache bound of cacheT tuples (0: default), with the external
// sort's workspace and control.
func sortChunk[K kv.Key](ctl *hard.Ctl, keys, vals []K, w *ws.Workspace, threads, cacheT, radixBits int) {
	sortalgo.MSB(keys, vals, sortalgo.Options{
		Threads:     threads,
		RadixBits:   radixBits,
		CacheTuples: cacheT,
		Workspace:   w,
		Ctl:         ctl,
	})
}

// asBytes retypes a key slice as its backing bytes (keys are pointer-free
// fixed-width integers). Spill files hold native-endian interleaved
// pairs; they are private to the writing process and never outlive it.
func asBytes[K kv.Key](s []K) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// deinterleave splits pairs (k0 v0 k1 v1 ...) into columns.
func deinterleave[K kv.Key](pairs, outK, outV []K) {
	for i := range outK {
		outK[i] = pairs[2*i]
		outV[i] = pairs[2*i+1]
	}
}

// ioErr builds an *IOError, keeping call sites one line. A nil f (file
// never opened) degrades to the directory path.
func ioErr(op string, f *os.File, err error) error {
	path := "?"
	if f != nil {
		path = f.Name()
	}
	return &IOError{Op: op, Path: path, Err: err}
}
