package sortalgo

import (
	"sync/atomic"
	"time"

	"repro/internal/hard"
	"repro/internal/memmodel"
	"repro/internal/numa"
	"repro/internal/obs"
	"repro/internal/tune"
	"repro/internal/ws"
)

// Stats records the per-phase wall clock of a sort run (the breakdown of
// Figures 11 and 13) and NUMA transfer counters.
type Stats struct {
	Alloc      time.Duration
	Histogram  time.Duration
	Partition  time.Duration // first (NUMA-split) partitioning pass
	Shuffle    time.Duration // cross-region shuffle
	LocalRadix time.Duration // subsequent local passes (radix or range)
	CacheSort  time.Duration // in-cache comb-sort / insertion leaves

	// Passes counts partitioning passes over the input: for LSB every
	// scatter pass that ran, for MSB and CMP the out-of-cache passes on
	// the deepest path (the first pass and the local passes below it;
	// MSB's in-cache levels are not counted).
	Passes      int
	RemoteBytes uint64

	// PeakAuxBytes is the high-water mark of auxiliary scratch bytes the
	// run's workspace had checked out — linear tmp arrays taken through
	// the arena, partition-code columns, classify buffers, histograms —
	// the memory-footprint witness for the in-place paths. Zero when no
	// workspace was supplied (unpooled allocations are not metered).
	// Concurrent sorts sharing one workspace fold each other's scratch
	// into their peaks; attribute with care.
	PeakAuxBytes uint64

	// WorkspaceHits / WorkspaceMisses count pooled-buffer acquisitions the
	// run's workspace served from its free lists (hits) versus fell through
	// to the allocator (misses). Both zero when no workspace was supplied; a
	// warm workspace reports zero misses — the zero-steady-state-allocation
	// witness — up to the rare transient miss when concurrent workers race
	// for the same free-list slot (the loser allocates and the arena grows).
	WorkspaceHits   uint64
	WorkspaceMisses uint64

	// RegionBounds are the output segment boundaries per NUMA region after
	// the shuffle (len regions+1); the witness for the load-balancing
	// claims of Sections 4.2.1/4.3.2. Empty for single-region runs.
	RegionBounds []int

	// Counters is this run's observability counter delta (the events
	// behind the wall-clock buckets: buffer flushes, swap cycles, sync
	// claims/parks, remote bytes, ...). Zero when the obs subsystem is
	// disabled. Concurrent sorts under one obs session fold each other's
	// events into their deltas; attribute with care.
	Counters obs.CounterSnapshot

	// Plan records the adaptive planner's decision — algorithm, worker
	// count, predicted passes, predicted time and modeled footprint —
	// when the run was auto-tuned (SortOptions.AutoTune); nil otherwise.
	Plan *tune.Plan
}

// Total returns the summed wall clock.
func (s *Stats) Total() time.Duration {
	return s.Alloc + s.Histogram + s.Partition + s.Shuffle + s.LocalRadix + s.CacheSort
}

// phase identifies one Stats bucket.
type phase int

const (
	phAlloc phase = iota
	phHistogram
	phPartition
	phShuffle
	phLocal
	phCache
)

// name returns the phase's span/JSON label.
func (p phase) name() string {
	switch p {
	case phAlloc:
		return "alloc"
	case phHistogram:
		return "histogram"
	case phPartition:
		return "partition"
	case phShuffle:
		return "shuffle"
	case phLocal:
		return "local"
	case phCache:
		return "cache"
	}
	return "unknown"
}

// add accumulates a duration into a phase bucket; nil-safe.
func (s *Stats) add(p phase, d time.Duration) {
	if s == nil {
		return
	}
	switch p {
	case phAlloc:
		s.Alloc += d
	case phHistogram:
		s.Histogram += d
	case phPartition:
		s.Partition += d
	case phShuffle:
		s.Shuffle += d
	case phLocal:
		s.LocalRadix += d
	case phCache:
		s.CacheSort += d
	}
}

// splitLocal charges wall, the wall clock of a sort's recursion below its
// first pass, to LocalRadix and CacheSort in the proportion of its
// workers' busy time outside and inside cache-resident subtrees (busy and
// cache, in ns). Nil-safe; a recursion with no busy time charges nothing.
func (s *Stats) splitLocal(wall time.Duration, busy, cache int64) {
	if s == nil || busy <= 0 {
		return
	}
	c := time.Duration(float64(wall) * float64(min(cache, busy)) / float64(busy))
	s.LocalRadix += wall - c
	s.CacheSort += c
}

// storeMax raises a to v when v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// timed runs fn and charges its wall clock to phase p of s (nil-safe).
// When an obs session is active it additionally emits a phase span —
// tagged with the owning algorithm so the metrics sink aggregates a
// per-(algo, phase) latency histogram — and, when profile labels are on,
// re-labels the goroutine (and the pool workers' shared label set) with
// the phase for the scope of fn, so trace-only runs (nil Stats) still
// show the breakdown and CPU profiles attribute samples per phase.
func timed(s *Stats, algo string, p phase, fn func()) {
	o := obs.Cur()
	if s == nil && o == nil && !obs.ProfileLabelsEnabled() {
		fn()
		return
	}
	if restore := obs.PushLabels(algo, p.name()); restore != nil {
		defer restore()
	}
	var sp obs.SpanHandle
	if o != nil {
		sp = o.BeginIn(algo, p.name(), "phase", -1)
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.End()
	s.add(p, d)
}

// timedInt is timed for computations that produce a value: returning it
// instead of writing through a captured variable keeps the result out of
// the heap (a capture written inside a non-inlined callee is moved there,
// costing one allocation per sort on otherwise allocation-free paths).
func timedInt(s *Stats, algo string, p phase, fn func() int) int {
	o := obs.Cur()
	if s == nil && o == nil {
		return fn()
	}
	var sp obs.SpanHandle
	if o != nil {
		sp = o.BeginIn(algo, p.name(), "phase", -1)
	}
	start := time.Now()
	v := fn()
	d := time.Since(start)
	sp.End()
	s.add(p, d)
	return v
}

// instrument wraps one whole sort run: opens a top-level span, stores
// the run's counter delta into st.Counters (nil-safe; a plain call when
// observability is disabled), and — when profile labels are enabled —
// tags the run's goroutines with the algorithm for CPU profiles.
func instrument(st *Stats, algo string, fn func()) {
	if restore := obs.PushLabels(algo, "run"); restore != nil {
		defer restore()
	}
	o := obs.Cur()
	if o == nil {
		fn()
		return
	}
	sp := o.BeginIn(algo, algo, "sort", -1)
	before := o.Counters.Snapshot()
	fn()
	if st != nil {
		st.Counters = o.Counters.Snapshot().Sub(before)
	}
	sp.End()
}

// instrumentWS is instrument plus workspace accounting: the run's
// buffer-reuse hit/miss delta lands in st.WorkspaceHits/Misses.
func instrumentWS(st *Stats, w *ws.Workspace, algo string, fn func()) {
	if st == nil || w == nil {
		instrument(st, algo, fn)
		return
	}
	h0, m0 := w.Counters()
	w.ResetPeakAux()
	instrument(st, algo, fn)
	h1, m1 := w.Counters()
	st.WorkspaceHits += h1 - h0
	st.WorkspaceMisses += m1 - m0
	if p := w.PeakAuxBytes(); p > st.PeakAuxBytes {
		st.PeakAuxBytes = p
	}
}

// primePool grows the workspace's worker pool to the run's full width up
// front. Leaf kernels running on C concurrent NUMA regions each request
// only their own share of workers; growing lazily would leave the pool
// under-provisioned for the concurrency actually in flight.
func primePool(o Options) {
	if o.Workspace != nil && o.Threads > 1 {
		o.Workspace.Pool(o.Threads)
	}
}

// addRemoteBytes publishes NUMA interconnect traffic to the obs counters
// (nil-safe).
func addRemoteBytes(n uint64) {
	if o := obs.Cur(); o != nil {
		o.Counters.RemoteBytes.Add(n)
	}
}

// Options configures the sorting algorithms.
type Options struct {
	// Threads is the total number of worker goroutines (default 1).
	Threads int
	// Topo is the simulated NUMA topology; nil means a single region.
	Topo *numa.Topology
	// Oblivious disables the NUMA-aware layout: no range split, no shuffle
	// — passes run over the whole array as if memory were interleaved.
	Oblivious bool
	// RadixBits fixes the per-pass fanout in bits of LSB's radix passes.
	// Zero selects the working-set digit plan (memmodel.LSBDigits):
	// 8-bit digits when the sort fits in cache, otherwise the fewest
	// passes of at most 11 bits each, of near-equal width.
	RadixBits int
	// RangeFanout caps the per-pass fanout of the comparison sort, which
	// sizes each pass from its segment (memmodel.CMPFanout; default cap
	// memmodel.RangeFanout, 360).
	RangeFanout int
	// CacheTuples overrides the cache-resident segment size in tuples used
	// to switch to in-cache variants (default: 256 KiB worth of tuples).
	CacheTuples int
	// Stats, when non-nil, receives the per-phase breakdown.
	Stats *Stats
	// Seed makes sampling deterministic.
	Seed uint64
	// Workspace, when non-nil, supplies pooled scratch (line buffers,
	// histogram matrices, offset tables, partition codes) and the persistent
	// worker pool, so repeated sorts of same-shaped inputs make zero
	// steady-state heap allocations. Safe for concurrent sorts; nil means
	// allocate per call (the pre-workspace behavior).
	Workspace *ws.Workspace
	// Ctl, when non-nil, is the run's cancellation and containment control:
	// parallel kernels poll it between chunks of hard.CkptTuples tuples and
	// at pass boundaries, unwinding cooperatively (with the drivers' restore
	// handlers leaving keys/vals a permutation of the input) once it is
	// stopped or its context is cancelled. nil (kernels driven directly,
	// outside the public sort calls) costs one pointer comparison per
	// checkpoint.
	Ctl *hard.Ctl
}

func (o Options) withDefaults() Options {
	if o.Threads < 1 {
		o.Threads = 1
	}
	if o.RangeFanout < 2 {
		o.RangeFanout = memmodel.RangeFanout
	}
	if o.Seed == 0 {
		o.Seed = 0x5EED
	}
	return o
}

// regions returns the region count (1 when no topology).
func (o Options) regions() int {
	if o.Topo == nil {
		return 1
	}
	return o.Topo.Regions()
}
