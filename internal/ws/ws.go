// Package ws implements the reusable workspace behind the repository's
// zero-allocation hot paths: a size-class-bucketed arena of the scratch a
// partition or sort run needs — cache-line buffers, histograms and offset
// matrices, partition-code arrays, ping-pong key/payload scratch — plus a
// persistent worker pool (pool.go) that parks between passes instead of
// spawning goroutines per kernel call.
//
// The paper's cost model (Section 3.2) prices cache, TLB, and bandwidth
// events only; allocator and scheduler time are overheads the model never
// pays. Repeated sorts of same-shaped inputs through one Workspace make
// zero steady-state heap allocations, so the measured kernels converge to
// the modeled costs (see BenchmarkLSBReuse).
//
// Buffers are bucketed by power-of-two size class and kept on per-class
// free lists guarded by one mutex: kernels acquire a handful of buffers per
// call (never per tuple), so the lock is not a hot point, and unlike
// sync.Pool the lists survive garbage collections — the zero-alloc
// guarantee is deterministic, not probabilistic. A Workspace is safe for
// concurrent use by the workers of one sort and by concurrent sorts; for
// the latter, buffer demand is the sum of both runs' demands.
//
// All scalar buffers ([]uint32, []uint64, []int32, and the generic []K of
// kv.Key kinds) are backed by two untyped arenas (32- and 64-bit) and
// re-typed with unsafe.Slice; the element types involved are pointer-free
// and layout-identical per width, so the casts do not hide pointers from
// the garbage collector.
package ws

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/kv"
	"repro/internal/obs"
)

const (
	// minClassShift is the smallest pooled buffer size (2^6 = 64 elements);
	// smaller requests round up to it.
	minClassShift = 6
	// maxClassShift bounds pooled buffer sizes at 2^28 elements; larger
	// requests are allocated exactly and not retained.
	maxClassShift = 28
	numClasses    = maxClassShift - minClassShift + 1
)

// classFor returns the size class of a request of n elements, or -1 when
// the request is too large to pool.
func classFor(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassShift
	if c >= numClasses {
		return -1
	}
	return c
}

// classSize returns the capacity of class c buffers.
func classSize(c int) int {
	return 1 << (c + minClassShift)
}

// Capacity returns the capacity in elements of the buffer the arena hands
// out for an n-element request: its power-of-two size class (at least
// 64), or n itself past the largest class, which is allocated exactly.
// The arena meters that capacity, so aux models price requests through
// it. Without a budget, Ints may lend a buffer up to spillClasses classes
// larger and Matrix may keep a pooled row of a larger class; under a
// budget (SetBudget) every acquisition is metered at exactly this
// capacity, so a run's peak in a warm arena is its peak in a fresh one.
func Capacity(n int) int {
	if n <= 0 {
		return 0
	}
	if c := classFor(n); c >= 0 {
		return classSize(c)
	}
	return n
}

// spillClasses is how many classes above the requested one an
// unbudgeted acquisition may borrow from: a sort whose early wide-fanout
// passes pooled large histogram/offset buffers serves later narrow-fanout
// passes from those same buffers (re-sliced; a returned buffer still pools
// under its true capacity class) instead of taking an allocation miss.
// Bounded so a tiny request can waste at most 16x its size, and so the
// scan stays O(1).
const spillClasses = 4

// spillLimit returns the last class an acquisition of class c may borrow
// from.
func spillLimit(c int) int {
	return min(c+spillClasses, numClasses-1)
}

// Workspace is a reusable arena of partitioning/sorting scratch. The zero
// value is not usable; call New. A nil *Workspace is valid everywhere and
// means "no reuse": getters fall back to plain allocation and putters are
// no-ops, so kernels thread a Workspace unconditionally.
type Workspace struct {
	mu   sync.Mutex
	u32  [numClasses][][]uint32
	u64  [numClasses][][]uint64
	ints [numClasses][][]int
	mats [][][]int // histogram-matrix spines, any capacity

	// scratch holds reusable per-kernel driver objects (worker-pool task
	// runners, cached sorters) keyed by a small fixed slot id; see Scratch.
	scratch [numSlots][]any

	hits   atomic.Uint64
	misses atomic.Uint64

	// auxInUse tracks the bytes of arena scratch currently checked out;
	// auxPeak is its high-water mark since the last ResetPeakAux. Together
	// they put a measured number on a sort's auxiliary-memory footprint
	// (SortStats.PeakAuxBytes).
	auxInUse atomic.Int64
	auxPeak  atomic.Int64
	// auxBudget, when positive, caps checked-out scratch bytes: an
	// acquisition that would cross it panics with *BudgetError instead of
	// silently over-allocating. See SetBudget.
	auxBudget atomic.Int64

	poolMu sync.Mutex
	pool   *Pool
}

// New returns an empty Workspace. It grows to the high-water demand of the
// runs threaded through it and holds that memory until released; Close (or
// garbage collection of the Workspace) stops its worker pool.
func New() *Workspace {
	return &Workspace{}
}

// Close stops the workspace's worker pool, if one was started. The arena
// itself needs no teardown. Close is idempotent; the Workspace must not be
// used concurrently with Close.
func (w *Workspace) Close() {
	if w == nil {
		return
	}
	w.poolMu.Lock()
	p := w.pool
	w.pool = nil
	w.poolMu.Unlock()
	if p != nil {
		p.Close()
	}
}

// Pool returns the workspace's persistent worker pool, grown to at least n
// workers. Returns nil when w is nil (callers then spawn goroutines as the
// pre-workspace code did).
func (w *Workspace) Pool(n int) *Pool {
	if w == nil {
		return nil
	}
	w.poolMu.Lock()
	defer w.poolMu.Unlock()
	if w.pool == nil {
		w.pool = NewPool(n)
	} else {
		w.pool.Grow(n)
	}
	return w.pool
}

// Counters returns the cumulative buffer-reuse hit and miss counts: one
// event per buffer acquisition, a hit when the arena already held a
// suitable buffer.
func (w *Workspace) Counters() (hits, misses uint64) {
	if w == nil {
		return 0, 0
	}
	return w.hits.Load(), w.misses.Load()
}

// hit/miss record one acquisition and mirror it to the obs counters when a
// session is live (a nil check otherwise).
func (w *Workspace) hit() {
	w.hits.Add(1)
	if o := obs.Cur(); o != nil {
		o.Counters.WorkspaceHits.Add(1)
	}
}

func (w *Workspace) miss() {
	w.misses.Add(1)
	if o := obs.Cur(); o != nil {
		o.Counters.WorkspaceMisses.Add(1)
	}
}

// BudgetError is the panic value of an arena acquisition that would push
// the checked-out scratch bytes past the workspace's budget (SetBudget).
// It unwinds through the kernels' containment and restore layers like any
// worker panic; the public sort calls map it to *partsort.
// ResourceError so callers can classify it (degrade, don't retry in
// place). The buffer whose acquisition failed is abandoned to the GC; the
// accounting never saw it, so the arena's byte ledger stays balanced.
type BudgetError struct {
	Need   int64 // bytes the failing acquisition asked for
	InUse  int64 // bytes already checked out when it failed
	Budget int64 // the configured cap
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("ws: aux budget exceeded: need %d B with %d B in use, budget %d B",
		e.Need, e.InUse, e.Budget)
}

// SetBudget caps the arena's checked-out scratch bytes: while the cap is
// positive, an acquisition that would cross it panics with *BudgetError.
// Zero (the default) disables enforcement. Returns the previous cap. The
// check is approximate under concurrency (two racing acquisitions may both
// read the same InUse), which is fine for a guard whose purpose is to stop
// runaway over-allocation, not to meter exactly.
func (w *Workspace) SetBudget(bytes int64) int64 {
	if w == nil {
		return 0
	}
	return w.auxBudget.Swap(bytes)
}

// Budget returns the current aux-byte cap (0: unlimited). Zero on a nil
// workspace.
func (w *Workspace) Budget() int64 {
	if w == nil {
		return 0
	}
	return w.auxBudget.Load()
}

// ReconcileAux rolls the checked-out-bytes ledger back to pre, the level
// captured before a run that has since failed. Buffers in flight when a
// contained panic unwinds a kernel are abandoned to the GC — the free
// lists never see them again — so without reconciliation the ledger (and
// the process-wide partsort_aux_bytes gauge) would report them as leaked
// forever. Call it only after containment has drained every goroutine of
// the failed run; concurrent runs sharing the arena would be mis-metered
// (accounting only — never correctness).
func (w *Workspace) ReconcileAux(pre int64) {
	if w == nil {
		return
	}
	for {
		cur := w.auxInUse.Load()
		if cur <= pre {
			return
		}
		if w.auxInUse.CompareAndSwap(cur, pre) {
			obs.AddAuxBytes(pre - cur)
			return
		}
	}
}

// auxAcquire records bytes of scratch checked out of the arena, advancing
// the high-water mark and mirroring the process-wide obs gauge. When a
// budget is set, an acquisition that would cross it panics with
// *BudgetError before touching the ledger.
func (w *Workspace) auxAcquire(bytes int) {
	if b := w.auxBudget.Load(); b > 0 {
		if in := w.auxInUse.Load(); in+int64(bytes) > b {
			panic(&BudgetError{Need: int64(bytes), InUse: in, Budget: b})
		}
	}
	obs.AddAuxBytes(int64(bytes))
	n := w.auxInUse.Add(int64(bytes))
	for {
		p := w.auxPeak.Load()
		if n <= p || w.auxPeak.CompareAndSwap(p, n) {
			return
		}
	}
}

// auxRelease records bytes of scratch returned (or abandoned to the GC).
func (w *Workspace) auxRelease(bytes int) {
	obs.AddAuxBytes(-int64(bytes))
	w.auxInUse.Add(-int64(bytes))
}

// AuxBytes returns the bytes of arena scratch currently checked out. Zero
// on a nil workspace.
func (w *Workspace) AuxBytes() uint64 {
	if w == nil {
		return 0
	}
	if n := w.auxInUse.Load(); n > 0 {
		return uint64(n)
	}
	return 0
}

// PeakAuxBytes returns the high-water mark of checked-out scratch bytes
// since the last ResetPeakAux. Zero on a nil workspace.
func (w *Workspace) PeakAuxBytes() uint64 {
	if w == nil {
		return 0
	}
	if n := w.auxPeak.Load(); n > 0 {
		return uint64(n)
	}
	return 0
}

// ResetPeakAux resets the high-water mark to the current checkout level, so
// a caller can measure one run's peak in isolation.
func (w *Workspace) ResetPeakAux() {
	if w == nil {
		return
	}
	w.auxPeak.Store(w.auxInUse.Load())
}

// getU32 pops (or allocates) a 32-bit block of capacity >= n, length n.
func (w *Workspace) getU32(n int) []uint32 {
	c := classFor(n)
	if c >= 0 {
		w.mu.Lock()
		if l := w.u32[c]; len(l) > 0 {
			b := l[len(l)-1]
			w.u32[c] = l[:len(l)-1]
			w.mu.Unlock()
			w.hit()
			w.auxAcquire(4 * cap(b))
			return b[:n]
		}
		w.mu.Unlock()
		w.miss()
		w.auxAcquire(4 * classSize(c))
		return make([]uint32, n, classSize(c))
	}
	w.miss()
	w.auxAcquire(4 * n)
	return make([]uint32, n)
}

func (w *Workspace) putU32(s []uint32) {
	w.auxRelease(4 * cap(s))
	c := classFor(cap(s))
	if c < 0 || classSize(c) != cap(s) {
		return // oversize or foreign buffer: let the GC have it
	}
	w.mu.Lock()
	w.u32[c] = append(w.u32[c], s[:cap(s)])
	w.mu.Unlock()
}

func (w *Workspace) getU64(n int) []uint64 {
	c := classFor(n)
	if c >= 0 {
		w.mu.Lock()
		if l := w.u64[c]; len(l) > 0 {
			b := l[len(l)-1]
			w.u64[c] = l[:len(l)-1]
			w.mu.Unlock()
			w.hit()
			w.auxAcquire(8 * cap(b))
			return b[:n]
		}
		w.mu.Unlock()
		w.miss()
		w.auxAcquire(8 * classSize(c))
		return make([]uint64, n, classSize(c))
	}
	w.miss()
	w.auxAcquire(8 * n)
	return make([]uint64, n)
}

func (w *Workspace) putU64(s []uint64) {
	w.auxRelease(8 * cap(s))
	c := classFor(cap(s))
	if c < 0 || classSize(c) != cap(s) {
		return
	}
	w.mu.Lock()
	w.u64[c] = append(w.u64[c], s[:cap(s)])
	w.mu.Unlock()
}

// Ints returns an []int of length n (contents undefined; callers that need
// zeros clear it). Allocates plainly when w is nil. Only an arena without
// a budget lends a buffer of a larger class (see Capacity).
func (w *Workspace) Ints(n int) []int {
	if n == 0 {
		return nil
	}
	if w == nil {
		return make([]int, n)
	}
	c := classFor(n)
	if c >= 0 {
		last := c
		if w.auxBudget.Load() <= 0 {
			last = spillLimit(c)
		}
		w.mu.Lock()
		for cc := c; cc <= last; cc++ {
			if l := w.ints[cc]; len(l) > 0 {
				b := l[len(l)-1]
				w.ints[cc] = l[:len(l)-1]
				w.mu.Unlock()
				w.hit()
				w.auxAcquire(intSize * cap(b))
				return b[:n]
			}
		}
		w.mu.Unlock()
		w.miss()
		w.auxAcquire(intSize * classSize(c))
		return make([]int, n, classSize(c))
	}
	w.miss()
	w.auxAcquire(intSize * n)
	return make([]int, n)
}

// intSize is the byte width of int on this platform, for aux accounting.
const intSize = int(unsafe.Sizeof(int(0)))

// PutInts returns a buffer obtained from Ints to the arena. No-op on a nil
// workspace or a nil slice.
func (w *Workspace) PutInts(s []int) {
	if w == nil || cap(s) == 0 {
		return
	}
	w.auxRelease(intSize * cap(s))
	w.poolInts(s)
}

// poolInts files an unmetered buffer under its capacity class (dropping
// capacities no class has).
func (w *Workspace) poolInts(s []int) {
	c := classFor(cap(s))
	if c < 0 || classSize(c) != cap(s) {
		return
	}
	w.mu.Lock()
	w.ints[c] = append(w.ints[c], s[:cap(s)])
	w.mu.Unlock()
}

// Int32s returns an []int32 of length n (contents undefined), backed by the
// 32-bit arena.
func (w *Workspace) Int32s(n int) []int32 {
	if n == 0 {
		return nil
	}
	if w == nil {
		return make([]int32, n)
	}
	b := w.getU32(n)
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(b))), cap(b))[:n]
}

// PutInt32s returns a buffer obtained from Int32s to the arena.
func (w *Workspace) PutInt32s(s []int32) {
	if w == nil || cap(s) == 0 {
		return
	}
	w.putU32(unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)))
}

// Keys returns a []K of length n (contents undefined) from the arena of
// K's width. Allocates plainly when w is nil.
func Keys[K kv.Key](w *Workspace, n int) []K {
	if n == 0 {
		return nil
	}
	if w == nil {
		return make([]K, n)
	}
	if kv.Width[K]() == 32 {
		b := w.getU32(n)
		return unsafe.Slice((*K)(unsafe.Pointer(unsafe.SliceData(b))), cap(b))[:n]
	}
	b := w.getU64(n)
	return unsafe.Slice((*K)(unsafe.Pointer(unsafe.SliceData(b))), cap(b))[:n]
}

// PutKeys returns a buffer obtained from Keys to the arena.
func PutKeys[K kv.Key](w *Workspace, s []K) {
	if w == nil || cap(s) == 0 {
		return
	}
	if kv.Width[K]() == 32 {
		w.putU32(unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)))
		return
	}
	w.putU64(unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), cap(s)))
}

// ResizeInts grows (or shrinks) a row to length n, reusing its backing
// array when the capacity suffices and swapping it through the arena
// otherwise. Accepts nil rows; contents are undefined after a swap.
func (w *Workspace) ResizeInts(row []int, n int) []int {
	if cap(row) >= n {
		return row[:n]
	}
	w.PutInts(row)
	return w.Ints(n)
}

// Matrix returns a rows x cols [][]int (contents undefined): the shape of
// per-worker histogram and offset tables. The spine and the rows are both
// pooled; return the whole matrix with PutMatrix. A pooled row too small
// for cols, or under a budget of another class than cols needs, goes back
// to the Ints classes for a row of the right one.
func (w *Workspace) Matrix(rows, cols int) [][]int {
	if rows == 0 {
		return nil
	}
	var m [][]int
	if w == nil {
		m = make([][]int, rows)
	} else {
		w.mu.Lock()
		for i := len(w.mats) - 1; i >= 0; i-- {
			if cap(w.mats[i]) >= rows {
				m = w.mats[i][:rows]
				w.mats[i] = w.mats[len(w.mats)-1]
				w.mats = w.mats[:len(w.mats)-1]
				break
			}
		}
		w.mu.Unlock()
		if m == nil {
			w.miss()
			m = make([][]int, rows)
		} else {
			w.hit()
		}
	}
	exact := w != nil && w.auxBudget.Load() > 0
	for i := range m {
		if c := cap(m[i]); c >= cols && (!exact || c == Capacity(cols)) {
			m[i] = m[i][:cols]
			if w != nil {
				w.auxAcquire(intSize * c)
			}
			continue
		}
		if w != nil && cap(m[i]) > 0 {
			w.poolInts(m[i])
		}
		m[i] = w.Ints(cols)
	}
	return m
}

// PutMatrix returns a matrix obtained from Matrix to the arena. The rows
// stay attached to the spine so a same-or-smaller reacquisition needs no
// arena traffic.
func (w *Workspace) PutMatrix(m [][]int) {
	if w == nil || m == nil {
		return
	}
	total := 0
	for _, row := range m {
		total += cap(row)
	}
	w.auxRelease(intSize * total)
	w.mu.Lock()
	w.mats = append(w.mats, m)
	w.mu.Unlock()
}

// Scratch slot ids: one per reusable kernel-driver type. Two concurrent
// users of one slot simply miss (each gets its own object); a slot reused
// with a different concrete type also misses and the stale object is
// dropped — both are correctness-neutral.
const (
	SlotParHist = iota
	SlotScatter
	SlotInPlaceChunk
	SlotCmpWork
	SlotMsbWork
	SlotCtl
	SlotBlockPerm
	SlotExtSort
	numSlots
)

// Scratch pops a reusable driver object of type *T from slot, or hands the
// zero value to a fresh one. Returns newly allocated objects when w is nil
// or the slot holds a different type.
func Scratch[T any](w *Workspace, slot int) *T {
	if w == nil {
		return new(T)
	}
	w.mu.Lock()
	l := w.scratch[slot]
	for i := len(l) - 1; i >= 0; i-- {
		if t, ok := l[i].(*T); ok {
			l[i] = l[len(l)-1]
			l[len(l)-1] = nil
			w.scratch[slot] = l[:len(l)-1]
			w.mu.Unlock()
			w.hit()
			return t
		}
	}
	w.mu.Unlock()
	w.miss()
	return new(T)
}

// PutScratch returns a driver object to its slot. The caller must drop its
// own references: the object will be handed to a later Scratch call as-is.
func PutScratch[T any](w *Workspace, slot int, t *T) {
	if w == nil || t == nil {
		return
	}
	w.mu.Lock()
	w.scratch[slot] = append(w.scratch[slot], t)
	w.mu.Unlock()
}
