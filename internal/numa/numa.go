// Package numa simulates the NUMA layer of the paper's 4-socket platform:
// a topology of C memory regions, arrays allocated either as per-region
// contiguous segments or page-interleaved across regions, and transfer
// accounting that records every byte moved between regions.
//
// Substitution note (see DESIGN.md): this repository cannot pin threads or
// memory to physical sockets. The paper's NUMA contribution, however, is a
// set of *guarantees on transfer counts* — each tuple crosses the
// interconnect at most once for non-in-place shuffling (expected (x-1)/x
// crossings on x regions) and at most twice for in-place block shuffling
// (expected (2x²-3x+1)/x² crossings) — plus sequential remote access so
// hardware prefetch hides latency. Both are properties of the algorithms,
// which this package makes observable: algorithms declare which region owns
// each index range and report every cross-region copy, and the test suite
// asserts the paper's bounds hold.
package numa

import (
	"fmt"
	"sync/atomic"

	"repro/internal/hard"
	"repro/internal/kv"
)

// Region identifies one NUMA region (one CPU socket plus its local RAM).
type Region int

// Topology describes a machine with C NUMA regions and accumulates
// cross-region transfer statistics.
type Topology struct {
	c int
	// transfers[src*c+dst] is the number of bytes copied from region src to
	// region dst (src == dst entries record local traffic).
	transfers []atomic.Uint64
}

// NewTopology returns a topology with c regions. c must be positive.
func NewTopology(c int) *Topology {
	if c < 1 {
		panic(fmt.Sprintf("numa: topology needs at least one region, got %d", c))
	}
	return &Topology{c: c, transfers: make([]atomic.Uint64, c*c)}
}

// Regions returns the number of NUMA regions C.
func (t *Topology) Regions() int {
	return t.c
}

// Record accounts bytes moved from region src to region dst.
func (t *Topology) Record(src, dst Region, bytes uint64) {
	t.transfers[int(src)*t.c+int(dst)].Add(bytes)
}

// ResetTransfers zeroes the transfer counters.
func (t *Topology) ResetTransfers() {
	for i := range t.transfers {
		t.transfers[i].Store(0)
	}
}

// RemoteBytes returns the number of bytes that crossed region boundaries
// (src != dst) since the last reset.
func (t *Topology) RemoteBytes() uint64 {
	var sum uint64
	for s := 0; s < t.c; s++ {
		for d := 0; d < t.c; d++ {
			if s != d {
				sum += t.transfers[s*t.c+d].Load()
			}
		}
	}
	return sum
}

// LocalBytes returns the number of bytes recorded as region-local copies.
func (t *Topology) LocalBytes() uint64 {
	var sum uint64
	for s := 0; s < t.c; s++ {
		sum += t.transfers[s*t.c+s].Load()
	}
	return sum
}

// Matrix returns a copy of the full transfer matrix in bytes,
// indexed [src][dst].
func (t *Topology) Matrix() [][]uint64 {
	m := make([][]uint64, t.c)
	for s := 0; s < t.c; s++ {
		m[s] = make([]uint64, t.c)
		for d := 0; d < t.c; d++ {
			m[s][d] = t.transfers[s*t.c+d].Load()
		}
	}
	return m
}

// Meter is a goroutine-local transfer accumulator. Workers record into a
// Meter without synchronization and flush once at the end, so accounting
// does not serialize the hot path.
type Meter struct {
	topo *Topology
	m    []uint64
}

// NewMeter returns a meter bound to t.
func (t *Topology) NewMeter() *Meter {
	m := new(Meter)
	m.Bind(t)
	return m
}

// Bind points m at t with zeroed counts, reusing m's storage when it is
// large enough, so a pooled Meter rebinds without allocating.
func (m *Meter) Bind(t *Topology) {
	n := t.c * t.c
	if cap(m.m) < n {
		m.m = make([]uint64, n)
	}
	m.topo, m.m = t, m.m[:n]
	clear(m.m)
}

// Record accounts bytes moved from src to dst locally.
func (m *Meter) Record(src, dst Region, bytes uint64) {
	m.m[int(src)*m.topo.c+int(dst)] += bytes
}

// Flush adds the meter's counts to the topology and zeroes the meter.
func (m *Meter) Flush() {
	for i, v := range m.m {
		if v != 0 {
			m.topo.transfers[i].Add(v)
			m.m[i] = 0
		}
	}
}

// Placement describes how an Array's indices map to regions.
type Placement int

const (
	// Segmented places the array as C contiguous segments, segment i local
	// to region i (the NUMA-friendly allocation of Section 3.3).
	Segmented Placement = iota
	// Interleaved places consecutive pages round-robin across regions (the
	// OS interleaved allocation used by NUMA-oblivious code).
	Interleaved
)

// PageTuples is the simulated OS page size in tuples used by interleaved
// placement. With 8-byte tuples this models a 4 KiB page.
const PageTuples = 512

// Array is a column of keys or payloads with a region placement. Segs give
// per-region views for Segmented placement; Data is the whole backing slice.
type Array[K kv.Key] struct {
	Topo      *Topology
	Data      []K
	Placement Placement
	bounds    []int // Segmented: start index of each region's segment, len c+1
}

// NewSegmented allocates an n-element array split into equal contiguous
// segments, one per region.
func NewSegmented[K kv.Key](t *Topology, n int) *Array[K] {
	sizes := make([]int, t.c)
	base := n / t.c
	rem := n % t.c
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return NewSegmentedSizes[K](t, sizes)
}

// NewSegmentedSizes allocates a segmented array with the given per-region
// segment sizes.
func NewSegmentedSizes[K kv.Key](t *Topology, sizes []int) *Array[K] {
	if len(sizes) != t.c {
		panic(fmt.Sprintf("numa: %d sizes for %d regions", len(sizes), t.c))
	}
	n := 0
	bounds := make([]int, t.c+1)
	for i, s := range sizes {
		bounds[i] = n
		n += s
	}
	bounds[t.c] = n
	return &Array[K]{Topo: t, Data: make([]K, n), Placement: Segmented, bounds: bounds}
}

// NewInterleaved allocates an n-element array with page-interleaved
// placement.
func NewInterleaved[K kv.Key](t *Topology, n int) *Array[K] {
	return &Array[K]{Topo: t, Data: make([]K, n), Placement: Interleaved}
}

// WrapSegmented adopts an existing slice as a segmented array with the
// given segment bounds (len = regions+1, bounds[0] = 0,
// bounds[c] = len(data)).
func WrapSegmented[K kv.Key](t *Topology, data []K, bounds []int) *Array[K] {
	if len(bounds) != t.c+1 || bounds[0] != 0 || bounds[t.c] != len(data) {
		panic("numa: invalid segment bounds")
	}
	return &Array[K]{Topo: t, Data: data, Placement: Segmented, bounds: bounds}
}

// Len returns the number of elements.
func (a *Array[K]) Len() int {
	return len(a.Data)
}

// Owner returns the region that owns index i under the array's placement.
func (a *Array[K]) Owner(i int) Region {
	if a.Placement == Interleaved {
		return Region((i / PageTuples) % a.Topo.c)
	}
	// Segmented: binary scan over at most a handful of regions.
	for r := 1; r <= a.Topo.c; r++ {
		if i < a.bounds[r] {
			return Region(r - 1)
		}
	}
	return Region(a.Topo.c - 1)
}

// Segment returns region r's slice of the array (Segmented placement only).
func (a *Array[K]) Segment(r Region) []K {
	if a.Placement != Segmented {
		panic("numa: Segment on interleaved array")
	}
	return a.Data[a.bounds[r]:a.bounds[r+1]]
}

// SegmentBounds returns the [start, end) index range of region r's segment.
func (a *Array[K]) SegmentBounds(r Region) (int, int) {
	if a.Placement != Segmented {
		panic("numa: SegmentBounds on interleaved array")
	}
	return a.bounds[r], a.bounds[r+1]
}

// Bounds returns a copy of the segment boundary offsets.
func (a *Array[K]) Bounds() []int {
	return append([]int(nil), a.bounds...)
}

// Worker identifies one thread of the simulated machine: its NUMA region
// and its index within the region.
type Worker struct {
	Region Region
	Index  int // index within the region, [0, threadsPerRegion)
	ID     int // global thread id
}

// RunPerRegion runs threadsPerRegion workers for each region concurrently
// and waits for all of them. fn must be safe for concurrent invocation.
// Worker panics are contained: the first is re-raised on the caller with the
// worker's stack after every sibling finishes, instead of killing the
// process as a bare goroutine panic would.
func RunPerRegion(t *Topology, threadsPerRegion int, fn func(w Worker)) {
	g := hard.NewGroup(nil)
	id := 0
	for r := 0; r < t.c; r++ {
		for k := 0; k < threadsPerRegion; k++ {
			w := Worker{Region: Region(r), Index: k, ID: id}
			id++
			g.Go(func() { fn(w) })
		}
	}
	g.Wait()
}

// RunWorkers runs n workers with sequential global ids (region assignment
// round-robin) and waits for all of them, containing worker panics like
// RunPerRegion.
func RunWorkers(t *Topology, n int, fn func(w Worker)) {
	g := hard.NewGroup(nil)
	for i := 0; i < n; i++ {
		w := Worker{Region: Region(i % t.c), Index: i / t.c, ID: i}
		g.Go(func() { fn(w) })
	}
	g.Wait()
}
