// Package numa simulates the NUMA layer of the paper's 4-socket platform:
// a topology of C memory regions, per-region workers, and transfer
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
