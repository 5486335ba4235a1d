package main

import (
	"slices"
	"sync"
	"time"
)

// The speed of the 2-vCPU host this benchmark was built on drifts by
// ±20% over minutes as other tenants come and go, and raw medians of ten
// runs spread by 15–40%, wider than any regression bound worth having. So
// each run also times a harness-owned kernel on every thread the workload
// uses, and scales its end-to-end times to the kernel's reference time:
// scaled = measured × reference / reading. The kernel is the one whose
// readings tracked the workload's drift best across sets of ten runs:
//
//   - sortKernel, a sort of 256 KiB per thread, for the in-memory and
//     external sorts. In two sets of ten runs it tracked their median
//     call times with a correlation of 0.94–0.98, more consistently than
//     copy bandwidth (0.81–0.95) or the integer loop (0.58–0.97): much of
//     their work runs in cache, where other tenants' cache use and stolen
//     cycles hit hardest.
//   - loopKernel, an integer loop on 64 KiB per thread, for the daemon:
//     its cold start, codecs and scheduling are core-bound.
//
// A reading must not depend on the code under test, or a regression that
// slows the host's other work would also shrink the factor and hide
// itself. So the kernel runs only in quiet windows: before every call of
// a sort workload, after the previous call has returned and a full
// garbage collection has swept its garbage; before every set-up, with the
// earlier set-ups' memory returned to the operating system; and while the
// daemon is idle between slices of the measured load. Set-up and
// measurement are each scaled by the readings of their own window. The
// run document keeps the raw times and the factors.
type kernel int

const (
	loopKernel kernel = iota
	sortKernel
)

// refNs is each kernel's reference time, a typical reading on that host.
var refNs = [...]float64{loopKernel: 750_000, sortKernel: 3_300_000}

// hostSpeed times one workload's kernel and collects the readings of the
// current window of a run.
type hostSpeed struct {
	threads int
	kernel  kernel
	bufs    [][]uint64 // one per thread
	sortIn  []uint64

	mu sync.Mutex
	ns []float64
}

func newHostSpeed(threads int, k kernel) *hostSpeed {
	size := 1 << 13 // 64 KiB of uint64
	if k == sortKernel {
		size = 1 << 15 // 256 KiB
	}
	h := &hostSpeed{threads: threads, kernel: k, sortIn: make([]uint64, size)}
	x := uint64(1)
	for i := range h.sortIn {
		x = x*0x9E3779B97F4A7C15 + 1
		h.sortIn[i] = x
	}
	for range threads {
		h.bufs = append(h.bufs, make([]uint64, size))
	}
	return h
}

// sample times the kernel on every thread and records the reading: for
// the loop, the median of nine passes; for the sort, one.
func (h *hostSpeed) sample() {
	reps := 1
	if h.kernel == loopKernel {
		reps = 9
	}
	var ds []float64
	for r := 0; r < reps; r++ {
		ds = append(ds, float64(h.parallel(func(i int) {
			b := h.bufs[i]
			if h.kernel == sortKernel {
				copy(b, h.sortIn)
				slices.Sort(b)
				return
			}
			x := uint64(r + i + 1)
			for k := 0; k < 64; k++ {
				for j := range b {
					x = x*0x9E3779B97F4A7C15 + b[j]
					b[j] = x >> 7
				}
			}
		})))
	}
	slices.Sort(ds)
	h.mu.Lock()
	h.ns = append(h.ns, ds[len(ds)/2])
	h.mu.Unlock()
}

// parallel runs f(0..threads-1) concurrently and returns the time until
// all have finished.
func (h *hostSpeed) parallel(f func(i int)) time.Duration {
	var wg sync.WaitGroup
	t := time.Now()
	for i := range h.threads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
	return time.Since(t)
}

// reading returns the window's median reading in ns.
func (h *hostSpeed) reading() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.ns)
}

// scale is the factor that scales the window's times to the reference
// host speed.
func (h *hostSpeed) scale() float64 { return refNs[h.kernel] / h.reading() }

// reset starts a new window.
func (h *hostSpeed) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ns = nil
}
