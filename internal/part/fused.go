package part

import (
	"fmt"

	"repro/internal/hard"
	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/ws"
)

// fusedRunner is the worker-pool driver of FusedHistograms. Each worker
// builds its chunk's pass-0 histogram plus private joint digit-pair
// histograms for every consecutive pass pair; the coordinator merges the
// privates after the barrier, so the scan itself is synchronization-free.
type fusedRunner[K kv.Key] struct {
	keys   []K
	bounds []int
	m      int
	shifts [MaxRadixPasses]uint
	masks  [MaxRadixPasses]K
	sizes  [MaxRadixPasses]int
	h0     [][]int // per-worker pass-0 histograms
	loc    [][]int // workers*(m-1) private joint rows, worker-major
	ctl    *hard.Ctl
}

func (r *fusedRunner[K]) RunTask(t int) {
	lo, hi := r.bounds[t], r.bounds[t+1]
	sp := obs.Begin("fused-histogram", "worker", t)
	m := r.m
	h0 := r.h0[t]
	clear(h0)
	if m == 1 {
		s0, m0 := r.shifts[0], r.masks[0]
		for c := lo; c < hi; c += hard.CkptTuples {
			r.ctl.Checkpoint()
			for _, k := range r.keys[c:min(c+hard.CkptTuples, hi)] {
				h0[(k>>s0)&m0]++
			}
		}
		sp.EndN(int64(hi - lo))
		return
	}
	loc := r.loc[t*(m-1) : (t+1)*(m-1)]
	for _, row := range loc {
		clear(row)
	}
	for c := lo; c < hi; c += hard.CkptTuples {
		r.ctl.Checkpoint()
		for _, k := range r.keys[c:min(c+hard.CkptTuples, hi)] {
			prev := int((k >> r.shifts[0]) & r.masks[0])
			h0[prev]++
			for i := 1; i < m; i++ {
				d := int((k >> r.shifts[i]) & r.masks[i])
				loc[i-1][prev*r.sizes[i]+d]++
				prev = d
			}
		}
	}
	sp.EndN(int64(hi - lo))
}

// FusedHistograms is the paper's one-read-pass histogramming (Section
// 4.2.1) generalized to parallel multi-pass LSB: a single scan of the keys
// computes
//
//   - h0[t], the pass-0 histogram of chunk keys[bounds[t]:bounds[t+1]]
//     (exactly what ParallelScatter needs for the first pass), and
//   - joints[k], the global joint histogram of consecutive digit pairs:
//     joints[k][d*P_{k+1}+e] counts keys whose pass-k digit is d and whose
//     pass-k+1 digit is e, stored flat with P_{k+1} columns.
//
// After pass k the data is grouped by digit d, so a later pass's per-worker
// histograms can be derived from joints by summing the rows a worker owns —
// no re-scan of the data, replacing the per-pass histogram read of the
// naive driver. The per-digit totals (row sums of joints[k-1], or column
// sums of joints[k]) give the global pass histograms.
//
// Workers checkpoint ctl every hard.CkptTuples scanned tuples (the scan is
// read-only, so interruption anywhere is safe). Both returned tables are
// pooled: release with PutMatrix (joints may be nil when only one pass
// exists).
func FusedHistograms[K kv.Key](w *ws.Workspace, keys []K, ranges [][2]uint, bounds []int, ctl *hard.Ctl) (h0, joints [][]int) {
	m := len(ranges)
	if m == 0 || m > MaxRadixPasses {
		panic(fmt.Sprintf("part: %d radix ranges (max %d)", m, MaxRadixPasses))
	}
	workers := len(bounds) - 1
	r := ws.Scratch[fusedRunner[K]](w, ws.SlotFusedRead)
	*r = fusedRunner[K]{keys: keys, bounds: bounds, m: m, ctl: ctl}
	for i, rg := range ranges {
		if rg[1] <= rg[0] || rg[1]-rg[0] >= 64 {
			panic(fmt.Sprintf("part: invalid radix bit range [%d,%d)", rg[0], rg[1]))
		}
		r.shifts[i] = rg[0]
		r.masks[i] = K(1)<<(rg[1]-rg[0]) - 1
		r.sizes[i] = 1 << (rg[1] - rg[0])
	}
	h0 = w.Matrix(workers, r.sizes[0])
	r.h0 = h0
	if m > 1 {
		r.loc = w.Matrix(workers*(m-1), 0)
		for t := 0; t < workers; t++ {
			for i := 0; i < m-1; i++ {
				j := t*(m-1) + i
				r.loc[j] = w.ResizeInts(r.loc[j], r.sizes[i]*r.sizes[i+1])
			}
		}
	}
	ws.RunWorkersCtl(w, workers, r, ctl)
	if m > 1 {
		joints = w.Matrix(m-1, 0)
		for i := 0; i < m-1; i++ {
			joints[i] = w.ResizeInts(joints[i], r.sizes[i]*r.sizes[i+1])
			clear(joints[i])
			for t := 0; t < workers; t++ {
				for j, c := range r.loc[t*(m-1)+i] {
					joints[i][j] += c
				}
			}
		}
		w.PutMatrix(r.loc)
	}
	*r = fusedRunner[K]{}
	ws.PutScratch(w, ws.SlotFusedRead, r)
	return h0, joints
}

// FusedJointCells returns the number of joint-histogram cells
// FusedHistograms would materialize per copy (the coordinator's global copy
// plus one private copy per worker live concurrently). Sort drivers gate
// the fused path on this budget and fall back to per-pass histogramming
// when the radix fanout makes joint tables larger than the scans they save.
func FusedJointCells(ranges [][2]uint) int {
	cells := 0
	for i := 0; i+1 < len(ranges); i++ {
		cells += 1 << (ranges[i][1] - ranges[i][0] + ranges[i+1][1] - ranges[i+1][0])
	}
	return cells
}
