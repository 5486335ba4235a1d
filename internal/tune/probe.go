// Calibration probes: short, self-timed microbenchmarks that measure the
// host's Section 3.2 cost factors by running this repository's own
// partitioning kernels — the sequential-read baseline, radix histogram
// throughput, and the out-of-cache scatter bandwidth (Figures 3 and 6) —
// the three numbers MachineProfile.Mem projects into the sort model.

package tune

import (
	"runtime"
	"time"

	"repro/internal/kv"
	"repro/internal/memmodel"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// Config parameterizes Calibrate.
type Config struct {
	// Quick shrinks the probe arrays and repetition counts to finish in
	// tens of milliseconds instead of hundreds — for tests and for the
	// lazy first-use calibration path, at some measurement-noise cost.
	Quick bool
	// Seed makes the probe inputs deterministic (0 selects a fixed
	// default). Timings still vary run to run; the inputs do not.
	Seed uint64
}

// Probe working-set sizes in tuples.
const (
	outTuples      = 1 << 20 // out-of-cache probes: 16-32 MB working sets
	outTuplesQuick = 1 << 17
)

// Calibrate measures the host's cost factors and returns the profile. The
// full run takes a few hundred milliseconds; cfg.Quick cuts it by roughly
// an order of magnitude. The probes are single-threaded: per-tuple kernel
// costs are per-core properties, and the planner scales them by the worker
// count separately.
func Calibrate(cfg Config) *MachineProfile {
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x7E57ED
	}
	n := outTuples
	reps := 3
	if cfg.Quick {
		n = outTuplesQuick
		reps = 2
	}

	p := &MachineProfile{
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		CalibratedAt: time.Now().UTC().Format(time.RFC3339),
		Quick:        cfg.Quick,
	}

	w := ws.New()
	defer w.Close()

	keys := randKeys[uint64](n, seed)
	p.SeqReadGBps = probeSeqRead(keys, reps)
	p.Hist64MKeys = probeHistogram(w, keys, reps)
	// One-way streaming write bandwidth of the canonical 8-bit buffered
	// scatter: output bytes per second at the measured per-tuple cost.
	if ns := probeScatterOut(w, keys, 8, reps); ns > 0 {
		p.ScatterGBps = 16 / ns
	}
	return p
}

// Mem projects the measured cost factors into a memmodel.Profile via
// memmodel.Calibrated, replacing the analytic model's hard-coded platform
// constants with profile-driven ones: read bandwidth from the sequential
// probe, write bandwidth from the buffered scatter probe, and the
// scalar-op cost backed out of the histogram probe (the model prices a
// radix histogram at ~3 scalar ops per key). A missing measurement
// keeps the model's default.
func (p *MachineProfile) Mem() memmodel.Profile {
	scalarNs := 0.0
	if p.Hist64MKeys > 0 {
		scalarNs = 1e3 / p.Hist64MKeys / 3
	}
	return memmodel.Calibrated(p.NumCPU, p.SeqReadGBps, p.ScatterGBps, scalarNs)
}

// randKeys returns n deterministic pseudo-random keys (splitmix64 stream).
func randKeys[K kv.Key](n int, seed uint64) []K {
	keys := make([]K, n)
	x := seed
	for i := range keys {
		x += 0x9E3779B97F4A7C15
		z := x
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		keys[i] = K(z)
	}
	return keys
}

// timeBest runs f reps times and returns the fastest wall-clock — the
// standard microbenchmark estimator: the minimum is the run least
// disturbed by scheduling noise.
func timeBest(reps int, f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// probeSink defeats dead-code elimination of the probe loops.
var probeSink uint64

// probeSeqRead measures the sequential read baseline in GB/s: a plain sum
// scan, the cheapest pass any partitioning variant must still pay.
func probeSeqRead(keys []uint64, reps int) float64 {
	var sum uint64
	sum += keys[0] // warm the pages before timing
	for _, k := range keys {
		sum += k
	}
	d := timeBest(reps, func() {
		var s uint64
		for _, k := range keys {
			s += k
		}
		sum += s
	})
	probeSink += sum
	return gbps(8*len(keys), d)
}

// probeHistogram measures radix histogram throughput in million keys per
// second at the canonical 8-bit fanout (Figure 5's radix method).
func probeHistogram[K kv.Key](w *ws.Workspace, keys []K, reps int) float64 {
	fn := pfunc.NewRadix[K](0, 8)
	hist := w.Ints(fn.Fanout())
	defer w.PutInts(hist)
	part.HistogramInto(hist, keys, fn) // warm-up
	d := timeBest(reps, func() {
		part.HistogramInto(hist, keys, fn)
	})
	probeSink += uint64(hist[0])
	return float64(len(keys)) / 1e6 / d.Seconds()
}

// probeScatterOut times Algorithm 3 (buffered, software write-combining
// scatter) over the full out-of-cache input.
func probeScatterOut[K kv.Key](w *ws.Workspace, keys []K, bits, reps int) float64 {
	n := len(keys)
	fn := pfunc.NewRadix[K](0, uint(bits))
	vals := ws.Keys[K](w, n)
	dstK := ws.Keys[K](w, n)
	dstV := ws.Keys[K](w, n)
	hist := w.Ints(fn.Fanout())
	starts := w.Ints(fn.Fanout())
	copy(vals, keys)
	part.HistogramInto(hist, keys, fn)
	part.StartsInto(starts, hist)
	part.NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, fn, starts, nil) // warm-up
	d := timeBest(reps, func() {
		part.NonInPlaceOutOfCache(w, keys, vals, dstK, dstV, fn, starts, nil)
	})
	probeSink += uint64(dstK[0])
	w.PutInts(hist)
	w.PutInts(starts)
	ws.PutKeys(w, vals)
	ws.PutKeys(w, dstK)
	ws.PutKeys(w, dstV)
	return float64(d.Nanoseconds()) / float64(n)
}

// gbps converts bytes moved in d to GB/s.
func gbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e9
}
