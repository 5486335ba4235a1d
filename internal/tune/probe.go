// Calibration probes: short, self-timed microbenchmarks that measure the
// host's Section 3.2 cost factors by running this repository's own
// partitioning kernels — the sequential-read baseline, radix histogram
// throughput, and the per-fanout in-cache versus out-of-cache scatter cost
// that drives the paper's fanout/pass trade-off (Figures 3 and 6).

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

// probeBits is the set of radix fanouts the scatter probes measure; the
// planner interpolates between them. 4..12 bits spans the in-cache sweet
// spot through past the TLB cliff on any plausible machine (Figure 3).
var probeBits = []int{4, 6, 8, 10, 12}

// Probe working-set sizes in tuples.
const (
	outTuples      = 1 << 20 // out-of-cache probes: 16-32 MB working sets
	outTuplesQuick = 1 << 17
	inTuples       = 1 << 12 // in-cache probes: <=64 KB output per column pair
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

	keys64 := randKeys[uint64](n, seed)
	keys32 := randKeys[uint32](n, seed+1)

	p.SeqReadGBps = probeSeqRead(keys64, reps)
	p.Hist32MKeys = probeHistogram(w, keys32, reps)
	p.Hist64MKeys = probeHistogram(w, keys64, reps)
	p.Scatter32 = probeScatterCurve(w, keys32, reps)
	p.Scatter64 = probeScatterCurve(w, keys64, reps)

	// One-way streaming write bandwidth of the canonical 8-bit buffered
	// scatter: output bytes per second at the measured per-tuple cost.
	tupleBytes := 16.0
	out8 := p.scatterNs(64, 8, false)
	if out8 > 0 {
		p.ScatterGBps = tupleBytes / out8
	}
	return p
}

// Mem projects the measured cost factors into a memmodel.Profile via
// memmodel.Calibrated, replacing the analytic model's hard-coded platform
// constants with profile-driven ones: read bandwidth from the sequential
// probe, write bandwidth from the buffered scatter probe, and the
// scalar-op cost backed out of the histogram probe (the model prices a
// radix histogram at ~3 scalar ops per key).
func (p *MachineProfile) Mem() memmodel.Profile {
	scalarNs := p.histNs(64) / 3
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

// probeScatterCurve measures the per-tuple scatter cost at every probed
// fanout, in-cache (Algorithm 1 on a cache-resident working set) and
// out-of-cache (Algorithm 3, software write-combining, on a working set
// far beyond any cache).
func probeScatterCurve[K kv.Key](w *ws.Workspace, keys []K, reps int) []ScatterPoint {
	curve := make([]ScatterPoint, 0, len(probeBits))
	for _, bits := range probeBits {
		curve = append(curve, ScatterPoint{
			Bits:       bits,
			InCacheNs:  probeScatterIn(w, keys[:inTuples], bits, reps),
			OutCacheNs: probeScatterOut(w, keys, bits, reps),
		})
	}
	return curve
}

// probeScatterIn times Algorithm 1 (simple non-in-place scatter) over a
// cache-resident input, looped to a stable measurement length.
func probeScatterIn[K kv.Key](w *ws.Workspace, keys []K, bits, reps int) float64 {
	n := len(keys)
	fn := pfunc.NewRadix[K](0, uint(bits))
	vals := ws.Keys[K](w, n)
	dstK := ws.Keys[K](w, n)
	dstV := ws.Keys[K](w, n)
	hist := w.Ints(fn.Fanout())
	copy(vals, keys)
	part.HistogramInto(hist, keys, fn)
	const loops = 48 // ~200k tuples per measurement
	// Warm-up.
	part.NonInPlaceInCache(w, keys, vals, dstK, dstV, fn, hist, nil)
	d := timeBest(reps, func() {
		for l := 0; l < loops; l++ {
			part.NonInPlaceInCache(w, keys, vals, dstK, dstV, fn, hist, nil)
		}
	})
	probeSink += uint64(dstK[0])
	w.PutInts(hist)
	ws.PutKeys(w, vals)
	ws.PutKeys(w, dstK)
	ws.PutKeys(w, dstV)
	return float64(d.Nanoseconds()) / float64(loops*n)
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
