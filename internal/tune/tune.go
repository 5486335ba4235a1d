// Package tune is the machine-calibrated auto-tuning subsystem: it turns
// the paper's central observation — that the best partitioning variant,
// fanout, and pass count depend on measurable machine cost factors
// (Section 3.2: cache and TLB capacity, the gap between in-cache and
// out-of-cache scatter cost) and on the workload (domain density, skew;
// Sections 5 and 6) — into a runtime decision procedure:
//
//   - Calibrate runs short self-timed microbenchmarks (probe.go) against
//     the repository's own partitioning kernels and records the host's
//     cost factors in a JSON-serializable MachineProfile;
//   - SampleKeys (sample.go) draws a cheap reservoir sample of a key
//     column and estimates the workload descriptors the paper's decision
//     table needs: domain bits, duplicate density, and Zipf-ish head mass;
//   - Choose (plan.go) minimizes the calibrated cost model over the
//     candidate plans — algorithm, radix bits per pass, range fanout, and
//     worker count — and returns the winner as a Plan.
//
// The substitution argument (DESIGN.md, "Auto-tuning"): the paper predicts
// partitioning performance from measured machine constants; this package
// measures the same constants by timing the very kernels the sort will
// run, so probe timings stand in for the paper's measured cost factors on
// whatever hardware the library finds itself on. MachineProfile.Mem
// additionally projects the measurements into a memmodel.Profile, so the
// analytic model of Section 3.2 runs with profile-driven constants instead
// of the hard-coded 2014 platform.
package tune

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// ScatterPoint records the measured per-tuple cost of one buffered scatter
// fanout: the paper's in-cache versus out-of-cache partitioning costs
// (Section 3.2, Figures 3 and 6) at fanout 2^Bits.
type ScatterPoint struct {
	// Bits is the radix fanout in bits (fanout = 2^Bits).
	Bits int `json:"bits"`
	// InCacheNs is the measured ns/tuple of the simple non-in-place
	// scatter (Algorithm 1) on a cache-resident working set.
	InCacheNs float64 `json:"in_cache_ns"`
	// OutCacheNs is the measured ns/tuple of the software write-combining
	// scatter (Algorithm 3) on an out-of-cache working set.
	OutCacheNs float64 `json:"out_cache_ns"`
}

// MachineProfile is the calibrated description of the host machine: the
// Section 3.2 cost factors measured by running this repository's own
// kernels (see Calibrate), in a JSON round-trippable form so a profile can
// be calibrated once (cmd/tunecli) and reused across processes.
type MachineProfile struct {
	// GoVersion/GOOS/GOARCH/NumCPU identify the environment the profile
	// was calibrated on; Load does not refuse mismatches, but planners on
	// a different machine should recalibrate.
	GoVersion string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// CalibratedAt is the RFC 3339 calibration timestamp.
	CalibratedAt string `json:"calibrated_at"`
	// Quick records whether the reduced-budget probe sizes were used.
	Quick bool `json:"quick,omitempty"`

	// SeqReadGBps is the measured single-thread sequential read bandwidth
	// in GB/s — the baseline every partitioning pass must at least pay.
	SeqReadGBps float64 `json:"seq_read_gbps"`
	// ScatterGBps is the measured single-thread streaming write bandwidth
	// of the 8-bit out-of-cache scatter in GB/s (one-way, output column
	// bytes only) — the out-of-cache write cost of Section 3.2.1.
	ScatterGBps float64 `json:"scatter_gbps"`

	// Hist32MKeys/Hist64MKeys are measured radix histogram throughputs in
	// million keys per second for 32- and 64-bit keys — the
	// histogram-generation cost of Figure 5.
	Hist32MKeys float64 `json:"hist32_mkeys"`
	Hist64MKeys float64 `json:"hist64_mkeys"`

	// Scatter32/Scatter64 are the per-fanout scatter cost curves for 32-
	// and 64-bit tuples, ordered by ascending Bits.
	Scatter32 []ScatterPoint `json:"scatter32"`
	Scatter64 []ScatterPoint `json:"scatter64"`
}

// Validate reports whether the profile carries usable measurements: every
// throughput finite and positive and both scatter curves non-empty with
// finite, positive, Bits-ordered points. Load rejects profiles that fail
// it.
func (p *MachineProfile) Validate() error {
	if p == nil {
		return fmt.Errorf("tune: nil profile")
	}
	if !finitePositive(p.SeqReadGBps) || !finitePositive(p.ScatterGBps) {
		return fmt.Errorf("tune: bandwidth in profile not finite and positive")
	}
	if !finitePositive(p.Hist32MKeys) || !finitePositive(p.Hist64MKeys) {
		return fmt.Errorf("tune: histogram throughput in profile not finite and positive")
	}
	for _, curve := range [][]ScatterPoint{p.Scatter32, p.Scatter64} {
		if len(curve) == 0 {
			return fmt.Errorf("tune: empty scatter curve in profile")
		}
		prev := 0
		for _, pt := range curve {
			if pt.Bits <= prev || !finitePositive(pt.InCacheNs) || !finitePositive(pt.OutCacheNs) {
				return fmt.Errorf("tune: malformed scatter point {bits %d}", pt.Bits)
			}
			prev = pt.Bits
		}
	}
	return nil
}

// finitePositive reports whether x is a usable measurement: x > 0 is
// already false for NaN and -Inf, so only +Inf needs excluding.
func finitePositive(x float64) bool {
	return x > 0 && !math.IsInf(x, 1)
}

// Save writes the profile as indented JSON to path (the calibrate-once
// half of the calibrate-once/reuse-profile workflow).
func (p *MachineProfile) Save(path string) error {
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("tune: marshal profile: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a profile previously written by Save and validates it.
func Load(path string) (*MachineProfile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p MachineProfile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("tune: parse profile %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &p, nil
}

// scatterCurve returns the scatter cost curve for the given key width in
// bits (32 or 64).
func (p *MachineProfile) scatterCurve(keyBits int) []ScatterPoint {
	if keyBits == 32 {
		return p.Scatter32
	}
	return p.Scatter64
}

// histNs returns the measured per-key histogram cost in ns for the given
// key width.
func (p *MachineProfile) histNs(keyBits int) float64 {
	mk := p.Hist64MKeys
	if keyBits == 32 {
		mk = p.Hist32MKeys
	}
	if mk <= 0 {
		return 1 // defensive: never divide by zero on a hand-built profile
	}
	return 1e3 / mk
}

// scatterNs interpolates the measured scatter cost curve at the given
// radix bits: in-cache or out-of-cache per inCache, linear between probed
// points, clamped to the curve's ends beyond them.
func (p *MachineProfile) scatterNs(keyBits, bits int, inCache bool) float64 {
	curve := p.scatterCurve(keyBits)
	pick := func(pt ScatterPoint) float64 {
		if inCache {
			return pt.InCacheNs
		}
		return pt.OutCacheNs
	}
	if len(curve) == 0 {
		return 1
	}
	if bits <= curve[0].Bits {
		return pick(curve[0])
	}
	for i := 1; i < len(curve); i++ {
		if bits <= curve[i].Bits {
			lo, hi := curve[i-1], curve[i]
			f := float64(bits-lo.Bits) / float64(hi.Bits-lo.Bits)
			return pick(lo) + f*(pick(hi)-pick(lo))
		}
	}
	// Beyond the probed range the cost grows with the frontier working
	// set; extrapolate the last segment's slope rather than flat-lining.
	n := len(curve)
	if n == 1 {
		return pick(curve[0])
	}
	lo, hi := curve[n-2], curve[n-1]
	slope := (pick(hi) - pick(lo)) / float64(hi.Bits-lo.Bits)
	if slope < 0 {
		slope = 0
	}
	return pick(hi) + slope*float64(bits-hi.Bits)
}
