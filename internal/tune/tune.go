// Package tune is the machine-calibrated auto-tuning subsystem: it turns
// the paper's central observation — that the best algorithm depends on
// measurable machine cost factors (Section 3.2) and on the workload
// (domain density, skew; Sections 5 and 6) — into a runtime decision
// procedure:
//
//   - Calibrate runs short self-timed microbenchmarks (probe.go) against
//     the repository's own kernels and records the three cost factors the
//     sort model reads — sequential read bandwidth, radix histogram
//     throughput, and the out-of-cache scatter bandwidth — in a
//     JSON-serializable MachineProfile;
//   - SampleKeys (sample.go) draws a cheap uniform sample of a key column
//     and estimates the workload descriptors the paper's decision table
//     needs: the key span, duplicate density, and Zipf-ish head mass;
//   - Choose (plan.go) prices each candidate algorithm with memmodel.Sort
//     on the profile's projection (MachineProfile.Mem) and returns the
//     algorithm and worker count as a Plan. Every sort sizes its own
//     passes from n, so the plan carries no pass widths.
//
// The substitution argument (DESIGN.md, "Auto-tuning"): the paper predicts
// performance from measured machine constants; this package measures the
// same constants by timing the very kernels the sort will run, and
// MachineProfile.Mem projects them into a memmodel.Profile, so the
// analytic model of Section 3.2 runs with profile-driven constants instead
// of the hard-coded 2014 platform.
package tune

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// MachineProfile is the calibrated description of the host machine: the
// three Section 3.2 cost factors memmodel.Sort reads, measured by running
// this repository's own kernels (see Calibrate), in a JSON round-trippable
// form so a profile can be calibrated once (cmd/tunecli) and reused across
// processes. Load ignores fields it does not know, so profiles that also
// carry per-fanout scatter curves and a 32-bit histogram throughput still
// load.
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
	// of the 8-bit out-of-cache scatter of 64-bit pairs in GB/s (one-way,
	// output column bytes only) — the out-of-cache write cost of Section
	// 3.2.1.
	ScatterGBps float64 `json:"scatter_gbps"`
	// Hist64MKeys is the measured radix histogram throughput over 64-bit
	// keys in million keys per second — the histogram-generation cost of
	// Figure 5.
	Hist64MKeys float64 `json:"hist64_mkeys"`
}

// Validate reports whether the profile carries usable measurements: every
// throughput finite and positive. Load rejects profiles that fail it.
func (p *MachineProfile) Validate() error {
	if p == nil {
		return fmt.Errorf("tune: nil profile")
	}
	if !finitePositive(p.SeqReadGBps) || !finitePositive(p.ScatterGBps) {
		return fmt.Errorf("tune: bandwidth in profile not finite and positive")
	}
	if !finitePositive(p.Hist64MKeys) {
		return fmt.Errorf("tune: histogram throughput in profile not finite and positive")
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
