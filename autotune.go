package partsort

import (
	"sync"
	"sync/atomic"

	"repro/internal/kv"
	"repro/internal/obs"
	"repro/internal/tune"
)

// MachineProfile is the calibrated description of the host machine: the
// three Section 3.2 cost factors the sort model reads (sequential read
// bandwidth, radix histogram throughput, out-of-cache scatter bandwidth),
// measured by running this library's own kernels. Calibrate once, Save
// the JSON, and reuse it across processes via SortOptions.Profile or
// LoadMachineProfile. See README "Auto-tuning".
type MachineProfile = tune.MachineProfile

// SortPlan is the adaptive planner's output for one auto-tuned sort: the
// algorithm and worker count, and the modeled pass count, wall-clock and
// footprint behind them. Auto-tuned runs record theirs in
// SortStats.Plan.
type SortPlan = tune.Plan

// The process-wide machine profile auto-tuned sorts fall back to when
// SortOptions.Profile is nil; nil until Calibrate, SetMachineProfile,
// LoadMachineProfile, or the first lazy quick calibration installs one.
var (
	procProfile atomic.Pointer[tune.MachineProfile]
	calibrateMu sync.Mutex
)

// Calibrate runs the full calibration probes (a few hundred milliseconds
// of self-timed microbenchmarks over this library's partitioning
// kernels), installs the resulting profile as the process-wide default
// for auto-tuned sorts, and returns it. Call it once at startup — or
// once per machine: profiles round-trip through JSON (Save/Load) and
// cmd/tunecli calibrates offline.
func Calibrate() *MachineProfile {
	calibrateMu.Lock()
	defer calibrateMu.Unlock()
	p := tune.Calibrate(tune.Config{})
	procProfile.Store(p)
	return p
}

// SetMachineProfile installs p as the process-wide profile auto-tuned
// sorts use when SortOptions.Profile is nil. Returns the profile's
// validation error (and installs nothing) if p is malformed.
func SetMachineProfile(p *MachineProfile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	procProfile.Store(p)
	return nil
}

// LoadMachineProfile reads a profile previously saved by
// (*MachineProfile).Save or cmd/tunecli, installs it process-wide, and
// returns it — the reuse half of the calibrate-once workflow.
func LoadMachineProfile(path string) (*MachineProfile, error) {
	p, err := tune.Load(path)
	if err != nil {
		return nil, err
	}
	procProfile.Store(p)
	return p, nil
}

// currentProfile returns the process-wide profile, quick-calibrating one
// on first use (tens of milliseconds, once per process) so AutoTune
// works without any setup call.
func currentProfile() *tune.MachineProfile {
	if p := procProfile.Load(); p != nil {
		return p
	}
	calibrateMu.Lock()
	defer calibrateMu.Unlock()
	if p := procProfile.Load(); p != nil {
		return p
	}
	p := tune.Calibrate(tune.Config{Quick: true})
	procProfile.Store(p)
	return p
}

// autotuneMinN is the input size below which auto-tuning is skipped
// entirely: sampling plus planning costs more than any knob could
// recover on a run that finishes in microseconds.
const autotuneMinN = 1 << 12

// algoCode numbers the planner's algorithm choice for the numeric
// obs.Meta args (0 LSB, 1 MSB, 2 CMP).
func algoCode(a tune.Algo) uint64 {
	switch a {
	case tune.AlgoMSB:
		return 1
	case tune.AlgoCMP:
		return 2
	}
	return 0
}

// autotune applies the adaptive planner to one AutoTune run: it samples
// the key column, asks the planner for a plan under the entry point's
// constraints, and returns effective options — a copy with AutoTune
// cleared (so nested entry points do not re-plan) and Threads filled
// from the plan when the caller left it zero. The plan is recorded in
// opt.Stats.Plan and emitted as an obs "autotune-plan" meta event.
// Returns (opt, nil) untouched when auto-tuning is off, and a nil plan
// below autotuneMinN.
func autotune[K Key](keys []K, opt *SortOptions, force tune.Algo, needStable, spaceTight bool) (*SortOptions, *SortPlan) {
	if opt == nil || !opt.AutoTune {
		return opt, nil
	}
	eff := *opt
	eff.AutoTune = false
	if len(keys) < autotuneMinN {
		return &eff, nil
	}
	prof := eff.Profile
	if prof == nil {
		prof = currentProfile()
	}
	w := tune.SampleKeys(keys, 0, eff.Seed)
	req := tune.Requirements{
		KeyBits:    kv.Width[K](),
		NeedStable: needStable,
		SpaceTight: spaceTight,
		Force:      force,
		MaxThreads: eff.Threads,
		MaxBytes:   eff.MaxAuxBytes,
	}
	plan := tune.Choose(prof, w, req)
	if eff.Threads == 0 {
		eff.Threads = plan.Threads
	}
	inPlace := uint64(0)
	if plan.InPlace {
		inPlace = 1
	}
	obs.Meta("autotune-plan", map[string]uint64{
		"algo":         algoCode(plan.Algo),
		"threads":      uint64(plan.Threads),
		"passes":       uint64(plan.Passes),
		"predicted_ns": uint64(plan.PredictedNs),
		"in_place":     inPlace,
		"aux_bytes":    uint64(plan.AuxBytes),
	})
	if eff.Stats != nil {
		eff.Stats.Plan = &plan
	}
	return &eff, &plan
}
