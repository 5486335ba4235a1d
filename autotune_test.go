// Tests for the machine-calibrated auto-tuning surface: plan/static
// agreement (bit-for-bit), profile round-trips through the public API,
// explicit knobs overriding the planner, and the argument validation the
// tuner added to Recommend.
package partsort

import (
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/tune"
)

// quickTestProfile calibrates once per test binary with the reduced
// probe budget, lazily so test runs that never touch auto-tuning pay
// nothing.
var (
	profileOnce sync.Once
	profileVal  *MachineProfile
)

func quickTestProfile() *MachineProfile {
	profileOnce.Do(func() {
		profileVal = tune.Calibrate(tune.Config{Quick: true})
	})
	return profileVal
}

// TestAutoTuneMatchesStatic is the agreement witness: on distinct keys (a
// permutation, so the sorted order of both columns is unique) every
// algorithm must produce bit-for-bit the same output auto-tuned, on the
// planned worker count, as with the static defaults.
func TestAutoTuneMatchesStatic(t *testing.T) {
	n := 1 << 15
	baseKeys := gen.Permutation[uint64](n, 9)
	baseVals := RIDs[uint64](n)
	algos := []struct {
		name string
		run  func(keys, vals []uint64, opt *SortOptions)
	}{
		{"LSB", SortLSB[uint64]},
		{"MSB", SortMSB[uint64]},
		{"CMP", SortCMP[uint64]},
	}
	for _, a := range algos {
		t.Run(a.name, func(t *testing.T) {
			sk, sv := slices.Clone(baseKeys), slices.Clone(baseVals)
			a.run(sk, sv, &SortOptions{})

			var st SortStats
			tk, tv := slices.Clone(baseKeys), slices.Clone(baseVals)
			a.run(tk, tv, &SortOptions{AutoTune: true, Profile: quickTestProfile(), Stats: &st})

			if !slices.Equal(sk, tk) || !slices.Equal(sv, tv) {
				t.Fatal("auto-tuned output differs from static output")
			}
			if st.Plan == nil {
				t.Fatal("auto-tuned run did not record its plan in Stats.Plan")
			}
			if string(st.Plan.Algo) != a.name || st.Plan.Threads < 1 {
				t.Fatalf("recorded plan has invalid knobs: %+v", st.Plan)
			}
		})
	}
}

// TestAutoTuneStableAndSkewed covers the cases where outputs need not be
// bit-for-bit comparable across knob choices: LSB's stability contract
// must survive tuning, and skewed duplicate-heavy inputs must come back
// sorted permutations.
func TestAutoTuneStableAndSkewed(t *testing.T) {
	n := 1 << 15
	keys := gen.ZipfKeys[uint64](n, 1<<30, 1.2, 4)
	vals := RIDs[uint64](n)
	origK, origV := slices.Clone(keys), slices.Clone(vals)

	sk, sv := slices.Clone(keys), slices.Clone(vals)
	SortLSB(sk, sv, &SortOptions{AutoTune: true, Profile: quickTestProfile()})
	if !IsStableSorted(sk, sv) {
		t.Fatal("auto-tuned LSB lost stability")
	}

	var st SortStats
	algo := Sort(keys, vals, false, false, &SortOptions{AutoTune: true, Profile: quickTestProfile(), Stats: &st})
	if !IsSorted(keys) || !SameMultiset(keys, vals, origK, origV) {
		t.Fatal("auto-tuned Sort did not produce a sorted permutation")
	}
	if st.Plan == nil {
		t.Fatal("auto-tuned Sort did not record a plan")
	}
	if got := st.Plan.Algo; string(got) != algo.String() {
		t.Fatalf("Sort returned %v but the plan says %s", algo, got)
	}
}

// TestAutoTuneExplicitKnobsWin pins the precedence rule: a knob the
// caller sets explicitly is never overridden by the planner. A 16-bit
// domain sorted with RadixBits 5 must do ceil(16/5) = 4 passes, where
// the planner's default would do 2.
func TestAutoTuneExplicitKnobsWin(t *testing.T) {
	n := 1 << 16
	keys := gen.Permutation[uint32](n, 7)
	vals := RIDs[uint32](n)
	var st SortStats
	SortLSB(keys, vals, &SortOptions{AutoTune: true, Profile: quickTestProfile(), RadixBits: 5, Stats: &st})
	if !IsSorted(keys) {
		t.Fatal("not sorted")
	}
	if st.Passes != 4 {
		t.Fatalf("explicit RadixBits 5 over a 16-bit domain should do 4 passes, did %d", st.Passes)
	}
	if st.Plan == nil {
		t.Fatal("plan not recorded")
	}
}

// TestSortPrefixedDenseKeys: dense keys behind a shared high prefix are
// still dense. 2^20 32-bit keys below 2^16, OR'd with 0xFFFF0000, must
// get the algorithm the bare keys get, from the static decision table
// and from the planner: both read the key span, not the maximum.
func TestSortPrefixedDenseKeys(t *testing.T) {
	n := 1 << 20
	bare := gen.Uniform[uint32](n, 1<<16, 5)
	prefixed := slices.Clone(bare)
	for i := range prefixed {
		prefixed[i] |= 0xFFFF0000
	}
	for _, opt := range []*SortOptions{nil, {AutoTune: true, Profile: quickTestProfile()}} {
		want := Sort(slices.Clone(bare), RIDs[uint32](n), false, false, opt)
		keys := slices.Clone(prefixed)
		if got := Sort(keys, RIDs[uint32](n), false, false, opt); got != want {
			t.Errorf("AutoTune=%v: prefixed keys sorted with %v, bare keys with %v", opt != nil, got, want)
		}
		if !IsSorted(keys) {
			t.Fatalf("AutoTune=%v: prefixed keys not sorted", opt != nil)
		}
	}
}

// TestAutoTuneSmallInputSkipsPlanning: below the planning threshold the
// sort must still work and Stats.Plan stays nil (no sampling, no probe).
func TestAutoTuneSmallInputSkipsPlanning(t *testing.T) {
	n := 1 << 10
	keys := gen.Uniform[uint64](n, 0, 11)
	vals := RIDs[uint64](n)
	var st SortStats
	SortMSB(keys, vals, &SortOptions{AutoTune: true, Profile: quickTestProfile(), Stats: &st})
	if !IsSorted(keys) {
		t.Fatal("not sorted")
	}
	if st.Plan != nil {
		t.Fatalf("tiny input should skip planning, got plan %+v", st.Plan)
	}
}

// TestTrySortAutoTune: the single hardened attempt honors AutoTune too.
func TestTrySortAutoTune(t *testing.T) {
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 13)
	vals := RIDs[uint32](n)
	if err := trySort(LSB, keys, vals, &SortOptions{AutoTune: true, Profile: quickTestProfile()}); err != nil {
		t.Fatalf("one LSB attempt with AutoTune: %v", err)
	}
	if !IsSorted(keys) {
		t.Fatal("not sorted")
	}
}

// TestProfilePublicRoundTrip exercises the full public calibration
// workflow: Calibrate installs a valid profile, Save/LoadMachineProfile
// round-trips it, and SetMachineProfile rejects junk.
func TestProfilePublicRoundTrip(t *testing.T) {
	p := Calibrate()
	if err := p.Validate(); err != nil {
		t.Fatalf("Calibrate returned an invalid profile: %v", err)
	}
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := p.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	q, err := LoadMachineProfile(path)
	if err != nil {
		t.Fatalf("LoadMachineProfile: %v", err)
	}
	if *q != *p {
		t.Fatal("loaded profile differs from the calibrated one")
	}
	if err := SetMachineProfile(&MachineProfile{}); err == nil {
		t.Fatal("SetMachineProfile accepted an empty profile")
	}
	if err := SetMachineProfile(p); err != nil {
		t.Fatalf("SetMachineProfile rejected a valid profile: %v", err)
	}
}

// TestOptionsProfileValidation: a malformed SortOptions.Profile is an
// argument error — *ArgError from the Try API, the same panic from the
// legacy one — before any sorting starts.
func TestOptionsProfileValidation(t *testing.T) {
	keys := []uint32{3, 1, 2}
	vals := []uint32{0, 1, 2}
	err := trySort(LSB, keys, vals, &SortOptions{Profile: &MachineProfile{}})
	var ae *ArgError
	if !asArgError(err, &ae) || ae.Field != "Profile" {
		t.Fatalf("want *ArgError on Profile, got %v", err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("SortLSB accepted a malformed Profile")
		}
	}()
	SortLSB(keys, vals, &SortOptions{Profile: &MachineProfile{}})
}

// asArgError unwraps err into an *ArgError (errors.As without the import
// dance in a test file).
func asArgError(err error, target **ArgError) bool {
	if ae, ok := err.(*ArgError); ok {
		*target = ae
		return true
	}
	return false
}

// TestRecommendValidatesWorkload pins the validation the tuner PR added:
// Recommend used to silently accept empty problems and key widths like
// 17 bits and hand back a recommendation computed from garbage.
func TestRecommendValidatesWorkload(t *testing.T) {
	bad := []Workload{
		{N: 0, KeyBits: 32},
		{N: -5, KeyBits: 64},
		{N: 100, KeyBits: 17},
		{N: 100, KeyBits: 64, DomainBits: 65},
		{N: 100, KeyBits: 64, DomainBits: -1},
	}
	for _, w := range bad {
		func() {
			defer func() {
				r := recover()
				if _, ok := r.(*ArgError); !ok {
					t.Fatalf("Recommend(%+v) did not panic *ArgError (got %v)", w, r)
				}
			}()
			Recommend(w)
		}()
	}
	// Boundary cases stay accepted: KeyBits 0 means unknown, DomainBits
	// 0 and 64 are the documented ends of the range.
	for _, w := range []Workload{
		{N: 1},
		{N: 1 << 20, KeyBits: 32, DomainBits: 0},
		{N: 1 << 20, KeyBits: 64, DomainBits: 64},
	} {
		Recommend(w)
	}
}

// TestSortEmptyInput: empty problems are trivially sorted; Sort must not
// route them into Recommend's N >= 1 validation.
func TestSortEmptyInput(t *testing.T) {
	if got := Sort([]uint32{}, []uint32{}, false, false, nil); got != LSB {
		t.Fatalf("empty Sort returned %v", got)
	}
	if got := Sort([]uint64{}, []uint64{}, true, true, &SortOptions{AutoTune: true}); got != LSB {
		t.Fatalf("empty auto-tuned Sort returned %v", got)
	}
}

// BenchmarkAutoTune compares each algorithm's static-default path against
// the auto-tuned one on the same input — the measurement behind the
// "never slower by more than 10%" acceptance bound (EXPERIMENTS.md,
// BENCH_PR4.json). The tuned arm pays its real overhead: sampling and
// planning run inside the timed region every iteration.
func BenchmarkAutoTune(b *testing.B) {
	n := benchSortN
	baseKeys := gen.Uniform[uint64](n, 0, 21)
	baseVals := RIDs[uint64](n)
	w := NewWorkspace()
	defer w.Close()
	prof := quickTestProfile()

	algos := []struct {
		name string
		run  func(keys, vals []uint64, opt *SortOptions)
	}{
		{"LSB", SortLSB[uint64]},
		{"MSB", SortMSB[uint64]},
		{"CMP", SortCMP[uint64]},
	}
	for _, a := range algos {
		for _, tuned := range []bool{false, true} {
			name := a.name + "/static"
			if tuned {
				name = a.name + "/tuned"
			}
			b.Run(name, func(b *testing.B) {
				keys := make([]uint64, n)
				vals := make([]uint64, n)
				opt := &SortOptions{Workspace: w}
				if tuned {
					opt = &SortOptions{Workspace: w, AutoTune: true, Profile: prof}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(keys, baseKeys)
					copy(vals, baseVals)
					a.run(keys, vals, opt)
				}
				reportMtps(b, n)
			})
		}
	}
}
