package tune

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/memmodel"
)

// quickProfile calibrates once per test binary (quick budget).
var quickProfile = Calibrate(Config{Quick: true})

func TestCalibrateProducesSaneProfile(t *testing.T) {
	p := quickProfile
	if err := p.Validate(); err != nil {
		t.Fatalf("calibrated profile invalid: %v", err)
	}
	if p.NumCPU < 1 || p.GOARCH == "" || p.CalibratedAt == "" {
		t.Fatalf("environment fields missing: %+v", p)
	}
}

func TestMachineProfileJSONRoundTrip(t *testing.T) {
	p := quickProfile
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := p.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	q, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed the profile:\nsaved  %+v\nloaded %+v", p, q)
	}
}

func TestLoadRejectsMalformedProfiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := *quickProfile
	bad.Hist64MKeys = 0
	path := filepath.Join(dir, "bad.json")
	if err := bad.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("profile with zero histogram throughput accepted")
	}
}

// fixedProfile is a small valid profile with hand-picked measurements.
func fixedProfile() *MachineProfile {
	return &MachineProfile{
		GoVersion: "go1.23", GOOS: "linux", GOARCH: "amd64", NumCPU: 2,
		SeqReadGBps: 10, ScatterGBps: 4, Hist64MKeys: 700,
	}
}

func TestValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(p *MachineProfile)
		ok   bool
	}{
		{"valid", func(p *MachineProfile) {}, true},
		{"zero read bandwidth", func(p *MachineProfile) { p.SeqReadGBps = 0 }, false},
		{"negative scatter bandwidth", func(p *MachineProfile) { p.ScatterGBps = -1 }, false},
		{"NaN read bandwidth", func(p *MachineProfile) { p.SeqReadGBps = nan }, false},
		{"+Inf scatter bandwidth", func(p *MachineProfile) { p.ScatterGBps = inf }, false},
		{"-Inf scatter bandwidth", func(p *MachineProfile) { p.ScatterGBps = -inf }, false},
		{"NaN histogram", func(p *MachineProfile) { p.Hist64MKeys = nan }, false},
		{"+Inf histogram", func(p *MachineProfile) { p.Hist64MKeys = inf }, false},
		{"zero histogram", func(p *MachineProfile) { p.Hist64MKeys = 0 }, false},
	}
	for _, c := range cases {
		p := fixedProfile()
		c.edit(p)
		if err := p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if (*MachineProfile)(nil).Validate() == nil {
		t.Error("nil profile accepted")
	}
}

// FuzzLoadMachineProfile feeds arbitrary bytes to Load: it must never
// panic, and a profile it accepts must be valid and survive a Save/Load
// round trip unchanged.
func FuzzLoadMachineProfile(f *testing.F) {
	valid, err := json.Marshal(fixedProfile())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"seq_read_gbps": 1e999}`))
	f.Add([]byte(`{"scatter32": [{"bits": 1, "in_cache_ns": 1, "out_cache_ns": 1}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(curveProfileJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := Load(in)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Load accepted an invalid profile: %v", err)
		}
		out := filepath.Join(dir, "out.json")
		if err := p.Save(out); err != nil {
			t.Fatalf("save accepted profile: %v", err)
		}
		q, err := Load(out)
		if err != nil {
			t.Fatalf("reload saved profile: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the profile:\nloaded   %+v\nreloaded %+v", p, q)
		}
	})
}

func TestMemProjectsCalibratedConstants(t *testing.T) {
	m := quickProfile.Mem()
	if m.ReadBW != quickProfile.SeqReadGBps {
		t.Fatalf("ReadBW %v, want measured %v", m.ReadBW, quickProfile.SeqReadGBps)
	}
	if m.WriteBW != quickProfile.ScatterGBps {
		t.Fatalf("WriteBW %v, want measured %v", m.WriteBW, quickProfile.ScatterGBps)
	}
	if m.Sockets != 1 || m.Cores() != quickProfile.NumCPU {
		t.Fatalf("parallel shape not taken from the profile: %+v", m)
	}
	if m.ScalarOpNs <= 0 || m.CopyBW <= 0 {
		t.Fatalf("derived constants not positive: %+v", m)
	}
}

// curveProfileJSON is a profile as Save wrote it while profiles also
// carried per-fanout scatter curves and a 32-bit histogram throughput.
const curveProfileJSON = `{
  "go": "go1.24.0",
  "goos": "linux",
  "goarch": "amd64",
  "num_cpu": 2,
  "calibrated_at": "2026-10-19T12:00:00Z",
  "quick": true,
  "seq_read_gbps": 9.5,
  "scatter_gbps": 1.8,
  "hist32_mkeys": 850,
  "hist64_mkeys": 640,
  "scatter32": [
    {"bits": 4, "in_cache_ns": 1.1, "out_cache_ns": 3.2},
    {"bits": 8, "in_cache_ns": 1.6, "out_cache_ns": 5.9}
  ],
  "scatter64": [
    {"bits": 4, "in_cache_ns": 1.3, "out_cache_ns": 4.4},
    {"bits": 8, "in_cache_ns": 2.1, "out_cache_ns": 8.9}
  ]
}`

// TestLoadCurveProfile loads a profile that also carries the scatter
// curves and the 32-bit histogram throughput: it must validate and
// project the Mem() its three read measurements give.
func TestLoadCurveProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.json")
	if err := os.WriteFile(path, []byte(curveProfileJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	want := memmodel.Calibrated(2, 9.5, 1.8, 1e3/640.0/3)
	if got := p.Mem(); got != want {
		t.Fatalf("Mem() = %+v, want %+v", got, want)
	}
}

func TestPlannerDeterminism(t *testing.T) {
	keys := gen.ZipfKeys[uint64](1<<16, 1<<40, 0.8, 42)
	w1 := SampleKeys(keys, 0, 7)
	w2 := SampleKeys(keys, 0, 7)
	if !reflect.DeepEqual(w1, w2) {
		t.Fatalf("sampling not deterministic:\n%+v\n%+v", w1, w2)
	}
	req := Requirements{KeyBits: 64}
	p1 := Choose(quickProfile, w1, req)
	p2 := Choose(quickProfile, w2, req)
	if p1 != p2 {
		t.Fatalf("plan not deterministic:\n%+v\n%+v", p1, p2)
	}
}

func TestPlanKnobsAlwaysValid(t *testing.T) {
	workloads := []WorkloadStats{
		{},
		{N: 1, DomainBits: 1, SampleSize: 1, DistinctFrac: 1},
		{N: 1 << 20, DomainBits: 64, SampleSize: 1024, DistinctFrac: 1},
		{N: 1 << 28, DomainBits: 10, SampleSize: 1024, DistinctFrac: 0.01, HeadMass: 0.9, HeavySkew: true},
	}
	reqs := []Requirements{
		{KeyBits: 64},
		{KeyBits: 32, NeedStable: true},
		{KeyBits: 64, SpaceTight: true},
		{KeyBits: 64, Force: AlgoCMP},
		{KeyBits: 32, Force: AlgoCMP, MaxThreads: 1, MaxBytes: 1 << 40},
		{KeyBits: 32, Force: AlgoMSB, MaxThreads: 2},
	}
	for _, w := range workloads {
		for _, req := range reqs {
			plan := Choose(quickProfile, w, req)
			// Past the cache bound every sort partitions at least once;
			// within it MSB and CMP may stay in one in-cache leaf.
			minPasses := 0
			if w.N > memmodel.WorkerCacheBytes/(req.KeyBits/4) {
				minPasses = 1
			}
			if plan.Threads < 1 || plan.Passes < minPasses {
				t.Fatalf("invalid knobs %+v for %+v / %+v", plan, w, req)
			}
			if plan.PredictedNs < 0 {
				t.Fatalf("negative predicted cost %+v", plan)
			}
			if want := plan.Algo != AlgoLSB; plan.InPlace != want {
				t.Fatalf("%s plan has InPlace %v, want %v", plan.Algo, plan.InPlace, want)
			}
		}
	}
}

func TestPlannerHonorsConstraints(t *testing.T) {
	w := WorkloadStats{N: 1 << 20, DomainBits: 64, SampleSize: 1024, DistinctFrac: 1}
	if p := Choose(quickProfile, w, Requirements{KeyBits: 64, NeedStable: true}); p.Algo != AlgoLSB {
		t.Fatalf("stable plan picked %s", p.Algo)
	}
	if p := Choose(quickProfile, w, Requirements{KeyBits: 64, SpaceTight: true}); p.Algo != AlgoMSB {
		t.Fatalf("space-tight plan picked %s", p.Algo)
	}
	skewed := w
	skewed.HeadMass, skewed.HeavySkew = 0.8, true
	if p := Choose(quickProfile, skewed, Requirements{KeyBits: 64}); p.Algo != AlgoCMP {
		t.Fatalf("skewed plan picked %s", p.Algo)
	}
	if p := Choose(quickProfile, skewed, Requirements{KeyBits: 64, Force: AlgoLSB}); p.Algo != AlgoLSB {
		t.Fatalf("forced plan picked %s", p.Algo)
	}
}

func TestSamplerUniformVsZipf(t *testing.T) {
	n := 1 << 18
	uniform := gen.Uniform[uint64](n, 1<<40, 11)
	zipf := gen.ZipfKeys[uint64](n, 1<<40, 1.5, 11)

	u := SampleKeys(uniform, 0, 3)
	z := SampleKeys(zipf, 0, 3)

	if u.HeavySkew {
		t.Fatalf("uniform flagged skewed: head mass %.3f", u.HeadMass)
	}
	if !z.HeavySkew {
		t.Fatalf("zipf theta=1.5 not flagged skewed: head mass %.3f", z.HeadMass)
	}
	if u.HeadMass >= 0.2 {
		t.Fatalf("uniform head mass %.3f, want ~0", u.HeadMass)
	}
	if z.HeadMass <= 0.5 {
		t.Fatalf("zipf head mass %.3f, want > 0.5", z.HeadMass)
	}
	if u.DistinctFrac < 0.99 {
		t.Fatalf("uniform distinct fraction %.3f, want ~1", u.DistinctFrac)
	}
	if z.DistinctFrac > 0.6 {
		t.Fatalf("zipf distinct fraction %.3f, want small", z.DistinctFrac)
	}
	// Domain estimated from the sampled maximum: within a few bits of 40.
	if u.DomainBits < 36 || u.DomainBits > 40 {
		t.Fatalf("uniform domain estimate %d bits, want ~40", u.DomainBits)
	}

	// A dense permutation: every key distinct, domain ~log2 n.
	perm := gen.Permutation[uint64](n, 5)
	ps := SampleKeys(perm, 0, 3)
	if ps.DistinctFrac < 0.99 || ps.HeavySkew {
		t.Fatalf("permutation stats wrong: %+v", ps)
	}
	if ps.DomainBits < 16 || ps.DomainBits > 18 {
		t.Fatalf("permutation domain estimate %d, want ~18", ps.DomainBits)
	}
	// The same keys behind a shared high prefix span the same bits.
	for i := range perm {
		perm[i] |= 0xFFFF_FFFF << 32
	}
	if pre := SampleKeys(perm, 0, 3); pre != ps {
		t.Fatalf("prefixed permutation stats %+v, want the bare keys' %+v", pre, ps)
	}

	// Degenerate inputs.
	if s := SampleKeys([]uint64{}, 0, 1); s.SampleSize != 0 || s.DomainBits != 1 {
		t.Fatalf("empty stats %+v", s)
	}
	allEq := gen.AllEqual[uint64](4096, 7)
	if s := SampleKeys(allEq, 0, 1); !s.HeavySkew || s.HeadMass != 1 {
		t.Fatalf("all-equal stats %+v", s)
	}
}

// TestLSBPricesDigitPlan pins the planner to the digits the runtime runs:
// a forced LSB plan counts the passes of LSB's digit plan
// (memmodel.LSBDigits) over the sampled span, two 11-bit passes over a
// 22-bit span out of cache and byte-wide digits in cache.
func TestLSBPricesDigitPlan(t *testing.T) {
	for _, c := range []struct{ n, passes int }{{1 << 22, 2}, {1 << 12, 3}} {
		w := WorkloadStats{N: c.n, DomainBits: 22, SampleSize: 1024, DistinctFrac: 1}
		plan := Choose(quickProfile, w, Requirements{KeyBits: 32, Force: AlgoLSB, MaxThreads: 1})
		if plan.Passes != c.passes {
			t.Fatalf("N=%d: plan priced at %d passes, runtime runs %d", c.n, plan.Passes, c.passes)
		}
		if plan.PredictedNs <= 0 {
			t.Fatalf("N=%d: predicted %v ns", c.n, plan.PredictedNs)
		}
	}
}
