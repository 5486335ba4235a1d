package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	partsort "repro"
	"repro/internal/gen"
	"repro/internal/kv"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    string // spans file, "" when untraced
	quick    bool
	sortd    string // daemon binary
	root     string // repository root
	tmp      string // this run's temporary root, removed at exit
}

// env is what a workload needs from the harness.
type env struct {
	cfg     config
	rec     *recorder
	threads int
	// prof is the latest calibrated machine profile: the one behind the
	// run's model ratios.
	prof *partsort.MachineProfile
	host *hostSpeed
	// raw is the run's unscaled end-to-end times, for the run document.
	raw rawTimes
}

// rawTimes are end-to-end times before scaling to the reference host
// speed, and the factors applied.
type rawTimes struct {
	SetupS     float64 `json:"setup_s"`
	SetupScale float64 `json:"setup_scale"`
	P50Ms      float64 `json:"p50_ms"`
	Scale      float64 `json:"scale"`
}

// size picks the full or the quick-mode input size.
func (e *env) size(full, quick int) int {
	if e.cfg.quick {
		return quick
	}
	return full
}

// instance is a workload with its inputs generated and its expected
// outputs computed.
type instance struct {
	// setup performs one set-up and returns the time it took, timing only
	// what the workload defines as set-up; the run repeats it setupReps
	// times and reports the median as setup_s.
	setup func() (time.Duration, error)
	// measure runs units of work (a sort call, a request) for d and
	// returns each unit's latency in ms, +Inf for a failed one.
	measure func(d time.Duration, tr *tracer, parent span) []float64
	// peakRSS is the peak resident set, in MiB, of the process that did
	// the work.
	peakRSS func() (float64, error)
	// timerMs is the part of a unit's latency that is a fixed timer, which
	// host speed does not change, so scaling leaves it out.
	timerMs float64
	// close releases what setup acquired; the run calls it, untimed,
	// before every set-up after the first and once at the end.
	close func() error
	// drive runs the per-layer drives on the workload's inputs.
	drive func(tr *tracer, root span)
}

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	// kernel is the host-speed probe its times are scaled by (probe.go).
	kernel  kernel
	prepare func(e *env, tr *tracer, root span) (*instance, error)
}

// The library workloads put one algorithm on the input class the paper
// shows it on, so each workload's p50_ms is that algorithm's call alone:
// LSB on dense 32-bit keys (Fig. 9), MSB and CMP on sparse 64-bit keys
// (Fig. 12).
var workloads = []workload{
	{"lsb-dense32", sortKernel, func(e *env, tr *tracer, root span) (*instance, error) {
		keys := dense32(e, tr, root)
		return sortWorkload(e, keys, "SortLSB", true, static(e, partsort.SortLSB[uint32]), nil), nil
	}},
	{"msb-sparse64", sortKernel, func(e *env, tr *tracer, root span) (*instance, error) {
		keys := sparse64(e, tr, root, e.size(1<<21, 1<<14))
		return sortWorkload(e, keys, "SortMSB", false, static(e, partsort.SortMSB[uint64]), nil), nil
	}},
	{"cmp-sparse64", sortKernel, func(e *env, tr *tracer, root span) (*instance, error) {
		keys := sparse64(e, tr, root, e.size(1<<21, 1<<14))
		return sortWorkload(e, keys, "SortCMP", false, static(e, partsort.SortCMP[uint64]), nil), nil
	}},
	{"svc-http", loopKernel, func(e *env, tr *tracer, root span) (*instance, error) {
		return prepareSvc(e, tr, root, "http")
	}},
	{"svc-tcp", loopKernel, func(e *env, tr *tracer, root span) (*instance, error) {
		return prepareSvc(e, tr, root, "tcp")
	}},
	{"ext-spill", sortKernel, prepareExt},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dense32 generates a permutation of [0, 2^22): a dense 22-bit domain.
func dense32(e *env, tr *tracer, root span) []uint32 {
	n := e.size(1<<22, 1<<14)
	s := tr.begin(root, "gen", "Permutation", attrs{n: n, bits: 32})
	defer s.end()
	return gen.Permutation[uint32](n, e.cfg.seed)
}

// sparse64 generates n keys uniform over the whole 64-bit domain.
func sparse64(e *env, tr *tracer, root span, n int) []uint64 {
	s := tr.begin(root, "gen", "Uniform", attrs{n: n, bits: 64})
	defer s.end()
	return gen.Uniform[uint64](n, 0, e.cfg.seed)
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// spanCapacity bounds one traced run's spans; later spans are dropped.
const spanCapacity = 1 << 17

// runWorkload prepares, sets up and measures one workload. Untraced, it
// records the end-to-end metrics. Traced, it measures the workload once
// untraced and once traced, for a quarter of the run each (their largest
// relative gap is trace.overhead_pct), then drives every layer on the
// workload's inputs for the per-layer metrics and writes the spans.
func runWorkload(e *env, w workload) error {
	var tr *tracer
	if e.cfg.trace != "" {
		tr = newTracer(spanCapacity)
	}
	root := tr.begin(span{}, "bench", w.name, attrs{})
	s, err := w.prepare(e, tr, root)
	if err != nil {
		e.rec.op("prepare "+w.name, err)
		return nil
	}
	reps := setupReps
	if e.cfg.quick {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			// Releasing the previous set-up (a daemon's drain, a
			// workspace's workers) is not part of the next one.
			e.rec.op("release "+w.name, s.close())
		}
		// Every set-up starts from the same state: the memory of earlier
		// ones returned to the operating system, so none reuses pages
		// another faulted in and no scavenger runs during it.
		debug.FreeOSMemory()
		e.host.sample()
		t, err := s.setup()
		setups = append(setups, t.Seconds())
		e.rec.op("setup "+w.name, err)
	}
	e.host.sample()
	setupScale := e.host.scale()
	e.host.reset()

	d := time.Duration(e.cfg.seconds * float64(time.Second))
	if tr == nil {
		e.host.sample()
		lat := s.measure(d, nil, span{})
		e.host.sample()
		e.raw = rawTimes{SetupS: median(setups), SetupScale: setupScale, P50Ms: percentile(lat, 0.5), Scale: e.host.scale()}
		e.rec.set("setup_s", e.raw.SetupS*e.raw.SetupScale)
		e.rec.set("p50_ms", s.timerMs+(e.raw.P50Ms-s.timerMs)*e.raw.Scale)
	} else {
		plain := s.measure(d/4, nil, span{})
		traced := s.measure(d/4, tr, root)
		var gap float64
		for _, p := range []float64{0.5, 0.9} {
			a, b := percentile(plain, p), percentile(traced, p)
			gap = max(gap, math.Abs(b-a)/a*100)
		}
		e.rec.set("trace.overhead_pct", gap)
	}
	rss, err := s.peakRSS()
	e.rec.op("peak RSS", err)
	e.rec.set("peak_rss_mb", rss)
	e.rec.op("release "+w.name, s.close())
	if tr == nil {
		return nil
	}
	s.drive(tr, root)
	root.end()
	spans := tr.finish()
	if n := tr.dropped.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d spans past the %d-span buffer were dropped\n", n, spanCapacity)
	}
	return writeSpans(e.cfg.trace, spans)
}

// msOf converts a duration to milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// sortCall is one workload's timed call on the working copies, under the
// workspace the set-up made.
type sortCall[K partsort.Key] func(k, v []K, w *partsort.Workspace) error

// static adapts a static-algorithm entry point, run with Threads =
// NumCPU.
func static[K partsort.Key](e *env, f func(k, v []K, opt *partsort.SortOptions)) sortCall[K] {
	return func(k, v []K, w *partsort.Workspace) error {
		f(k, v, &partsort.SortOptions{Threads: e.threads, Workspace: w})
		return nil
	}
}

// sortWorkload builds an instance whose unit of work is one call on fresh
// copies of the input and record-id payloads. Set-up is a new workspace
// and the first, cold call on it. Every unit's output must be the
// expected key column and a permutation of the input pairs (stable: with
// equal keys in input order); after, when set, checks what the call
// leaves behind. Copies and checks are untimed.
func sortWorkload[K partsort.Key](e *env, keys []K, name string, stable bool, call sortCall[K], after func() error) *instance {
	n := len(keys)
	vals := gen.RIDs[K](n)
	exp := sortedCopy(keys)
	inSum := kv.ChecksumPairs(keys, vals)
	k, v := make([]K, n), make([]K, n)
	var w *partsort.Workspace
	unit := func(tr *tracer, parent span) (time.Duration, error) {
		// A quiet window for the host-speed probe: the previous call has
		// returned, and its garbage is collected.
		runtime.GC()
		e.host.sample()
		copy(k, keys)
		copy(v, vals)
		s := tr.begin(parent, "partsort", name, attrs{n: n, bits: kv.Width[K]()})
		err := call(k, v, w)
		d := s.end()
		if err == nil {
			err = checkSort(k, v, exp, inSum, stable)
		}
		if err == nil && after != nil {
			err = after()
		}
		e.rec.op(name, err)
		return d, err
	}
	return &instance{
		setup: func() (time.Duration, error) {
			t := time.Now()
			w = partsort.NewWorkspace()
			made := time.Since(t)
			d, err := unit(nil, span{})
			return made + d, err
		},
		measure: func(d time.Duration, tr *tracer, parent span) []float64 {
			var lat []float64
			for start := time.Now(); len(lat) == 0 || time.Since(start) < d; {
				t, err := unit(tr, parent)
				if err != nil {
					lat = append(lat, math.Inf(1))
					continue
				}
				lat = append(lat, msOf(t))
			}
			return lat
		},
		peakRSS: func() (float64, error) { return procHWM(0) },
		close: func() error {
			w.Close()
			w = nil
			return nil
		},
		drive: func(tr *tracer, root span) { driveLayers(e, tr, root, keys, vals, exp) },
	}
}

// extBudgetShare sets ext-spill's auxiliary-memory budget to 1/8 of the
// input's bytes, so the planner must spill.
const extBudgetShare = 8

// prepareExt builds the ext-spill instance: 64-bit uniform pairs through
// SortExternal under a budget of an eighth of the input, with the spill
// shape left to the planner. The sort must spill and leave its spill
// directory empty.
func prepareExt(e *env, tr *tracer, root span) (*instance, error) {
	n := e.size(1<<23, 1<<18)
	keys := sparse64(e, tr, root, n)
	dir := filepath.Join(e.cfg.tmp, "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	budget := int64(n) * 16 / extBudgetShare
	call := func(k, v []uint64, w *partsort.Workspace) error {
		st, err := partsort.SortExternal(k, v, &partsort.SortOptions{Threads: e.threads, Workspace: w, MaxAuxBytes: budget, TempDir: dir})
		if err == nil && !st.Spilled {
			err = fmt.Errorf("the sort did not spill under a %d-byte budget", budget)
		}
		return err
	}
	return sortWorkload(e, keys, "SortExternal", false, call, func() error { return checkEmptyDir(dir) }), nil
}

// svcSlices is how many slices an svc-* measurement runs in; quietGap is
// how long the daemon is left to finish its own background work (its
// garbage collection, timers) after a slice before the loop is timed.
const (
	svcSlices = 5
	quietGap  = 50 * time.Millisecond
)

// prepareSvc builds an svc-* instance: a child sortd under open-loop load
// over one protocol at its reference rate, from NumCPU connections.
func prepareSvc(e *env, tr *tracer, root span, proto string) (*instance, error) {
	n := reqCount * reqKeys
	if e.cfg.quick {
		n = reqTenants * reqKeys
	}
	keys := sparse64(e, tr, root, n)
	rs, err := buildRequests(keys, 64)
	if err != nil {
		return nil, err
	}
	var d *daemon
	return &instance{
		// A cold start: exec until /healthz answers and the first
		// verified response arrives over both protocols.
		setup: func() (time.Duration, error) {
			t := time.Now()
			var err error
			if d, err = startDaemon(e.cfg.sortd); err == nil {
				err = d.firstResponses(rs)
			}
			return time.Since(t), err
		},
		// The load runs in slices; between them the daemon is idle, and the
		// host-speed loop is timed.
		measure: func(dur time.Duration, tr *tracer, parent span) []float64 {
			if d == nil {
				return []float64{math.Inf(1)}
			}
			var lat []float64
			for range svcSlices {
				p := d.load(proto, rs, refRate[proto], dur/svcSlices, e.threads, tr, parent)
				for _, err := range p.errs {
					e.rec.op(proto+" request", err)
				}
				lat = append(lat, p.lat...)
				time.Sleep(quietGap)
				e.host.sample()
			}
			return lat
		},
		peakRSS: func() (float64, error) {
			if d == nil {
				return 0, fmt.Errorf("sortd is not running")
			}
			return procHWM(d.cmd.Process.Pid)
		},
		timerMs: batchWindowMs,
		close: func() error {
			if d == nil {
				return nil
			}
			err := d.stop()
			d = nil
			return err
		},
		drive: func(tr *tracer, root span) { driveLayers(e, tr, root, keys, gen.RIDs[uint64](n), sortedCopy(keys)) },
	}, nil
}
