package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
)

// metricSpec names one reported metric and its unit. The self-test holds
// these tables equal to BENCHMARK.json.
type metricSpec struct {
	Name, Unit string
}

// e2eMetrics is what every untraced run reports, on every workload.
var e2eMetrics = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// Radix widths of the partition-pass drives: below, at, and above the
// paper's 8-bit out-of-cache optimum.
var partBits = []int{5, 8, 11}

// layerMetrics is what every traced run reports, on every workload: the
// traced run drives each layer on the workload's own inputs.
func layerMetrics() []metricSpec {
	var m []metricSpec
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricSpec{n, unit})
		}
	}
	for _, k := range []string{"hist", "scatter", "inplace", "blockperm"} {
		for _, b := range partBits {
			p := fmt.Sprintf("part.%s.b%d.", k, b)
			add("Mtuples/s", p+"mtps")
			add("ratio", p+"model_ratio")
		}
	}
	for _, a := range []string{"lsb", "msb", "cmp"} {
		p := "sortalgo." + a + "."
		add("Mtuples/s", p+"mtps")
		add("ratio", p+"model_ratio")
		add("ms", p+"hist_ms", p+"partition_ms", p+"local_ms", p+"cache_ms")
		add("count", p+"passes")
	}
	add("Mtuples/s", "sortalgo.comb.mtps")
	add("ratio", "sortalgo.comb.model_ratio")
	add("Mtuples/s", "rangeidx.lookup.mtps")
	for _, a := range []string{"lsb", "msb", "cmp", "auto"} {
		add("Mtuples/s", "partsort."+a+".mtps")
		add("ms", "partsort."+a+".overhead_ms")
	}
	add("us", "partsort.resilient_4k_us")
	add("s", "tune.calibrate_s")
	add("ms", "tune.plan_ms")
	add("index", "tune.choice")
	add("MiB", "tune.spill_mem_mb")
	for _, a := range []string{"lsb", "msb", "cmp"} {
		add("MiB", "ws."+a+".peak_aux_mb")
		add("count", "ws."+a+".misses_per_sort")
	}
	add("ratio", "extsort.write_amp", "extsort.read_amp", "extsort.overlap")
	add("ms", "extsort.io_ms", "extsort.stall_ms")
	add("count", "extsort.runs", "extsort.merge_rounds", "extsort.max_fanin")
	for _, p := range []string{"http", "tcp"} {
		s := "server." + p + "."
		add("ms", s+"queue_ms", s+"sort_ms", s+"request_ms", s+"wire_ms")
		add("count", s+"batch_size", s+"rejected")
	}
	add("ms", "server.submit.p50_ms", "server.submit.p90_ms")
	for _, p := range []string{"http", "tcp"} {
		c := "client." + p + "."
		add("ms", c+"p50_ms", c+"p90_ms", c+"p99_ms", c+"max_ms")
		add("count", c+"samples")
		add("1/s", c+"max_rps")
		g := "gen." + p + "."
		add("ms", g+"late_p99_ms")
		add("s", g+"cpu_s")
	}
	add("%", "trace.overhead_pct")
	return m
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the summary line the command prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// maxLoggedFailures caps the failure messages printed per run.
const maxLoggedFailures = 10

// recorder accumulates one run's metrics and its operation accounting.
// Every verified operation — a library call, an external sort, a request,
// a daemon drain — is one attempt; a wrong output, an error, a refusal or
// a timeout makes it a failure.
type recorder struct {
	units map[string]string // the metrics this run must report

	mu        sync.Mutex
	metrics   map[string]value
	attempted int
	failed    int
}

func newRecorder(specs []metricSpec) *recorder {
	r := &recorder{units: make(map[string]string), metrics: make(map[string]value)}
	for _, s := range specs {
		r.units[s.Name] = s.Unit
	}
	return r
}

// set records a metric; names outside the run's table are ignored, so a
// layer drive may compute more than the table keeps. A value that is not
// finite — a percentile reaching a failed request's infinite latency —
// cannot be printed: it is recorded as 0 and counted as a failure.
func (r *recorder) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		return
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		r.op("metric "+name, fmt.Errorf("value %v is not finite", v))
		v = 0
	}
	r.mu.Lock()
	r.metrics[name] = value{v, unit}
	r.mu.Unlock()
}

// op accounts one verified operation.
func (r *recorder) op(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.failed <= maxLoggedFailures {
		fmt.Fprintf(os.Stderr, "bench: FAIL %s: %v\n", what, err)
	}
}

// result returns the summary; a metric the table names but the run did
// not produce is itself a failure.
func (r *recorder) result() result {
	var missing []string
	r.mu.Lock()
	for name := range r.units {
		if _, ok := r.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	r.mu.Unlock()
	slices.Sort(missing)
	for _, name := range missing {
		r.op("metric "+name, errors.New("not measured"))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := make(map[string]value, len(r.metrics))
	for k, v := range r.metrics {
		m[k] = v
	}
	return result{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: m}
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks. An infinite sample (a failed request) propagates
// into every quantile that touches it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	if f == 0 {
		return s[lo]
	}
	return s[lo] + f*(s[lo+1]-s[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns Python's statistics.quantiles(xs, n=4) (the default
// exclusive method): the rule the benchmark's run-to-run spread is judged
// by. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
