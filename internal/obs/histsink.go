package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// MetricsSink is the histogram-aggregating span sink: every completed
// span feeds a per-(algo, category, name) latency histogram in a
// Registry, so a long-running process exposes live p50/p95/p99 per sort
// phase and partition pass instead of (or in addition to) an offline
// trace. Emit is lock-free and allocation-free once a span's series
// exists: the series map is copy-on-write, read through one atomic
// pointer, and the histogram record is a sharded atomic add. Pass spans
// additionally feed a tuple-count (size) histogram from their item
// counts.
type MetricsSink struct {
	reg  *Registry
	next Sink // optional downstream sink (tee); may be nil

	mu sync.Mutex // guards map replacement on first sight of a key
	m  atomic.Pointer[map[spanKey]*spanSeries]
}

// spanKey identifies one span series.
type spanKey struct{ algo, cat, name string }

// spanSeries holds the histograms of one span key.
type spanSeries struct {
	dur    *Histogram
	tuples *Histogram // non-nil only for categories carrying item counts
}

// NewMetricsSink returns a sink aggregating spans into reg (nil means
// DefaultRegistry) and forwarding every event to next (nil means
// aggregate only).
func NewMetricsSink(reg *Registry, next Sink) *MetricsSink {
	if reg == nil {
		reg = DefaultRegistry()
	}
	s := &MetricsSink{reg: reg, next: next}
	empty := make(map[spanKey]*spanSeries)
	s.m.Store(&empty)
	return s
}

// Emit implements Sink: records the span's duration (and item count for
// pass spans) into its histograms, then forwards to the downstream sink.
// Meta events are forwarded without aggregation.
func (s *MetricsSink) Emit(e Event) {
	if e.Cat != "meta" {
		k := spanKey{e.Algo, e.Cat, e.Name}
		ss := (*s.m.Load())[k]
		if ss == nil {
			ss = s.register(k)
		}
		ss.dur.ObserveDuration(e.Dur, e.Worker)
		if ss.tuples != nil && e.N > 0 {
			ss.tuples.Observe(uint64(e.N), e.Worker)
		}
	}
	if s.next != nil {
		s.next.Emit(e)
	}
}

// Close implements Sink (closing the downstream sink, if any).
func (s *MetricsSink) Close() error {
	if s.next != nil {
		return s.next.Close()
	}
	return nil
}

// register creates the series for k under the lock and publishes a new
// map; the double-check keeps concurrent first emits of one key from
// registering twice.
func (s *MetricsSink) register(k spanKey) *spanSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.m.Load()
	if ss := old[k]; ss != nil {
		return ss
	}
	ss := &spanSeries{}
	famName, labels, withTuples := spanFamily(k)
	ss.dur = s.reg.Histogram(famName,
		"Span latency distribution aggregated live from obs spans.", labels...)
	if withTuples {
		ss.tuples = s.reg.Histogram(metricPrefix+"pass_tuples",
			"Tuples moved per partitioning pass.", labels...)
	}
	next := make(map[spanKey]*spanSeries, len(old)+1)
	for kk, vv := range old {
		next[kk] = vv
	}
	next[k] = ss
	s.m.Store(&next)
	return ss
}

// spanFamily maps a span key to its exposition family and label set.
// Sort phases and passes get families of their own — the per-(algo,
// phase) and per-(algo, pass) latency distributions the sort service's
// admission control consumes — and everything else lands in a generic
// span family labeled by category.
func spanFamily(k spanKey) (name string, labels []Label, withTuples bool) {
	switch k.cat {
	case "phase":
		return metricPrefix + "phase_duration_seconds",
			[]Label{L("algo", k.algo), L("phase", k.name)}, false
	case "pass":
		return metricPrefix + "pass_duration_seconds",
			[]Label{L("algo", k.algo), L("pass", k.name)}, true
	case "sort":
		return metricPrefix + "sort_duration_seconds",
			[]Label{L("algo", k.name)}, false
	case "worker":
		return metricPrefix + "worker_duration_seconds",
			[]Label{L("algo", k.algo), L("task", k.name)}, false
	}
	return metricPrefix + "span_duration_seconds",
		[]Label{L("algo", k.algo), L("cat", k.cat), L("name", k.name)}, false
}

// SpanStat is the compact per-(category, name) summary of an aggregated
// span family: sample count, duration total, and quantile estimates —
// the machine-readable form sortcli emits, reconciled against the trace
// by the root package's TestTraceReconcilesSpanHist.
type SpanStat struct {
	Count uint64 `json:"count"`
	SumNs uint64 `json:"sum_ns"`
	P50Ns uint64 `json:"p50_ns"`
	P95Ns uint64 `json:"p95_ns"`
	P99Ns uint64 `json:"p99_ns"`
}

// Summary returns the sink's span statistics keyed "cat/name", merged
// across algos (a single-algorithm process has one algo anyway; the
// registry keeps the per-algo split).
func (s *MetricsSink) Summary() map[string]SpanStat {
	merged := make(map[string]HistSnapshot)
	for k, ss := range *s.m.Load() {
		key := k.cat + "/" + k.name
		merged[key] = merged[key].Add(ss.dur.Snapshot())
	}
	out := make(map[string]SpanStat, len(merged))
	for key, snap := range merged {
		out[key] = SpanStat{
			Count: snap.Count,
			SumNs: snap.Sum,
			P50Ns: snap.Quantile(0.50),
			P95Ns: snap.Quantile(0.95),
			P99Ns: snap.Quantile(0.99),
		}
	}
	return out
}

// SummaryKeys returns the sorted keys of Summary (stable iteration for
// text output).
func (s *MetricsSink) SummaryKeys() []string {
	sum := s.Summary()
	keys := make([]string, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
