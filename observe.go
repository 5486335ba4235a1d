package partsort

import (
	"io"

	"repro/internal/obs"
)

// Observability: the runtime measurement layer behind the per-phase
// breakdowns of the paper's Figures 11/13. When enabled, the partitioning
// kernels and sorting algorithms publish event counters (tuples moved,
// write-combining buffer flushes, swap cycles, synchronized-claim and
// park events, NUMA remote bytes, splitter samples, CMP leaf sorts) and
// emit per-pass/per-worker spans to a pluggable sink. Disabled — the
// default — the hooks cost one atomic load per kernel call and allocate
// nothing.

// ObsCounters is the machine-readable counter snapshot; SortStats.Counters
// carries one per run when observability is enabled.
type ObsCounters = obs.CounterSnapshot

// TraceSink receives completed spans; see NewJSONLSink and
// NewChromeTraceSink for the built-in formats.
type TraceSink = obs.Sink

// StartObservability installs a process-wide observability session.
// sink may be nil to collect counters only. If the Go execution tracer
// (runtime/trace) is running, spans additionally appear as regions in
// `go tool trace`.
func StartObservability(sink TraceSink) {
	obs.Start(sink)
}

// StopObservability uninstalls the session, emits the final counter
// totals to the sink, and closes it.
func StopObservability() error {
	return obs.Stop()
}

// ObservedCounters returns the current session's running counter totals
// (zero when observability is disabled).
func ObservedCounters() ObsCounters {
	if s := obs.Cur(); s != nil {
		return s.Counters.Snapshot()
	}
	return ObsCounters{}
}

// NewJSONLSink returns a sink writing one JSON object per span per line.
func NewJSONLSink(w io.Writer) TraceSink {
	return obs.NewJSONLSink(w)
}

// NewChromeTraceSink returns a sink writing Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func NewChromeTraceSink(w io.Writer) TraceSink {
	return obs.NewChromeTraceSink(w)
}

// MetricsServer is the live-telemetry HTTP endpoint started by
// ServeMetrics: Prometheus text on /metrics, expvar JSON on /debug/vars,
// and net/http/pprof on /debug/pprof/. Call Shutdown (or
// ShutdownOnSignal) to stop it gracefully.
type MetricsServer = obs.MetricsServer

// ServeMetrics starts the live-telemetry endpoint on addr (":9090", or
// "127.0.0.1:0" to pick a free port — read it back via Addr). It exposes
// the default metrics registry: the Section 3.2 event counters of the
// current observability session as partsort_events_total series, the
// per-(algo, phase) latency histograms fed by NewMetricsSink, and
// background-sampled runtime gauges (heap, GC, goroutines).
func ServeMetrics(addr string) (*MetricsServer, error) {
	return obs.ServeMetrics(addr, nil)
}

// NewMetricsSink wraps next (which may be nil) so every span emitted by
// an observability session is additionally folded into the default
// metrics registry's latency histograms — the source of the
// partsort_phase_duration_seconds / partsort_pass_duration_seconds
// families served by ServeMetrics. Use it as the sink (or sink wrapper)
// passed to StartObservability.
func NewMetricsSink(next TraceSink) TraceSink {
	return obs.NewMetricsSink(nil, next)
}

// EnableProfileLabels turns runtime/pprof label propagation on or off:
// when on, sort drivers tag their goroutines (and the pool's workers)
// with algo/phase/worker labels, so CPU profiles taken from
// /debug/pprof/profile attribute samples per partition phase. Off — the
// default — the hooks cost one atomic load.
func EnableProfileLabels(on bool) {
	obs.EnableProfileLabels(on)
}

// WriteMetrics renders the default metrics registry in Prometheus text
// exposition format to w — the pull-less alternative to ServeMetrics.
func WriteMetrics(w io.Writer) error {
	return obs.DefaultRegistry().WritePrometheus(w)
}
