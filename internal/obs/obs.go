// Package obs is the runtime observability subsystem shared by the
// partitioning kernels (internal/part), the sorting algorithms
// (internal/sortalgo), and the join operators (internal/join): atomic
// event counters, per-pass/per-worker span tracing with pluggable sinks,
// and runtime/trace region annotations so `go tool trace` shows partition
// passes natively.
//
// A process-wide current *Session lives in an atomic pointer. When no
// session is installed (the default), every instrumentation hook reduces
// to one atomic load and a nil check — no allocations, no clock reads —
// so the hot partitioning loops pay near-zero cost (benchmark-guarded in
// internal/part). Kernels count events in plain local integers folded
// into work they already do and publish once per call with a handful of
// atomic adds; spans are only emitted at pass/worker granularity, never
// per tuple.
package obs

import (
	"context"
	"runtime/trace"
	"strconv"
	"sync/atomic"
	"time"
)

// Counters are the paper-motivated event counters (Section 3.2's cost
// factors made visible at runtime): the events that explain the per-phase
// wall-clock buckets of sortalgo.Stats.
type Counters struct {
	// TuplesPartitioned counts tuples moved by any partitioning kernel;
	// over a radix sort it totals passes x n.
	TuplesPartitioned atomic.Uint64
	// BufferFlushes counts cache-line buffer write-backs of the
	// out-of-cache variants (Algorithms 3/4 and the block writer) — the
	// software write-combining events of Section 3.2.1.
	BufferFlushes atomic.Uint64
	// SwapCycles counts closed swap cycles of the in-place variants
	// (Algorithms 2/4, Section 3.2.2).
	SwapCycles atomic.Uint64
	// SyncClaims counts successful fetch-and-add slot claims of the
	// synchronized variant (Algorithm 5, Section 3.2.4).
	SyncClaims atomic.Uint64
	// SyncParks counts exhausted-destination park events of Algorithm 5's
	// deadlock-avoidance protocol — the contention witness.
	SyncParks atomic.Uint64
	// RemoteBytes counts bytes crossing simulated NUMA region boundaries
	// (Section 3.3).
	RemoteBytes atomic.Uint64
	// SplitterSamples counts keys drawn by splitter sampling (Section
	// 4.3.2).
	SplitterSamples atomic.Uint64
	// CombSortLeaves counts CMP in-cache leaf sorts (Section 4.3.1).
	CombSortLeaves atomic.Uint64
	// WorkspaceHits / WorkspaceMisses count buffer acquisitions served from
	// (respectively missed by) the reuse arena of internal/ws — the
	// allocator-pressure witness of the zero-allocation hot paths.
	WorkspaceHits   atomic.Uint64
	WorkspaceMisses atomic.Uint64
	// RetryAttempts counts re-attempts made by the resilient supervisor
	// (every attempt after a run's first); RetryFallbacks counts
	// degradations along its fallback chain (tuned plan -> conservative
	// sequential -> in-place single-threaded); MemDegrades counts
	// resource-pressure degradations — attempts classified as over the
	// auxiliary-memory budget that steered the run onto the in-place
	// paths.
	RetryAttempts  atomic.Uint64
	RetryFallbacks atomic.Uint64
	MemDegrades    atomic.Uint64
}

// Snapshot returns a consistent-enough point-in-time copy (each field is
// read atomically; the set is not a global atomic snapshot, which is fine
// for counters that only increase).
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		TuplesPartitioned: c.TuplesPartitioned.Load(),
		BufferFlushes:     c.BufferFlushes.Load(),
		SwapCycles:        c.SwapCycles.Load(),
		SyncClaims:        c.SyncClaims.Load(),
		SyncParks:         c.SyncParks.Load(),
		RemoteBytes:       c.RemoteBytes.Load(),
		SplitterSamples:   c.SplitterSamples.Load(),
		CombSortLeaves:    c.CombSortLeaves.Load(),
		WorkspaceHits:     c.WorkspaceHits.Load(),
		WorkspaceMisses:   c.WorkspaceMisses.Load(),
		RetryAttempts:     c.RetryAttempts.Load(),
		RetryFallbacks:    c.RetryFallbacks.Load(),
		MemDegrades:       c.MemDegrades.Load(),
	}
}

// CounterSnapshot is the plain, JSON-marshalable form of Counters.
type CounterSnapshot struct {
	TuplesPartitioned uint64 `json:"tuples_partitioned"`
	BufferFlushes     uint64 `json:"buffer_flushes"`
	SwapCycles        uint64 `json:"swap_cycles"`
	SyncClaims        uint64 `json:"sync_claims"`
	SyncParks         uint64 `json:"sync_parks"`
	RemoteBytes       uint64 `json:"remote_bytes"`
	SplitterSamples   uint64 `json:"splitter_samples"`
	CombSortLeaves    uint64 `json:"combsort_leaves"`
	WorkspaceHits     uint64 `json:"workspace_hits"`
	WorkspaceMisses   uint64 `json:"workspace_misses"`
	RetryAttempts     uint64 `json:"retry_attempts"`
	RetryFallbacks    uint64 `json:"retry_fallbacks"`
	MemDegrades       uint64 `json:"mem_degrades"`
}

// counterFields enumerates every Counters field with its exposition name
// and an atomic loader — the single authority the metrics registry
// (partsort_events_total), Map, and the reflection-based exhaustiveness
// test share, so a future counter cannot be silently dropped from the
// exported surfaces.
var counterFields = []struct {
	name string
	load func(*Counters) uint64
}{
	{"tuples_partitioned", func(c *Counters) uint64 { return c.TuplesPartitioned.Load() }},
	{"buffer_flushes", func(c *Counters) uint64 { return c.BufferFlushes.Load() }},
	{"swap_cycles", func(c *Counters) uint64 { return c.SwapCycles.Load() }},
	{"sync_claims", func(c *Counters) uint64 { return c.SyncClaims.Load() }},
	{"sync_parks", func(c *Counters) uint64 { return c.SyncParks.Load() }},
	{"remote_bytes", func(c *Counters) uint64 { return c.RemoteBytes.Load() }},
	{"splitter_samples", func(c *Counters) uint64 { return c.SplitterSamples.Load() }},
	{"combsort_leaves", func(c *Counters) uint64 { return c.CombSortLeaves.Load() }},
	{"workspace_hits", func(c *Counters) uint64 { return c.WorkspaceHits.Load() }},
	{"workspace_misses", func(c *Counters) uint64 { return c.WorkspaceMisses.Load() }},
	{"retry_attempts", func(c *Counters) uint64 { return c.RetryAttempts.Load() }},
	{"retry_fallbacks", func(c *Counters) uint64 { return c.RetryFallbacks.Load() }},
	{"mem_degrades", func(c *Counters) uint64 { return c.MemDegrades.Load() }},
}

// Sub returns s - o field by field (the delta of one run).
func (s CounterSnapshot) Sub(o CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		TuplesPartitioned: s.TuplesPartitioned - o.TuplesPartitioned,
		BufferFlushes:     s.BufferFlushes - o.BufferFlushes,
		SwapCycles:        s.SwapCycles - o.SwapCycles,
		SyncClaims:        s.SyncClaims - o.SyncClaims,
		SyncParks:         s.SyncParks - o.SyncParks,
		RemoteBytes:       s.RemoteBytes - o.RemoteBytes,
		SplitterSamples:   s.SplitterSamples - o.SplitterSamples,
		CombSortLeaves:    s.CombSortLeaves - o.CombSortLeaves,
		WorkspaceHits:     s.WorkspaceHits - o.WorkspaceHits,
		WorkspaceMisses:   s.WorkspaceMisses - o.WorkspaceMisses,
		RetryAttempts:     s.RetryAttempts - o.RetryAttempts,
		RetryFallbacks:    s.RetryFallbacks - o.RetryFallbacks,
		MemDegrades:       s.MemDegrades - o.MemDegrades,
	}
}

// IsZero reports whether every counter is zero.
func (s CounterSnapshot) IsZero() bool {
	return s == CounterSnapshot{}
}

// Map returns the snapshot as name -> value, in the sinks' field naming.
func (s CounterSnapshot) Map() map[string]uint64 {
	return map[string]uint64{
		"tuples_partitioned": s.TuplesPartitioned,
		"buffer_flushes":     s.BufferFlushes,
		"swap_cycles":        s.SwapCycles,
		"sync_claims":        s.SyncClaims,
		"sync_parks":         s.SyncParks,
		"remote_bytes":       s.RemoteBytes,
		"splitter_samples":   s.SplitterSamples,
		"combsort_leaves":    s.CombSortLeaves,
		"workspace_hits":     s.WorkspaceHits,
		"workspace_misses":   s.WorkspaceMisses,
		"retry_attempts":     s.RetryAttempts,
		"retry_fallbacks":    s.RetryFallbacks,
		"mem_degrades":       s.MemDegrades,
	}
}

// Session is one observability session: a counter set, an optional span
// sink, and (when the Go execution tracer is running) a runtime/trace
// task under which spans become regions.
type Session struct {
	Counters Counters

	sink  Sink
	epoch time.Time
	ctx   context.Context
	task  *trace.Task
}

// cur is the process-wide current session; nil means disabled.
var cur atomic.Pointer[Session]

// Start installs a new session as the process-wide current one and
// returns it. sink may be nil (counters only). When the Go execution
// tracer is enabled, spans additionally open runtime/trace regions under
// a "partsort" task. Counters from concurrent sorts accumulate into the
// same session; use per-run Stats.Counters deltas to attribute them.
func Start(sink Sink) *Session {
	s := &Session{sink: sink, epoch: time.Now(), ctx: context.Background()}
	if trace.IsEnabled() {
		s.ctx, s.task = trace.NewTask(context.Background(), "partsort")
	}
	cur.Store(s)
	return s
}

// Stop uninstalls the current session, emits a final "counters" meta
// event carrying the totals, and closes the sink. It is a no-op when no
// session is installed.
func Stop() error {
	s := cur.Swap(nil)
	if s == nil {
		return nil
	}
	if s.task != nil {
		s.task.End()
	}
	if s.sink == nil {
		return nil
	}
	s.sink.Emit(Event{
		Name:   "counters",
		Cat:    "meta",
		Worker: -1,
		Start:  time.Since(s.epoch),
		Args:   s.Counters.Snapshot().Map(),
	})
	return s.sink.Close()
}

// Cur returns the current session, or nil when observability is disabled.
// The nil fast path is one atomic load.
func Cur() *Session {
	return cur.Load()
}

// Meta emits a point event of category "meta" carrying args to the current
// session's sink — the hook auto-tuning uses to record which plan ran in
// the trace. A no-op (one atomic load) when no session or no sink is
// installed.
func Meta(name string, args map[string]uint64) {
	s := cur.Load()
	if s == nil || s.sink == nil {
		return
	}
	s.sink.Emit(Event{
		Name:   name,
		Cat:    "meta",
		Worker: -1,
		Start:  time.Since(s.epoch),
		Args:   args,
	})
}

// SpanHandle is an open span. The zero value (returned when disabled) is
// inert: End on it does nothing and costs nothing.
type SpanHandle struct {
	s      *Session
	region *trace.Region
	name   string
	cat    string
	algo   string
	worker int
	start  time.Time
}

// Begin opens a span on the current session; worker is the worker index
// (-1 for coordinator-level spans). Returns an inert handle when
// disabled.
func Begin(name, cat string, worker int) SpanHandle {
	return BeginIn("", name, cat, worker)
}

// BeginIn is Begin with the owning algorithm attached (the label the
// metrics sink aggregates per-(algo, phase) histograms under). algo may
// be empty for spans emitted below the driver level.
func BeginIn(algo, name, cat string, worker int) SpanHandle {
	s := cur.Load()
	if s == nil {
		return SpanHandle{}
	}
	return s.BeginIn(algo, name, cat, worker)
}

// BeginPass opens the canonical per-pass span ("pass-<k>").
func BeginPass(pass, worker int) SpanHandle {
	return BeginPassIn("", pass, worker)
}

// BeginPassIn is BeginPass with the owning algorithm attached.
func BeginPassIn(algo string, pass, worker int) SpanHandle {
	s := cur.Load()
	if s == nil {
		return SpanHandle{}
	}
	return s.BeginIn(algo, "pass-"+strconv.Itoa(pass), "pass", worker)
}

// Begin opens a span on s.
func (s *Session) Begin(name, cat string, worker int) SpanHandle {
	return s.BeginIn("", name, cat, worker)
}

// BeginIn opens a span on s with the owning algorithm attached.
func (s *Session) BeginIn(algo, name, cat string, worker int) SpanHandle {
	h := SpanHandle{s: s, name: name, cat: cat, algo: algo, worker: worker, start: time.Now()}
	if s.task != nil {
		h.region = trace.StartRegion(s.ctx, cat+":"+name)
	}
	return h
}

// End closes the span and emits it to the session's sink.
func (h SpanHandle) End() {
	h.EndN(0)
}

// EndN is End with an item count (tuples processed) attached to the span.
func (h SpanHandle) EndN(n int64) {
	if h.s == nil {
		return
	}
	d := time.Since(h.start)
	if h.region != nil {
		h.region.End()
	}
	if h.s.sink != nil {
		h.s.sink.Emit(Event{
			Name:   h.name,
			Cat:    h.cat,
			Algo:   h.algo,
			Worker: h.worker,
			Start:  h.start.Sub(h.s.epoch),
			Dur:    d,
			N:      n,
		})
	}
}
