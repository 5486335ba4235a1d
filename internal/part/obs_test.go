package part

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pfunc"
	"repro/internal/ws"
)

// withSession installs a counters-only obs session for the test body and
// returns the counter delta it produced. Repo tests never run in parallel,
// so swapping the process-wide session is safe.
func withSession(t *testing.T, fn func()) obs.CounterSnapshot {
	t.Helper()
	s := obs.Start(nil)
	t.Cleanup(func() { _ = obs.Stop() })
	fn()
	return s.Counters.Snapshot()
}

func TestObsCountersNonInPlaceOutOfCache(t *testing.T) {
	n := 1 << 14
	keys := gen.Uniform[uint32](n, 0, 1)
	vals := gen.Dense[uint32](n, 2)
	fn := pfunc.NewRadix[uint32](0, 6)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	dstK, dstV := make([]uint32, n), make([]uint32, n)

	cs := withSession(t, func() {
		NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fn, starts, nil)
	})
	if cs.TuplesPartitioned != uint64(n) {
		t.Fatalf("TuplesPartitioned = %d, want %d", cs.TuplesPartitioned, n)
	}
	// Every tuple passes through a line buffer exactly once, so flush count
	// is n/L plus at most one partial drain per partition.
	l := uint64(LineTuples[uint32]())
	minF := uint64(n) / l
	maxF := uint64(n)/l + uint64(fn.Fanout())
	if cs.BufferFlushes < minF || cs.BufferFlushes > maxF {
		t.Fatalf("BufferFlushes = %d, want in [%d, %d]", cs.BufferFlushes, minF, maxF)
	}
	if cs.SwapCycles != 0 || cs.SyncClaims != 0 {
		t.Fatalf("unexpected counters: %+v", cs)
	}
}

func TestObsFlushCountSinglePartition(t *testing.T) {
	// One partition: the writer fills whole lines back to back, so flushes
	// are exactly ceil(n/L) (the final partial line drains too).
	n := 1000
	keys := gen.AllEqual[uint32](n, 7)
	vals := gen.Dense[uint32](n, 2)
	fn := pfunc.NewRadix[uint32](0, 4)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	dstK, dstV := make([]uint32, n), make([]uint32, n)

	cs := withSession(t, func() {
		NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fn, starts, nil)
	})
	l := LineTuples[uint32]()
	want := uint64((n + l - 1) / l)
	if cs.BufferFlushes != want {
		t.Fatalf("BufferFlushes = %d, want ceil(%d/%d) = %d", cs.BufferFlushes, n, l, want)
	}
}

func TestObsCountersInPlace(t *testing.T) {
	n := 1 << 13
	fn := pfunc.NewRadix[uint32](0, 5)

	keys := gen.Uniform[uint32](n, 0, 3)
	vals := gen.Dense[uint32](n, 4)
	cs := withSession(t, func() {
		InPlaceInCache(nil, keys, vals, fn, Histogram(keys, fn))
	})
	if cs.TuplesPartitioned != uint64(n) {
		t.Fatalf("in-cache TuplesPartitioned = %d, want %d", cs.TuplesPartitioned, n)
	}
	if cs.SwapCycles == 0 {
		t.Fatal("in-place in-cache partition recorded no swap cycles")
	}

	keys = gen.Uniform[uint32](n, 0, 5)
	vals = gen.Dense[uint32](n, 6)
	cs = withSession(t, func() {
		InPlaceOutOfCache(nil, keys, vals, fn, Histogram(keys, fn))
	})
	if cs.TuplesPartitioned != uint64(n) {
		t.Fatalf("out-of-cache TuplesPartitioned = %d, want %d", cs.TuplesPartitioned, n)
	}
	if cs.SwapCycles == 0 || cs.BufferFlushes == 0 {
		t.Fatalf("out-of-cache counters: %+v", cs)
	}
}

func TestObsCountersSync(t *testing.T) {
	n := 1 << 13
	keys := gen.Uniform[uint32](n, 0, 9)
	vals := gen.Dense[uint32](n, 10)
	fn := pfunc.NewRadix[uint32](0, 4)
	cs := withSession(t, func() {
		InPlaceSynchronized(keys, vals, fn, Histogram(keys, fn), 4)
	})
	if cs.TuplesPartitioned != uint64(n) {
		t.Fatalf("TuplesPartitioned = %d, want %d", cs.TuplesPartitioned, n)
	}
	// Every tuple lands in a slot claimed by fetch-and-add exactly once.
	if cs.SyncClaims != uint64(n) {
		t.Fatalf("SyncClaims = %d, want %d", cs.SyncClaims, n)
	}
}

func TestObsCountersBlocks(t *testing.T) {
	n := 1 << 13
	keys := gen.Uniform[uint32](n, 0, 11)
	vals := gen.Dense[uint32](n, 12)
	fn := pfunc.NewRadix[uint32](0, 4)
	cs := withSession(t, func() {
		BlockPermute(nil, keys, vals, fn, 256, 1, nil, nil, nil)
	})
	if cs.TuplesPartitioned != uint64(n) {
		t.Fatalf("TuplesPartitioned = %d, want %d", cs.TuplesPartitioned, n)
	}
	if cs.BufferFlushes == 0 {
		t.Fatal("block permutation recorded no block flushes")
	}
}

func TestObsZeroTuples(t *testing.T) {
	fn := pfunc.NewRadix[uint32](0, 4)
	cs := withSession(t, func() {
		var keys, vals []uint32
		hist := Histogram(keys, fn)
		starts, _ := Starts(hist)
		NonInPlaceOutOfCache(nil, keys, vals, nil, nil, fn, starts, nil)
		InPlaceInCache(nil, keys, vals, fn, hist)
		InPlaceSynchronized(keys, vals, fn, hist, 2)
	})
	if !cs.IsZero() {
		t.Fatalf("zero-tuple run produced nonzero counters: %+v", cs)
	}
}

// TestObsDisabledNoCounters pins that kernels leave no trace when the
// subsystem is off: a session installed after the fact sees zero.
func TestObsDisabledNoCounters(t *testing.T) {
	n := 1 << 12
	keys := gen.Uniform[uint32](n, 0, 13)
	vals := gen.Dense[uint32](n, 14)
	fn := pfunc.NewRadix[uint32](0, 4)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	NonInPlaceOutOfCache(nil, keys, vals, make([]uint32, n), make([]uint32, n), fn, starts, nil)

	s := obs.Start(nil)
	t.Cleanup(func() { _ = obs.Stop() })
	if cs := s.Counters.Snapshot(); !cs.IsZero() {
		t.Fatalf("disabled-period events leaked into session: %+v", cs)
	}
}

// BenchmarkObsOverhead measures the partitioning kernels with observability
// off and on; the "off" cases guard the near-zero-cost contract for the
// default configuration (compare with -bench 'ObsOverhead' ./...). The
// Radix fn routes every sub-benchmark through the unrolled radix kernels
// (scatterLinesRadix, inCacheScatterRadix, inPlaceOutOfCacheRadix), so the
// disabled-path guard covers them too.
func BenchmarkObsOverhead(b *testing.B) {
	n := 1 << 20
	keys := gen.Uniform[uint32](n, 0, 1)
	vals := gen.Dense[uint32](n, 2)
	fn := pfunc.NewRadix[uint32](0, 10)
	hist := Histogram(keys, fn)
	starts, _ := Starts(hist)
	dstK, dstV := make([]uint32, n), make([]uint32, n)
	w := ws.New()
	defer w.Close()
	inK, inV := make([]uint32, n), make([]uint32, n)

	kernels := []struct {
		name string
		run  func()
	}{
		{"scatter", func() {
			s := append([]int(nil), starts...)
			NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fn, s, nil)
		}},
		{"incache", func() {
			NonInPlaceInCache(w, keys, vals, dstK, dstV, fn, hist, nil)
		}},
		{"inplace", func() {
			copy(inK, keys)
			copy(inV, vals)
			InPlaceOutOfCache(w, inK, inV, fn, hist)
		}},
	}
	for _, k := range kernels {
		run := func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				k.run()
			}
		}
		b.Run(k.name+"/off", run)
		b.Run(k.name+"/on", func(b *testing.B) {
			obs.Start(nil)
			defer func() { _ = obs.Stop() }()
			run(b)
		})
	}

	// The live-metrics primitives themselves: one histogram record (the
	// per-span cost of the metrics sink) and one full registry snapshot
	// (the per-scrape cost), each with the span pipeline off and on.
	reg := obs.NewRegistry()
	h := reg.Histogram("bench_hist", "")
	b.Run("histrecord/off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := obs.BeginIn("lsb", "local", "phase", -1)
			sp.End()
		}
	})
	b.Run("histrecord/on", func(b *testing.B) {
		obs.Start(obs.NewMetricsSink(reg, nil))
		defer func() { _ = obs.Stop() }()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := obs.BeginIn("lsb", "local", "phase", -1)
			sp.End()
		}
	})
	b.Run("snapshot/off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(i), i&7)
		}
	})
	b.Run("snapshot/on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = h.Snapshot().Count
		}
	})
}

// TestObsRecordPathAllocs pins the zero-allocation contract of the hot
// record path at both session states: with observability disabled the
// span hook is an atomic load, and with a metrics-sink session installed
// each span costs two atomic adds into the histogram shards — neither
// may allocate.
func TestObsRecordPathAllocs(t *testing.T) {
	if obs.Cur() != nil {
		t.Fatal("test requires no installed session")
	}
	if a := testing.AllocsPerRun(1000, func() {
		sp := obs.BeginIn("lsb", "local", "phase", -1)
		sp.End()
	}); a != 0 {
		t.Fatalf("disabled span hook allocates %v/op", a)
	}

	reg := obs.NewRegistry()
	obs.Start(obs.NewMetricsSink(reg, nil))
	t.Cleanup(func() { _ = obs.Stop() })
	// Warm: the first span of a key registers its series.
	sp := obs.BeginIn("lsb", "local", "phase", -1)
	sp.End()
	if a := testing.AllocsPerRun(1000, func() {
		sp := obs.BeginIn("lsb", "local", "phase", -1)
		sp.EndN(64)
	}); a != 0 {
		t.Fatalf("enabled histogram record path allocates %v/op", a)
	}
}
