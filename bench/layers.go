package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	partsort "repro"
	"repro/internal/kv"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/rangeidx"
	"repro/internal/server"
	"repro/internal/sortalgo"
	"repro/internal/tune"
	"repro/internal/ws"
)

// driveReps is how many timed repetitions each layer drive makes; the
// metric is their median.
const driveReps = 3

const mib = 1 << 20

// drive is one repeated, traced call into a layer.
type drive struct {
	layer, name string
	a           attrs
	prep        func()       // before each repetition, untimed
	run         func()       // the timed call
	check       func() error // verifies each repetition's output, untimed
}

// repeat runs dr reps times, each under its own span, accounts every
// repetition's verification, and returns the median call time.
func repeat(e *env, tr *tracer, parent span, reps int, dr drive) time.Duration {
	var ds []float64
	for i := 0; i < reps; i++ {
		if dr.prep != nil {
			dr.prep()
		}
		s := tr.begin(parent, dr.layer, dr.name, dr.a)
		dr.run()
		ds = append(ds, float64(s.end()))
		if dr.check != nil {
			e.rec.op(dr.layer+"."+dr.name, dr.check())
		}
	}
	return time.Duration(median(ds))
}

// mtps is tuples per second of d, in millions.
func mtps(n int, d time.Duration) float64 { return float64(n) / d.Seconds() / 1e6 }

// driveMaxN caps the tuples a layer drive runs on: the first driveMaxN of
// a larger input, which keeps the largest workload's traced run near
// forty seconds.
const driveMaxN = 1 << 22

// driveLayers runs every layer's direct drive on the workload's inputs
// and records the per-layer metrics.
func driveLayers[K partsort.Key](e *env, tr *tracer, root span, keys, vals, exp []K) {
	if len(keys) > driveMaxN {
		keys, vals = keys[:driveMaxN], vals[:driveMaxN]
		exp = sortedCopy(keys)
	}
	prof := driveTune(e, tr, root, keys)
	mem := prof.Mem()
	drivePart(e, tr, root, keys, vals, mem)
	driveSorts(e, tr, root, keys, vals, exp, prof, mem)
	driveComb(e, tr, root, keys, vals, mem)
	driveRangeIndex(e, tr, root, keys, exp)
	driveExternal(e, tr, root, keys, vals, exp)
	driveServer(e, tr, root, keys)
}

// driveTune times calibration, planning on the workload's keys, and the
// spill plan for the ext-spill budget ratio.
func driveTune[K partsort.Key](e *env, tr *tracer, root span, keys []K) *tune.MachineProfile {
	d := tr.begin(root, "tune", "drive", attrs{n: len(keys)})
	defer d.end()
	width := kv.Width[K]()
	var prof *tune.MachineProfile
	t := repeat(e, tr, d, 1, drive{layer: "tune", name: "Calibrate", run: func() { prof = partsort.Calibrate() }})
	e.rec.set("tune.calibrate_s", t.Seconds())
	e.prof = prof
	var plan tune.Plan
	t = repeat(e, tr, d, driveReps, drive{layer: "tune", name: "plan", a: attrs{n: len(keys)}, run: func() {
		w := tune.SampleKeys(keys, 0, e.cfg.seed)
		plan = tune.Choose(prof, w, tune.Requirements{KeyBits: width, MaxThreads: e.threads})
	}})
	e.rec.set("tune.plan_ms", msOf(t))
	e.rec.set("tune.choice", float64(algoIndex(plan.Algo)))
	budget := int64(len(keys)) * int64(2*width/8) / extBudgetShare
	e.rec.set("tune.spill_mem_mb", float64(partsort.PlanSpill(len(keys), width, budget).MemBytes)/mib)
	return prof
}

// algoIndex numbers the planner's choice 0 LSB, 1 MSB, 2 CMP.
func algoIndex(a tune.Algo) int {
	switch a {
	case tune.AlgoMSB:
		return 1
	case tune.AlgoCMP:
		return 2
	}
	return 0
}

// drivePart times one partition pass of each variant at each of partBits
// over the top bits of the key domain, against the calibrated model.
func drivePart[K partsort.Key](e *env, tr *tracer, root span, keys, vals []K, mem memmodel.Profile) {
	d := tr.begin(root, "part", "drive", attrs{n: len(keys)})
	defer d.end()
	n, kb := len(keys), kv.Width[K]()/8
	domain := kv.DomainBits(keys)
	inSum := kv.ChecksumPairs(keys, vals)
	w := ws.New()
	defer w.Close()
	dk, dv := make([]K, n), make([]K, n)
	fresh := func() { copy(dk, keys); copy(dv, vals) }
	for _, b := range partBits {
		shift := uint(max(domain-b, 0))
		fn := pfunc.NewRadix[K](shift, shift+uint(b))
		fanout := fn.Fanout()
		a := attrs{n: n, bits: b}
		ref := make([]int, fanout)
		for _, k := range keys {
			ref[fn.Partition(k)]++
		}
		partitioned := func() error { return checkPartitioned(dk, dv, fn, inSum) }
		set := func(kind string, t time.Duration, model float64) {
			p := fmt.Sprintf("part.%s.b%d.", kind, b)
			e.rec.set(p+"mtps", mtps(n, t))
			e.rec.set(p+"model_ratio", float64(n)/t.Seconds()/model)
		}

		var hists [][]int
		var bounds []int
		t := repeat(e, tr, d, driveReps, drive{layer: "part", name: "ParallelHistogramsWS", a: a,
			prep: func() {
				if hists != nil {
					w.PutMatrix(hists)
					w.PutInts(bounds)
				}
			},
			run:   func() { hists, bounds = part.ParallelHistogramsWS(w, keys, fn, e.threads) },
			check: func() error { return checkKeys(part.MergeHistograms(hists), ref) },
		})
		set("hist", t, memmodel.Histogram(mem, memmodel.HistRadix, fanout, kb, e.threads))

		t = repeat(e, tr, d, driveReps, drive{layer: "part", name: "ParallelScatterWS", a: a,
			run:   func() { part.ParallelScatterWS(w, keys, vals, dk, dv, fn, hists, 0) },
			check: partitioned,
		})
		set("scatter", t, memmodel.PartitionPass(mem, memmodel.NonInPlaceOutOfCache, fanout, kb, e.threads, 0))
		w.PutMatrix(hists)
		w.PutInts(bounds)

		t = repeat(e, tr, d, driveReps, drive{layer: "part", name: "InPlaceOutOfCacheWS", a: a,
			prep: fresh, run: func() { part.InPlaceOutOfCacheWS(w, dk, dv, fn, ref) }, check: partitioned,
		})
		set("inplace", t, memmodel.PartitionPass(mem, memmodel.InPlaceOutOfCache, fanout, kb, 1, 0))

		starts := make([]int, fanout+1)
		t = repeat(e, tr, d, driveReps, drive{layer: "part", name: "BlockPermutePartition", a: a,
			prep: fresh, run: func() { part.BlockPermutePartition(w, dk, dv, fn, 0, e.threads, starts) }, check: partitioned,
		})
		set("blockperm", t, memmodel.PartitionPass(mem, memmodel.InPlaceOutOfCache, fanout, kb, e.threads, 0))
	}
}

// checkPartitioned verifies a partition pass: partition ids never
// decrease along the output, which holds a permutation of the input.
func checkPartitioned[K partsort.Key](keys, vals []K, fn pfunc.Radix[K], inSum kv.Checksum) error {
	prev := 0
	for i, k := range keys {
		p := fn.Partition(k)
		if p < prev {
			return fmt.Errorf("tuple %d is in partition %d after partition %d", i, p, prev)
		}
		prev = p
	}
	if kv.ChecksumPairs(keys, vals) != inSum {
		return errors.New("partitioned pairs are not a permutation of the input pairs")
	}
	return nil
}

// driveSorts times each algorithm through its public entry point and its
// sortalgo driver on identical inputs, interleaved, plus the auto-tuned
// Sort and one small resilient sort.
func driveSorts[K partsort.Key](e *env, tr *tracer, root span, keys, vals, exp []K, prof *tune.MachineProfile, mem memmodel.Profile) {
	d := tr.begin(root, "sortalgo", "drive", attrs{n: len(keys)})
	defer d.end()
	n, width := len(keys), kv.Width[K]()
	inSum := kv.ChecksumPairs(keys, vals)
	k, v := make([]K, n), make([]K, n)
	tmpK, tmpV := make([]K, n), make([]K, n)
	fresh := func() { copy(k, keys); copy(v, vals) }
	iw := ws.New()
	defer iw.Close()
	pw := partsort.NewWorkspace()
	defer pw.Close()

	type algo struct {
		name   string
		model  memmodel.SortAlgo
		stable bool
		direct func(o sortalgo.Options)
		public func(o *partsort.SortOptions)
	}
	algos := []algo{
		{"lsb", memmodel.SortLSB, true,
			func(o sortalgo.Options) { sortalgo.LSB(k, v, tmpK, tmpV, o) },
			func(o *partsort.SortOptions) { partsort.SortLSB(k, v, o) }},
		{"msb", memmodel.SortMSB, false,
			func(o sortalgo.Options) { sortalgo.MSB(k, v, o) },
			func(o *partsort.SortOptions) { partsort.SortMSB(k, v, o) }},
		// Parallel SortCMP takes the in-place layout (no linear scratch);
		// the direct call mirrors that choice.
		{"cmp", memmodel.SortCMP, false,
			func(o sortalgo.Options) {
				if e.threads > 1 {
					sortalgo.CMP[K](k, v, nil, nil, o)
				} else {
					sortalgo.CMP(k, v, tmpK, tmpV, o)
				}
			},
			func(o *partsort.SortOptions) { partsort.SortCMP(k, v, o) }},
	}
	sorted := func(stable bool) func() error {
		return func() error { return checkSort(k, v, exp, inSum, stable) }
	}

	// Warm both workspaces so the timed repetitions run on pooled scratch.
	warm := tr.begin(d, "ws", "warm-up", attrs{n: n})
	for _, al := range algos {
		fresh()
		al.public(&partsort.SortOptions{Threads: e.threads, Workspace: pw})
		fresh()
		al.direct(sortalgo.Options{Threads: e.threads, Workspace: iw})
	}
	warm.end()

	pubTime := make(map[partsort.Algorithm]time.Duration)
	for ai, al := range algos {
		var pub, dir []float64
		var pst []sortalgo.Stats
		phases := make(map[string][]float64)
		var passes int
		for r := 0; r < driveReps; r++ {
			var ps sortalgo.Stats
			pub = append(pub, float64(repeat(e, tr, d, 1, drive{layer: "partsort", name: "Sort" + al.name, a: attrs{n: n, algo: al.name},
				prep: fresh, run: func() { al.public(&partsort.SortOptions{Threads: e.threads, Workspace: pw, Stats: &ps}) },
				check: sorted(al.stable)})))
			pst = append(pst, ps)
			var ds sortalgo.Stats
			dir = append(dir, float64(repeat(e, tr, d, 1, drive{layer: "sortalgo", name: al.name, a: attrs{n: n, algo: al.name},
				prep: fresh, run: func() { al.direct(sortalgo.Options{Threads: e.threads, Workspace: iw, Stats: &ds}) },
				check: sorted(al.stable)})))
			for name, t := range map[string]time.Duration{"hist_ms": ds.Histogram, "partition_ms": ds.Partition,
				"local_ms": ds.LocalRadix, "cache_ms": ds.CacheSort} {
				phases[name] = append(phases[name], msOf(t))
			}
			passes = ds.Passes
		}
		pt, dt := time.Duration(median(pub)), time.Duration(median(dir))
		pubTime[partsort.Algorithm(ai)] = pt
		p := "sortalgo." + al.name + "."
		e.rec.set(p+"mtps", mtps(n, dt))
		model := memmodel.Sort(mem, memmodel.SortConfig{Algo: al.model, KeyBytes: width / 8, Threads: e.threads,
			N: n, DomainBits: kv.DomainBits(keys), PreAllocated: true}).Total()
		e.rec.set(p+"model_ratio", model/dt.Seconds())
		for name, xs := range phases {
			e.rec.set(p+name, median(xs))
		}
		e.rec.set(p+"passes", float64(passes))
		e.rec.set("partsort."+al.name+".mtps", mtps(n, pt))
		e.rec.set("partsort."+al.name+".overhead_ms", msOf(pt-dt))
		var peak, misses float64
		for _, s := range pst {
			peak = max(peak, float64(s.PeakAuxBytes)/mib)
			misses += float64(s.WorkspaceMisses) / float64(len(pst))
		}
		e.rec.set("ws."+al.name+".peak_aux_mb", peak)
		e.rec.set("ws."+al.name+".misses_per_sort", misses)
	}

	var chosen partsort.Algorithm
	auto := &partsort.SortOptions{Threads: e.threads, Workspace: pw, AutoTune: true, Profile: prof}
	t := repeat(e, tr, d, driveReps, drive{layer: "partsort", name: "Sort", a: attrs{n: n, algo: "auto"},
		prep: fresh, run: func() { chosen = partsort.Sort(k, v, false, false, auto) }, check: sorted(false)})
	e.rec.set("partsort.auto.mtps", mtps(n, t))
	e.rec.set("partsort.auto.overhead_ms", msOf(t-pubTime[chosen]))

	// One service-sized request, as sortd runs it: single-threaded under
	// the resilient supervisor.
	m := min(n, reqKeys)
	small, smallV := append([]K(nil), keys[:m]...), append([]K(nil), vals[:m]...)
	smallExp, smallSum := sortedCopy(small), kv.ChecksumPairs(small, smallV)
	k4, v4 := make([]K, m), make([]K, m)
	var err error
	t = repeat(e, tr, d, 51, drive{layer: "partsort", name: "SortResilientCtx", a: attrs{n: m, algo: "lsb"},
		prep: func() { copy(k4, small); copy(v4, smallV) },
		run: func() {
			err = partsort.SortResilientCtx(context.Background(), partsort.LSB, k4, v4,
				&partsort.SortOptions{Threads: 1, Workspace: pw}, nil)
		},
		check: func() error {
			if err != nil {
				return err
			}
			return checkSort(k4, v4, smallExp, smallSum, false)
		}})
	e.rec.set("partsort.resilient_4k_us", float64(t)/1e3)
}

// driveComb times the in-cache SIMD comb sort on cache-sized chunks: the
// leaf sort of CMP.
func driveComb[K partsort.Key](e *env, tr *tracer, root span, keys, vals []K, mem memmodel.Profile) {
	d := tr.begin(root, "sortalgo", "comb", attrs{n: len(keys)})
	defer d.end()
	kb := kv.Width[K]() / 8
	chunk := (256 << 10) / (2 * kb) // sortalgo's default cache-resident segment
	m := min(len(keys), 64*chunk)
	ck, cv := make([]K, m), make([]K, m)
	cs := sortalgo.NewCombSorter[K](chunk)
	each := func(f func(lo, hi int) error) error {
		for lo := 0; lo < m; lo += chunk {
			if err := f(lo, min(lo+chunk, m)); err != nil {
				return err
			}
		}
		return nil
	}
	t := repeat(e, tr, d, driveReps, drive{layer: "sortalgo", name: "CombSorter.SortInPlace", a: attrs{n: m},
		prep: func() { copy(ck, keys[:m]); copy(cv, vals[:m]) },
		run: func() {
			each(func(lo, hi int) error { cs.SortInPlace(ck[lo:hi], cv[lo:hi]); return nil })
		},
		check: func() error {
			return each(func(lo, hi int) error {
				if !partsort.IsSorted(ck[lo:hi]) ||
					kv.ChecksumPairs(ck[lo:hi], cv[lo:hi]) != kv.ChecksumPairs(keys[lo:hi], vals[lo:hi]) {
					return fmt.Errorf("chunk at %d is not a sorted permutation of its input", lo)
				}
				return nil
			})
		}})
	e.rec.set("sortalgo.comb.mtps", mtps(m, t))
	e.rec.set("sortalgo.comb.model_ratio", float64(m)/t.Seconds()/memmodel.CombSortThroughput(mem, chunk, kb, true))
}

// driveRangeIndex times a batch lookup through CMP's 360-way range index,
// built from delimiters at equal ranks of the sorted keys.
func driveRangeIndex[K partsort.Key](e *env, tr *tracer, root span, keys, exp []K) {
	d := tr.begin(root, "rangeidx", "drive", attrs{n: len(keys)})
	defer d.end()
	const fanout = 360
	n := len(keys)
	delims := make([]K, fanout-1)
	for i := range delims {
		delims[i] = exp[(i+1)*n/fanout]
	}
	tree := rangeidx.NewTreeFor(delims)
	out := make([]int32, n)
	t := repeat(e, tr, d, driveReps, drive{layer: "rangeidx", name: "Tree.LookupBatch", a: attrs{n: n},
		run: func() { tree.LookupBatch(keys, out) },
		check: func() error {
			for i := 0; i < n; i += max(1, n/4096) {
				if want := rangeidx.Search(delims, keys[i]); int(out[i]) != want {
					return fmt.Errorf("key %d maps to range %d, want %d", i, out[i], want)
				}
			}
			return nil
		}})
	e.rec.set("rangeidx.lookup.mtps", mtps(n, t))
}

// driveExternal runs one external sort of the workload's pairs under a
// budget of an eighth of their bytes and reports its spill statistics.
func driveExternal[K partsort.Key](e *env, tr *tracer, root span, keys, vals, exp []K) {
	d := tr.begin(root, "extsort", "drive", attrs{n: len(keys)})
	defer d.end()
	n := len(keys)
	in := float64(n * 2 * kv.Width[K]() / 8)
	dir := filepath.Join(e.cfg.tmp, "drive-spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		e.rec.op("extsort spill directory", err)
		return
	}
	k, v := append([]K(nil), keys...), append([]K(nil), vals...)
	inSum := kv.ChecksumPairs(keys, vals)
	opt := &partsort.SortOptions{Threads: e.threads, MaxAuxBytes: int64(in) / extBudgetShare, TempDir: dir}
	var st partsort.ExternalStats
	var err error
	repeat(e, tr, d, 1, drive{layer: "extsort", name: "SortExternal", a: attrs{n: n},
		run: func() { st, err = partsort.SortExternal(k, v, opt) },
		check: func() error {
			if err != nil {
				return err
			}
			if err := checkSort(k, v, exp, inSum, false); err != nil {
				return err
			}
			return checkEmptyDir(dir)
		}})
	e.rec.set("extsort.write_amp", float64(st.SpillBytes)/in)
	e.rec.set("extsort.read_amp", float64(st.ReadBytes)/in)
	e.rec.set("extsort.overlap", st.OverlapRatio())
	e.rec.set("extsort.io_ms", float64(st.IONs)/1e6)
	e.rec.set("extsort.stall_ms", float64(st.StallNs)/1e6)
	e.rec.set("extsort.runs", float64(st.RunsWritten))
	e.rec.set("extsort.merge_rounds", float64(st.MergeRounds))
	e.rec.set("extsort.max_fanin", float64(st.MaxFanIn))
}

// Service drive timing: each protocol's reference phase, then the
// max-rate probes, then the in-process Submit phase.
func (e *env) servicePhases() (ref, probe time.Duration, probes int) {
	if e.cfg.quick {
		return time.Second, 300 * time.Millisecond, 2
	}
	ref = max(2*time.Second, time.Duration(e.cfg.seconds*float64(time.Second))/5)
	return ref, time.Second, 3
}

// driveServer cuts sortd requests from the workload's keys and drives a
// child sortd over both protocols at their reference rates, attributing
// the latency from /metrics deltas; then searches each protocol's max
// rate; then drives an in-process server through Submit, with no wire.
func driveServer[K partsort.Key](e *env, tr *tracer, root span, keys []K) {
	d := tr.begin(root, "server", "drive", attrs{n: len(keys)})
	defer d.end()
	wide := make([]uint64, min(len(keys), reqCount*reqKeys))
	for i := range wide {
		wide[i] = uint64(keys[i])
	}
	rs, err := buildRequests(wide, kv.Width[K]())
	if err != nil {
		e.rec.op("build requests", err)
		return
	}
	refDur, probeDur, probes := e.servicePhases()

	dm, err := startDaemon(e.cfg.sortd)
	if err == nil {
		err = dm.firstResponses(rs)
	}
	e.rec.op("sortd start", err)
	if dm == nil {
		return
	}
	for _, proto := range []string{"http", "tcp"} {
		before, err1 := dm.scrape()
		ps := tr.begin(d, "gen", proto+".openloop", attrs{n: len(rs.keys[0])})
		p := dm.load(proto, rs, refRate[proto], refDur, e.threads, tr, ps)
		ps.end()
		after, err2 := dm.scrape()
		e.rec.op("scrape /metrics", errors.Join(err1, err2))
		for _, err := range p.errs {
			e.rec.op(proto+" request", err)
		}
		var rtt []float64
		for i, x := range p.rtt {
			if p.errs[i] == nil {
				rtt = append(rtt, x)
			}
		}
		reqMs := meanDelta(before, after, "partsort_server_request_seconds") * 1e3
		s := "server." + proto + "."
		e.rec.set(s+"queue_ms", meanDelta(before, after, "partsort_server_queue_wait_seconds")*1e3)
		e.rec.set(s+"sort_ms", meanDelta(before, after, "partsort_server_sort_seconds")*1e3)
		e.rec.set(s+"request_ms", reqMs)
		e.rec.set(s+"wire_ms", mean(rtt)-reqMs)
		// batch_requests records a count through ns-scaled buckets.
		e.rec.set(s+"batch_size", meanDelta(before, after, "partsort_server_batch_requests")*1e9)
		e.rec.set(s+"rejected", after.sum("partsort_server_admissions_total", `outcome="rejected`)-
			before.sum("partsort_server_admissions_total", `outcome="rejected`))
		c := "client." + proto + "."
		e.rec.set(c+"p50_ms", percentile(p.lat, 0.5))
		e.rec.set(c+"p90_ms", percentile(p.lat, 0.9))
		e.rec.set(c+"p99_ms", percentile(p.lat, 0.99))
		e.rec.set(c+"max_ms", percentile(p.lat, 1))
		e.rec.set(c+"samples", float64(len(p.lat)))
		g := "gen." + proto + "."
		e.rec.set(g+"late_p99_ms", percentile(p.late, 0.99))
		e.rec.set(g+"cpu_s", p.cpu)

		search := tr.begin(d, "gen", proto+".max-rate", attrs{})
		best := maxRate(p, probes, func(rate float64) phase {
			return dm.load(proto, rs, rate, probeDur, e.threads, tr, search)
		})
		search.end()
		e.rec.set(c+"max_rps", best)
	}
	e.rec.op("sortd drain", dm.stop())
	driveSubmit(e, tr, d, rs, refDur)
}

// driveSubmit drives an in-process server (private metrics registry)
// through Submit, open loop at the TCP reference rate.
func driveSubmit(e *env, tr *tracer, parent span, rs *requestSet, dur time.Duration) {
	srv := server.New(server.Config{Registry: obs.NewRegistry()})
	b64 := make([][]uint64, e.threads)
	b32 := make([][]uint32, e.threads)
	ps := tr.begin(parent, "gen", "submit.openloop", attrs{n: len(rs.keys[0])})
	p := openLoop(refRate["tcp"], dur, e.threads, func(w, i int) error {
		j := i % len(rs.keys)
		req := &server.Request{Tenant: "t" + strconv.Itoa(j%reqTenants), Algo: partsort.LSB}
		if rs.width == 32 {
			b32[w] = b32[w][:0]
			for _, k := range rs.keys[j] {
				b32[w] = append(b32[w], uint32(k))
			}
			req.Keys32 = b32[w]
		} else {
			b64[w] = append(b64[w][:0], rs.keys[j]...)
			req.Keys64 = b64[w]
		}
		s := tr.begin(ps, "server", "Submit", attrs{n: len(rs.keys[j])})
		_, err := srv.Submit(context.Background(), req)
		s.end()
		if err != nil {
			return err
		}
		if rs.width == 32 {
			for x, k := range b32[w] {
				if uint64(k) != rs.exp[j][x] {
					return fmt.Errorf("key %d is %d, want %d", x, k, rs.exp[j][x])
				}
			}
			return nil
		}
		return checkKeys(b64[w], rs.exp[j])
	})
	ps.end()
	for _, err := range p.errs {
		e.rec.op("Submit", err)
	}
	e.rec.set("server.submit.p50_ms", percentile(p.lat, 0.5))
	e.rec.set("server.submit.p90_ms", percentile(p.lat, 0.9))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.rec.op("server drain", srv.Drain(ctx))
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
