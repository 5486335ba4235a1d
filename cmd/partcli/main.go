// Command partcli runs one partitioning pass over a generated workload
// and reports throughput and balance — a quick explorer for the paper's
// partitioning menu (variant x function x fanout).
//
// Examples:
//
//	partcli -fanout 1024 -fn radix -variant nip-ooc
//	partcli -fanout 360 -fn range -variant blocks -threads 4
//	partcli -fanout 64 -fn hash -variant sync -dist zipf -theta 1.2
//	partcli -fanout 1024 -variant ip-ooc -stats        # event counters
//	partcli -fanout 1024 -variant sync -trace t.json   # Perfetto trace
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	partsort "repro"
	"repro/internal/gen"
	"repro/internal/kv"
	"repro/internal/part"
	"repro/internal/pfunc"
	"repro/internal/splitter"
)

func main() {
	var (
		n       = flag.Int("n", 1<<21, "tuples")
		fanout  = flag.Int("fanout", 256, "partitions (power of two for radix/hash)")
		fnName  = flag.String("fn", "radix", "partition function: radix, hash, range")
		variant = flag.String("variant", "nip-ooc", "variant: nip-ic, ip-ic, nip-ooc, ip-ooc, blocks, sync, parallel")
		dist    = flag.String("dist", "uniform", "distribution: uniform, dense, zipf")
		theta   = flag.Float64("theta", 1.2, "Zipf parameter")
		width   = flag.Int("width", 32, "key width: 32 or 64")
		threads = flag.Int("threads", 1, "workers (parallel/sync/blocks variants)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		stats   = flag.Bool("stats", false, "print the observability counter snapshot for the pass")
		jsonOut = flag.Bool("json", false, "print the result as one machine-readable JSON object")
		traceTo = flag.String("trace", "", "write a span trace to this file: .jsonl extension selects JSON-lines, anything else Chrome trace-event JSON")
		mAddr   = flag.String("metrics-addr", "", "serve live telemetry on this address during the pass (e.g. 127.0.0.1:9090): Prometheus text on /metrics, expvar JSON on /debug/vars, pprof on /debug/pprof/; SIGINT shuts the endpoint down gracefully")
	)
	flag.Parse()

	if *traceTo != "" || *stats || *jsonOut || *mAddr != "" {
		var sink partsort.TraceSink
		if *traceTo != "" {
			f, err := os.Create(*traceTo)
			if err != nil {
				fatal(err.Error())
			}
			defer f.Close()
			if strings.HasSuffix(*traceTo, ".jsonl") {
				sink = partsort.NewJSONLSink(f)
			} else {
				sink = partsort.NewChromeTraceSink(f)
			}
		}
		partsort.StartObservability(partsort.NewMetricsSink(sink))
		defer func() {
			if err := partsort.StopObservability(); err != nil {
				fatal("closing trace sink: " + err.Error())
			}
		}()
	}
	if *mAddr != "" {
		srv, err := partsort.ServeMetrics(*mAddr)
		if err != nil {
			fatal("metrics endpoint: " + err.Error())
		}
		partsort.EnableProfileLabels(true)
		srv.ShutdownOnSignal(os.Interrupt, syscall.SIGTERM)
		if !*jsonOut {
			fmt.Printf("serving live metrics on %s/metrics (pprof on /debug/pprof/)\n", srv.URL())
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
	}

	switch *width {
	case 32:
		run[uint32](*n, *fanout, *fnName, *variant, *dist, *theta, *threads, *seed, *stats, *jsonOut)
	case 64:
		run[uint64](*n, *fanout, *fnName, *variant, *dist, *theta, *threads, *seed, *stats, *jsonOut)
	default:
		fatal("width must be 32 or 64")
	}
}

// partResult is the machine-readable output of -json.
type partResult struct {
	Variant     string               `json:"variant"`
	Fn          string               `json:"fn"`
	Fanout      int                  `json:"fanout"`
	N           int                  `json:"n"`
	WidthBits   int                  `json:"width_bits"`
	Threads     int                  `json:"threads"`
	ElapsedNs   int64                `json:"elapsed_ns"`
	MTuplesPerS float64              `json:"mtuples_per_s"`
	MinPart     int                  `json:"min_part"`
	MaxPart     int                  `json:"max_part"`
	NonEmpty    int                  `json:"non_empty"`
	Counters    partsort.ObsCounters `json:"counters"`
}

func run[K kv.Key](n, fanout int, fnName, variant, dist string, theta float64, threads int, seed uint64, stats, jsonOut bool) {
	var keys []K
	switch dist {
	case "uniform":
		keys = gen.Uniform[K](n, 0, seed)
	case "dense":
		keys = gen.Dense[K](n, seed)
	case "zipf":
		keys = gen.ZipfKeys[K](n, uint64(n), theta, seed)
	default:
		fatal("unknown distribution " + dist)
	}
	vals := partsort.RIDs[K](n)

	var fn pfunc.Func[K]
	switch fnName {
	case "radix":
		fn = pfunc.NewRadix[K](0, uint(log2(fanout)))
	case "hash":
		fn = pfunc.NewHash[K](fanout)
	case "range":
		sample := splitter.Sample(keys, 64*fanout, seed+1)
		sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
		delims := splitter.EqualDepth(sample, fanout)
		fn = partsort.NewRangeIndex(delims)
	default:
		fatal("unknown function " + fnName)
	}

	// Counter deltas for this pass: snapshot around the timed region so the
	// range-splitter sampling above is excluded.
	before := partsort.ObservedCounters()

	var hist []int
	var d time.Duration
	switch variant {
	case "nip-ic":
		dstK, dstV := make([]K, n), make([]K, n)
		hist = part.Histogram(keys, fn)
		d = timeIt(func() { part.NonInPlaceInCache(nil, keys, vals, dstK, dstV, fnWrap[K]{fn}, hist, nil) })
	case "ip-ic":
		hist = part.Histogram(keys, fn)
		d = timeIt(func() { part.InPlaceInCache(nil, keys, vals, fnWrap[K]{fn}, hist) })
	case "nip-ooc":
		dstK, dstV := make([]K, n), make([]K, n)
		hist = part.Histogram(keys, fn)
		starts, _ := part.Starts(hist)
		d = timeIt(func() { part.NonInPlaceOutOfCache(nil, keys, vals, dstK, dstV, fnWrap[K]{fn}, starts, nil) })
	case "ip-ooc":
		hist = part.Histogram(keys, fn)
		d = timeIt(func() { part.InPlaceOutOfCache(nil, keys, vals, fnWrap[K]{fn}, hist) })
	case "blocks":
		var starts []int
		d = timeIt(func() {
			starts = part.BlockPermute(nil, keys, vals, fnWrap[K]{fn}, part.DefaultBlockTuples, threads, nil, nil, nil)
		})
		hist = make([]int, len(starts)-1)
		for p := range hist {
			hist[p] = starts[p+1] - starts[p]
		}
	case "sync":
		hist = part.Histogram(keys, fn)
		d = timeIt(func() { part.InPlaceSynchronized(keys, vals, fnWrap[K]{fn}, hist, threads) })
	case "parallel":
		dstK, dstV := make([]K, n), make([]K, n)
		d = timeIt(func() { hist = part.ParallelNonInPlace(nil, keys, vals, dstK, dstV, fnWrap[K]{fn}, threads, nil) })
	default:
		fatal("unknown variant " + variant)
	}

	cs := partsort.ObservedCounters().Sub(before)

	minB, maxB, nonEmpty := n, 0, 0
	for _, h := range hist {
		if h > 0 {
			nonEmpty++
		}
		minB, maxB = min(minB, h), max(maxB, h)
	}
	rate := 0.0
	if d > 0 && n > 0 {
		rate = float64(n) / d.Seconds() / 1e6
	}

	if jsonOut {
		res := partResult{
			Variant:     variant,
			Fn:          fnName,
			Fanout:      len(hist),
			N:           n,
			WidthBits:   kv.Width[K](),
			Threads:     threads,
			ElapsedNs:   d.Nanoseconds(),
			MTuplesPerS: rate,
			MinPart:     minB,
			MaxPart:     maxB,
			NonEmpty:    nonEmpty,
			Counters:    cs,
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err.Error())
		}
		return
	}

	fmt.Printf("%s/%s %d-way over %d %d-bit tuples: %.2f ms (%.1f Mtuples/s)\n",
		variant, fnName, len(hist), n, kv.Width[K](),
		float64(d.Microseconds())/1000, rate)
	mean := 0
	if len(hist) > 0 {
		mean = n / len(hist)
	}
	fmt.Printf("balance: min %d / mean %d / max %d tuples, %d/%d partitions non-empty\n",
		minB, mean, maxB, nonEmpty, len(hist))
	if stats {
		fmt.Printf("counters: tuples %d  flushes %d  swap-cycles %d  sync-claims %d  parks %d  remote %d B  samples %d\n",
			cs.TuplesPartitioned, cs.BufferFlushes, cs.SwapCycles, cs.SyncClaims,
			cs.SyncParks, cs.RemoteBytes, cs.SplitterSamples)
	}
}

// fnWrap fixes the concrete type for the generic kernels when fn is held
// as an interface.
type fnWrap[K kv.Key] struct{ f pfunc.Func[K] }

func (w fnWrap[K]) Partition(k K) int { return w.f.Partition(k) }
func (w fnWrap[K]) Fanout() int       { return w.f.Fanout() }

func timeIt(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

func log2(p int) int {
	l := 0
	for 1<<l < p {
		l++
	}
	if 1<<l != p {
		fatal("fanout must be a power of two for radix/hash")
	}
	return l
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "partcli:", msg)
	os.Exit(1)
}
