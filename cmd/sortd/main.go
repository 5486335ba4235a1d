// Command sortd is the sort daemon: the partsort library served as a
// long-running multi-tenant service. It exposes the HTTP/JSON API
// (POST /v1/sort, GET /healthz, GET /v1/stats) on -addr, an optional
// length-prefixed raw-TCP API on -tcp-addr, and the live telemetry
// endpoint (Prometheus /metrics, expvar, pprof) on -metrics-addr.
// Requests pass admission control (queue depth, the auxiliary-memory
// ledger, optional per-tenant caps), small key-only requests that queue
// behind busy executors coalesce into merged batched runs (no timer: a
// request that finds an executor idle starts at once), and every sort
// executes under the SortResilientCtx retry/fallback supervisor on pooled
// per-size-class workspace arenas. With -spill-dir set, requests too
// large for the memory ledger degrade onto the external disk-spilling
// sort (bounded by the -max-spill-bytes disk ledger) instead of being
// rejected; without it they answer 413 with a structured reason.
//
// SIGTERM or SIGINT starts a graceful drain: admission flips to
// rejecting (503 + Retry-After, /healthz reports "draining"), queued
// work finishes, and once -drain-timeout expires any still-running sorts
// are cancelled through their Try*Ctx rollback.
//
// Exit codes: 0 clean drain, 1 runtime failure, 2 bad flags (including
// the removed -batch-window, -autotune, -profile and -spill-segment), 3
// drain deadline forced cancellation. See OPERATIONS.md for the full
// operator runbook.
//
// Example:
//
//	sortd -addr :8070 -metrics-addr :9090 -queue-depth 512 -workers 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	partsort "repro"
	"repro/internal/server"
)

func main() {
	os.Exit(run())
}

// run is main behind an exit code.
func run() int {
	var (
		addr         = flag.String("addr", ":8070", "HTTP API listen address")
		tcpAddr      = flag.String("tcp-addr", "", "raw-TCP API listen address (empty: disabled)")
		metricsAddr  = flag.String("metrics-addr", "", "live telemetry endpoint address (empty: disabled)")
		queueDepth   = flag.Int("queue-depth", 256, "admitted-but-unfinished request bound")
		workers      = flag.Int("workers", 0, "executor goroutines (0: GOMAXPROCS)")
		sortThreads  = flag.Int("sort-threads", 1, "worker threads per individual sort")
		maxAux       = flag.Int64("max-aux", 0, "admission ledger budget in bytes (0: half of available memory)")
		maxTuples    = flag.Int("max-tuples", 0, "per-request key-count cap (0: default 1<<26)")
		spillDir     = flag.String("spill-dir", "", "spill directory for over-budget requests (empty: reject them with 413)")
		maxSpill     = flag.Int64("max-spill-bytes", 0, "disk ledger shared by spilling requests in bytes (0: unlimited)")
		tenantCap    = flag.Int("tenant-cap", 0, "per-tenant admitted-request cap (0: uncapped)")
		batchMax     = flag.Int("batch-max", 4096, "coalesce key-only requests up to this many keys (negative: disable)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful drain budget before force-cancelling running sorts")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "sortd: unexpected arguments:", flag.Args())
		return 2
	}

	// The obs session feeds the Section 3.2 event counters and the
	// per-(algo, phase) latency histograms the metrics endpoint serves.
	partsort.StartObservability(partsort.NewMetricsSink(nil))
	defer func() { _ = partsort.StopObservability() }()
	partsort.EnableProfileLabels(true)

	var metricsSrv *partsort.MetricsServer
	if *metricsAddr != "" {
		var err error
		metricsSrv, err = partsort.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sortd: metrics endpoint:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sortd: serving metrics on %s/metrics\n", metricsSrv.URL())
	}

	srv := server.New(server.Config{
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		SortThreads:    *sortThreads,
		MaxAuxBytes:    *maxAux,
		MaxTuples:      *maxTuples,
		SpillDir:       *spillDir,
		MaxSpillBytes:  *maxSpill,
		MaxPerTenant:   *tenantCap,
		BatchMaxTuples: *batchMax,
	})

	httpLis, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sortd: listen:", err)
		return 1
	}
	httpSrv := srv.HTTPServer()
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(httpLis) }()
	fmt.Fprintf(os.Stderr, "sortd: serving HTTP API on %s\n", httpLis.Addr())

	var tcpLis net.Listener
	tcpErr := make(chan error, 1)
	if *tcpAddr != "" {
		tcpLis, err = net.Listen("tcp", *tcpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sortd: tcp listen:", err)
			return 1
		}
		go func() { tcpErr <- srv.ServeTCP(tcpLis) }()
		fmt.Fprintf(os.Stderr, "sortd: serving TCP API on %s\n", tcpLis.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "sortd: %s: draining (budget %s)\n", got, *drainTimeout)
	case err := <-httpErr:
		fmt.Fprintln(os.Stderr, "sortd: http serve:", err)
		return 1
	case err := <-tcpErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, "sortd: tcp serve:", err)
			return 1
		}
	}

	// Drain order: stop intake (listeners), drain the queue under the
	// budget, then release everything else.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	if tcpLis != nil {
		tcpLis.Close()
	}
	drainErr := srv.Drain(ctx)
	srv.CloseTCPConns()
	if metricsSrv != nil {
		_ = metricsSrv.Shutdown(context.Background())
	}
	switch {
	case drainErr == nil:
		fmt.Fprintf(os.Stderr, "sortd: drained cleanly (ledger %d B, workspace %d B)\n",
			srv.PendingAuxBytes(), srv.AuxBytes())
		return 0
	case errors.Is(drainErr, context.DeadlineExceeded):
		fmt.Fprintln(os.Stderr, "sortd: drain deadline exceeded; running sorts were cancelled")
		return 3
	default:
		fmt.Fprintln(os.Stderr, "sortd: drain:", drainErr)
		return 1
	}
}
