package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"time"
)

// MetricsServer is the embeddable live-telemetry endpoint: one HTTP
// listener publishing the registry in Prometheus text format
// (/metrics), the expvar JSON view (/debug/vars), and the standard
// net/http/pprof profiling handlers (/debug/pprof/...), plus a
// background runtime sampler feeding process gauges. Shutdown is
// graceful and idempotent; the sampler goroutine stops with the server.
type MetricsServer struct {
	reg     *Registry
	srv     *http.Server
	lis     net.Listener
	sampler *runtimeSampler
	done    chan struct{} // closed once Shutdown completes

	mu       sync.Mutex
	shutdown bool
	serveErr chan error
}

// ReadHeaderTimeout bounds how long an HTTP listener of this program (the
// metrics endpoint here, sortd's API port) waits for a client's request
// headers, so a client that opens a connection and never finishes its
// headers cannot hold the connection open indefinitely.
const ReadHeaderTimeout = 10 * time.Second

// expvarPublish guards the process-wide expvar registration (expvar
// panics on duplicate names; servers may start and stop many times).
var expvarPublish sync.Once

// ServeMetrics starts a metrics server on addr (e.g. ":9090" or
// "127.0.0.1:0"; the bound address is available via Addr). reg nil
// selects DefaultRegistry — the registry carrying the §3.2 event
// counters of the current obs session. The first call also publishes
// the registry under the expvar key "partsort".
func ServeMetrics(addr string, reg *Registry) (*MetricsServer, error) {
	if reg == nil {
		reg = DefaultRegistry()
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	expvarPublish.Do(func() {
		expvar.Publish("partsort", expvar.Func(func() any { return DefaultRegistry().Expvar() }))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &MetricsServer{
		reg:      reg,
		srv:      &http.Server{Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout},
		lis:      lis,
		sampler:  startRuntimeSampler(reg, time.Second),
		done:     make(chan struct{}),
		serveErr: make(chan error, 1),
	}
	go func() { s.serveErr <- s.srv.Serve(lis) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.lis.Addr().String() }

// URL returns the server's base URL.
func (s *MetricsServer) URL() string { return "http://" + s.Addr() }

// Registry returns the registry the server exposes.
func (s *MetricsServer) Registry() *Registry { return s.reg }

// Shutdown stops the runtime sampler and gracefully shuts the HTTP
// server down (waiting for in-flight scrapes up to ctx's deadline).
// Idempotent: later calls return nil immediately.
func (s *MetricsServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	s.mu.Unlock()

	s.sampler.stop()
	err := s.srv.Shutdown(ctx)
	<-s.serveErr // Serve has returned (http.ErrServerClosed on the clean path)
	close(s.done)
	return err
}

// Done returns a channel closed once Shutdown has completed.
func (s *MetricsServer) Done() <-chan struct{} { return s.done }

// ShutdownOnSignal installs a handler that gracefully shuts the server
// down (5s drain budget) when one of the signals arrives — the SIGINT
// path of the CLIs. The watcher goroutine exits with the server, so a
// normal Shutdown leaks nothing.
func (s *MetricsServer) ShutdownOnSignal(sig ...os.Signal) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sig...)
	go func() {
		defer signal.Stop(ch)
		select {
		case <-ch:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		case <-s.done:
		}
	}()
}

// runtimeSampler periodically folds runtime.MemStats and scheduler
// stats into plain gauges: heap footprint, GC pause totals, goroutine
// count. Gauges are get-or-create, so a second server over the same
// registry reuses them.
type runtimeSampler struct {
	quit chan struct{}
	done chan struct{}
}

// startRuntimeSampler registers the runtime gauges on r and starts the
// sampling loop at the given interval.
func startRuntimeSampler(r *Registry, every time.Duration) *runtimeSampler {
	goroutines := r.Gauge(metricPrefix+"goroutines", "Live goroutine count (sampled).")
	heapAlloc := r.Gauge(metricPrefix+"heap_alloc_bytes", "Bytes of allocated heap objects (sampled runtime.MemStats).")
	heapSys := r.Gauge(metricPrefix+"heap_sys_bytes", "Bytes of heap obtained from the OS (sampled runtime.MemStats).")
	gcCycles := r.Gauge(metricPrefix+"gc_cycles_total", "Completed GC cycles (sampled; monotonic).")
	gcPause := r.Gauge(metricPrefix+"gc_pause_seconds_total", "Cumulative GC stop-the-world pause time in seconds (sampled; monotonic).")
	lastPause := r.Gauge(metricPrefix+"gc_last_pause_seconds", "Most recent GC stop-the-world pause in seconds (sampled).")

	s := &runtimeSampler{quit: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heapAlloc.Set(float64(m.HeapAlloc))
		heapSys.Set(float64(m.HeapSys))
		gcCycles.Set(float64(m.NumGC))
		gcPause.Set(float64(m.PauseTotalNs) * 1e-9)
		if m.NumGC > 0 {
			lastPause.Set(float64(m.PauseNs[(m.NumGC+255)%256]) * 1e-9)
		}
	}
	sample() // prime the gauges so an immediate scrape sees live values
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-s.quit:
				return
			}
		}
	}()
	return s
}

// stop terminates the sampling loop and waits for it to exit.
func (s *runtimeSampler) stop() {
	close(s.quit)
	<-s.done
}
