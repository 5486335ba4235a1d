package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
)

// newClient returns a client with a transport of its own. A test closes
// its idle keep-alive connections before it shuts the server down: the
// client end closes at once, and Shutdown closes the idle server end, so
// no connection is still winding down when a leak check, or the next
// test's baseline, counts descriptors.
func newClient() *http.Client { return &http.Client{Transport: &http.Transport{}} }

func get(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

func TestServeMetricsEndpoints(t *testing.T) {
	// The phase histograms live in the process-wide registry and outlast
	// the session, so the span count is asserted as a delta: the test
	// passes however often it runs in one process.
	const phaseCount = `partsort_phase_duration_seconds_count{algo="lsb",phase="local"} `
	before := seriesValue(t, DefaultRegistry(), phaseCount)
	Start(NewMetricsSink(nil, nil))
	defer Stop()
	Cur().Counters.TuplesPartitioned.Add(42)
	sp := BeginIn("lsb", "local", "phase", -1)
	time.Sleep(time.Millisecond)
	sp.End()

	srv, err := ServeMetrics("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c := newClient()
	defer c.CloseIdleConnections()

	body := get(t, c, srv.URL()+"/metrics")
	for _, want := range []string{
		`partsort_events_total{event="tuples_partitioned"} 42`,
		"# TYPE partsort_phase_duration_seconds histogram",
		phaseCount + strconv.FormatUint(before+1, 10),
		"# TYPE partsort_goroutines gauge",
		"partsort_heap_alloc_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get(t, c, srv.URL()+"/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["partsort"]; !ok {
		t.Fatal("/debug/vars missing the partsort export")
	}

	if body := get(t, c, srv.URL()+"/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Fatal("/debug/pprof/goroutine not serving")
	}
}

// seriesValue returns the value of the series whose exposition line
// starts with prefix in reg, or 0 when reg has no such series yet.
func seriesValue(t *testing.T, reg *Registry, prefix string) uint64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("series %q: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// TestServeMetricsBoundsHeaderReads checks the metrics server bounds
// header reads like sortd's API port, so a client that never finishes its
// headers cannot hold a connection open indefinitely.
func TestServeMetricsBoundsHeaderReads(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if got := srv.srv.ReadHeaderTimeout; got != ReadHeaderTimeout || got <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", got, ReadHeaderTimeout)
	}
}

// TestShutdownLeaksNoGoroutines checks server plus sampler fully unwind on
// Shutdown: no goroutine or descriptor outlives it.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	base := fault.TakeBaseline()
	for i := 0; i < 3; i++ {
		srv, err := ServeMetrics("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient()
		get(t, c, srv.URL()+"/metrics")
		c.CloseIdleConnections()
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("second Shutdown: %v", err)
		}
		select {
		case <-srv.Done():
		default:
			t.Fatal("Done not closed after Shutdown")
		}
	}
	base.Verify(t, nil, "")
}

func TestShutdownOnSignal(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.ShutdownOnSignal(syscall.SIGUSR1)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on signal")
	}
	if _, err := http.Get(srv.URL() + "/metrics"); err == nil {
		t.Fatal("listener still accepting after signal shutdown")
	}
}
