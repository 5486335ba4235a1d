package partsort

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/obs"
)

// TestTraceReconcilesSpanHist runs LSB under the sink sortcli installs:
// the metrics sink aggregating span histograms, teed into a Chrome trace.
// The trace must be a well-formed JSON array of complete and instant
// events with pass spans and spans from every worker; per span key the
// histogram's sample count must equal the trace's span count and their
// duration sums agree; and the summed pass spans must bracket the
// partition, shuffle and local wall clocks. An empty input still closes
// to a valid trace. (TestLSBCounterReconciliation pins the counter side:
// tuples_partitioned == passes × n.)
func TestTraceReconcilesSpanHist(t *testing.T) {
	for _, n := range []int{200_000, 0} {
		var buf bytes.Buffer
		sink := obs.NewMetricsSink(obs.NewRegistry(), NewChromeTraceSink(&buf))
		StartObservability(sink)
		keys := gen.Uniform[uint32](n, 0, 5)
		var st SortStats
		SortLSB(keys, RIDs[uint32](n), &SortOptions{Threads: 4, Stats: &st})
		if err := StopObservability(); err != nil {
			t.Fatal(err)
		}

		var events []struct {
			Name, Cat, Ph     string
			Ts, Dur, Pid, Tid *float64
		}
		if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
			t.Fatalf("n=%d: trace is not a JSON array of events: %v", n, err)
		}
		type agg struct {
			count uint64
			sumUs float64
		}
		spans := map[string]agg{}
		workers := map[float64]bool{}
		passSpans := 0
		for i, e := range events {
			switch {
			case e.Ph == "X" && e.Name != "" && e.Ts != nil && e.Dur != nil && e.Pid != nil && e.Tid != nil &&
				*e.Ts >= 0 && *e.Dur >= 0:
				a := spans[e.Cat+"/"+e.Name]
				spans[e.Cat+"/"+e.Name] = agg{a.count + 1, a.sumUs + *e.Dur}
				switch e.Cat {
				case "pass":
					passSpans++
				case "worker":
					workers[*e.Tid] = true
				}
			case e.Ph == "i" && e.Name != "" && e.Ts != nil:
			default:
				t.Fatalf("n=%d: malformed trace event %d: %+v", n, i, e)
			}
		}
		if n == 0 {
			continue
		}
		if passSpans == 0 || len(workers) < 4 {
			t.Fatalf("%d pass spans, spans from %d workers; want pass spans and 4 workers", passSpans, len(workers))
		}

		hist := sink.Summary()
		var passNs float64
		for k, a := range spans {
			h := hist[k]
			if h.Count != a.count {
				t.Fatalf("span %q: histogram count %d, trace count %d", k, h.Count, a.count)
			}
			// The trace serializes microseconds; allow that rounding.
			if diff, tol := math.Abs(float64(h.SumNs)-a.sumUs*1e3), 1e-3*a.sumUs*1e3+1e3*float64(a.count); diff > tol {
				t.Fatalf("span %q: histogram sum %d ns, trace sum %.0f ns", k, h.SumNs, a.sumUs*1e3)
			}
			if strings.HasPrefix(k, "pass/") {
				passNs += a.sumUs * 1e3
			}
		}
		for k, h := range hist {
			if _, ok := spans[k]; !ok && h.Count > 0 {
				t.Fatalf("span %q has %d histogram samples and no trace spans", k, h.Count)
			}
		}
		// One goroutine runs each pass inside one phase timer, so the pass
		// spans must bracket the phase wall clocks (2 ms slack for skew).
		move := float64(st.Partition + st.Shuffle + st.LocalRadix)
		if lower := float64(st.Partition + st.LocalRadix); passNs > 1.25*move+2e6 || passNs < 0.5*lower-2e6 {
			t.Fatalf("pass spans sum to %.0f ns against %.0f ns of partition+shuffle+local", passNs, move)
		}
	}
}

// TestMetricsEndpointMidSort scrapes ServeMetrics while LSB, MSB and CMP
// sort in the background under the metrics sink with profile labels on.
// The exposition must parse (promFamilies) and carry every expected
// family and series, /debug/vars must be JSON with the partsort export,
// the goroutine profile must show algo labels, and shutting the endpoint
// down must leave no goroutine or descriptor behind.
func TestMetricsEndpointMidSort(t *testing.T) {
	StartObservability(NewMetricsSink(nil))
	EnableProfileLabels(true)
	defer func() {
		EnableProfileLabels(false)
		_ = StopObservability()
	}()
	base := fault.TakeBaseline()
	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	var sorts atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		n := 1 << 18
		keys := gen.Uniform[uint32](n, 0, 42)
		work := make([]uint32, n)
		vals := make([]uint32, n)
		algos := []func([]uint32, []uint32, *SortOptions){SortLSB[uint32], SortMSB[uint32], SortCMP[uint32]}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			copy(work, keys)
			algos[i%3](work, vals, &SortOptions{Threads: 4})
			sorts.Add(1)
		}
	}()
	stopSorts := sync.OnceFunc(func() { close(stop); <-done })
	defer stopSorts()
	// A client of its own, whose idle connection is closed before
	// Shutdown, so none is still closing when the leak check counts fds.
	client := &http.Client{Transport: &http.Transport{}}
	get := func(path string) string {
		resp, err := client.Get(srv.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	for sorts.Load() < 3 { // one sort of each algorithm in the registry
		time.Sleep(time.Millisecond)
	}

	body := get("/metrics")
	fams := promFamilies(t, body)
	for _, want := range []string{
		"partsort_events_total", "partsort_workspace_hit_ratio", "partsort_aux_bytes",
		"partsort_phase_duration_seconds", "partsort_pass_duration_seconds", "partsort_sort_duration_seconds",
		"partsort_goroutines", "partsort_heap_alloc_bytes", "partsort_gc_cycles_total", "partsort_retry_attempts_total",
	} {
		if _, ok := fams[want]; !ok {
			t.Fatalf("scrape lacks family %s", want)
		}
	}
	for _, want := range []string{
		`partsort_events_total{event="tuples_partitioned"}`,
		`partsort_retry_attempts_total{outcome="retry"}`,
		`partsort_retry_attempts_total{outcome="fallback"}`,
		`partsort_retry_attempts_total{outcome="degrade"}`,
		`partsort_phase_duration_seconds_count{algo="lsb"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("scrape lacks series %s", want)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil || vars["partsort"] == nil {
		t.Fatalf("/debug/vars: %v, partsort export present: %v", err, vars["partsort"] != nil)
	}
	// Labels show only while a labelled scope is live, so poll.
	for try := 0; !strings.Contains(get("/debug/pprof/goroutine?debug=1"), `"algo":`); try++ {
		if try == 40 {
			t.Fatal("goroutine profile never showed algo labels while sorting")
		}
		time.Sleep(50 * time.Millisecond)
	}

	stopSorts()
	client.CloseIdleConnections()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	base.Verify(t, nil, "")
}

// leLabel matches the le label of a histogram bucket sample.
var leLabel = regexp.MustCompile(`,?le="([^"]*)"`)

// promFamilies checks a Prometheus text exposition and returns its
// family → type map. Every TYPE comment must be well formed and unique,
// every sample numeric and after its family's TYPE, and every histogram
// series must have increasing le bounds, cumulative counts that never
// decrease, and a +Inf bucket equal to its _count.
func promFamilies(t *testing.T, body string) map[string]string {
	t.Helper()
	fams := map[string]string{}
	type series struct {
		le              float64
		cum, inf, count uint64
		hasInf, hasCnt  bool
	}
	hists := map[string]*series{}
	for ln, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "# TYPE ") {
			if len(f) != 4 || !slices.Contains([]string{"counter", "gauge", "histogram", "summary", "untyped"}, f[3]) {
				t.Fatalf("line %d: malformed TYPE comment %q", ln+1, line)
			}
			if _, dup := fams[f[2]]; dup {
				t.Fatalf("line %d: second TYPE for %s", ln+1, f[2])
			}
			fams[f[2]] = f[3]
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp <= 0 || err != nil {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		name, labels, _ := strings.Cut(line[:sp], "{")
		if labels != "" && !strings.HasSuffix(labels, "}") {
			t.Fatalf("line %d: unterminated label set in %q", ln+1, line)
		}
		fam, suffix := name, ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, s); ok && fams[f] == "histogram" {
				fam, suffix = f, s
			}
		}
		if fams[fam] == "" {
			t.Fatalf("line %d: sample %q precedes its TYPE comment", ln+1, line)
		}
		if suffix == "" || suffix == "_sum" {
			continue
		}
		m := leLabel.FindStringSubmatch(labels)
		if m != nil {
			labels = strings.Replace(labels, m[0], "", 1)
		}
		key := fam + "{" + strings.Trim(labels, ",}")
		s := hists[key]
		if s == nil {
			s = &series{le: math.Inf(-1)}
			hists[key] = s
		}
		switch {
		case suffix == "_count":
			s.count, s.hasCnt = uint64(v), true
		case m == nil:
			t.Fatalf("line %d: bucket without le in %q", ln+1, line)
		case uint64(v) < s.cum:
			t.Fatalf("line %d: cumulative bucket decreased in %q", ln+1, line)
		case m[1] == "+Inf":
			s.cum, s.inf, s.hasInf = uint64(v), uint64(v), true
		default:
			le, err := strconv.ParseFloat(m[1], 64)
			if err != nil || le <= s.le {
				t.Fatalf("line %d: le bounds not increasing in %q", ln+1, line)
			}
			s.le, s.cum = le, uint64(v)
		}
	}
	if len(hists) == 0 {
		t.Fatal("exposition holds no histogram")
	}
	for key, s := range hists {
		if !s.hasInf || !s.hasCnt || s.inf != s.count {
			t.Fatalf("histogram %s: +Inf bucket %d (present %v), _count %d (present %v)", key, s.inf, s.hasInf, s.count, s.hasCnt)
		}
	}
	return fams
}
