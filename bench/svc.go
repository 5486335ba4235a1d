package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The service request mix: 64 distinct 4096-key, 64-bit, key-only LSB
// requests over 4 tenants. Requests this small are coalesced by sortd and
// sort in well under a millisecond, so wire codec, admission and the
// coalescing window dominate their latency.
const (
	reqKeys    = 4096
	reqCount   = 64
	reqTenants = 4
	// reqTimeout bounds one request; a request that exceeds it failed.
	reqTimeout = 10 * time.Second
	// lateGrace is how long after a phase's end a request may still be
	// sent; one still queued behind a stalled connection then fails.
	lateGrace = 2 * time.Second
)

// Open-loop reference rates, well below each protocol's saturation on a
// 2-vCPU host (about 290 req/s over HTTP and 550 over TCP), so latency
// is service time rather than queueing.
var refRate = map[string]float64{"http": 100, "tcp": 200}

// batchWindowMs is sortd's default coalescing window (-batch-window). At
// the reference rates requests arrive more than a window apart, so nearly
// every request waits out this timer; host speed does not change it, so
// the host-speed scaling of p50_ms leaves it out.
const batchWindowMs = 2

// The max-rate rule: the highest probed rate whose p90 stays within
// maxRateP90ms with no failures and at least minAchieved of the offered
// rate completed.
const (
	maxRateP90ms = 20
	minAchieved  = 0.97
)

// requestSet is one run's request mix, encoded for both protocols before
// any timing starts.
type requestSet struct {
	width   int
	keys    [][]uint64 // request key columns, unsorted
	exp     [][]uint64 // their expected sorted columns
	body    [][]byte   // HTTP/JSON request bodies
	frame   [][]byte   // TCP request frames, length prefix included
	expWire [][]byte   // expected sorted keys as the TCP response carries them
}

// httpSortRequest is the POST /v1/sort body.
type httpSortRequest struct {
	Tenant string   `json:"tenant"`
	Algo   string   `json:"algo"`
	Width  int      `json:"width"`
	Keys   []uint64 `json:"keys"`
}

// buildRequests cuts up to reqCount requests of reqKeys keys (fewer when
// the input is small) from keys, whose values fit width bits.
func buildRequests(keys []uint64, width int) (*requestSet, error) {
	per := min(reqKeys, len(keys))
	count := min(reqCount, len(keys)/max(per, 1))
	if count == 0 {
		return nil, errors.New("no keys to build requests from")
	}
	rs := &requestSet{width: width}
	for i := 0; i < count; i++ {
		col := keys[i*per : (i+1)*per]
		exp := sortedCopy(col)
		tenant := "t" + strconv.Itoa(i%reqTenants)
		body, err := json.Marshal(httpSortRequest{Tenant: tenant, Algo: "lsb", Width: width, Keys: col})
		if err != nil {
			return nil, err
		}
		rs.keys = append(rs.keys, col)
		rs.exp = append(rs.exp, exp)
		rs.body = append(rs.body, body)
		rs.frame = append(rs.frame, encodeFrame(tenant, width, col))
		rs.expWire = append(rs.expWire, encodeKeys(nil, width, exp))
	}
	return rs, nil
}

// encodeKeys appends keys little-endian at width bits.
func encodeKeys(b []byte, width int, keys []uint64) []byte {
	for _, k := range keys {
		if width == 32 {
			b = binary.LittleEndian.AppendUint32(b, uint32(k))
		} else {
			b = binary.LittleEndian.AppendUint64(b, k)
		}
	}
	return b
}

// encodeFrame encodes a key-only LSB request in sortd's TCP framing:
// u32 length, then version 1, algo, width, priority 1, flags 0, the
// tenant, u32 n and the keys.
func encodeFrame(tenant string, width int, keys []uint64) []byte {
	p := []byte{1, 0, byte(width), 1, 0, byte(len(tenant))}
	p = append(p, tenant...)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(keys)))
	p = encodeKeys(p, width, keys)
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(p))), p...)
}

// daemon is a child sortd process serving HTTP, TCP and /metrics on
// loopback ports it picks itself.
type daemon struct {
	cmd     *exec.Cmd
	log     *daemonLog
	exited  chan struct{}
	waitErr error
}

// daemonLog collects sortd's stderr and picks the listen addresses out
// of its start-up lines.
type daemonLog struct {
	mu                 sync.Mutex
	text               strings.Builder
	partial            []byte
	http, tcp, metrics string
	ready              chan struct{}
	readyOnce          sync.Once
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.text.Write(p)
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		if a, ok := strings.CutPrefix(line, "sortd: serving HTTP API on "); ok {
			l.http = a
		} else if a, ok := strings.CutPrefix(line, "sortd: serving TCP API on "); ok {
			l.tcp = a
		} else if a, ok := strings.CutPrefix(line, "sortd: serving metrics on "); ok {
			l.metrics = a
		}
		if l.http != "" && l.tcp != "" && l.metrics != "" {
			l.readyOnce.Do(func() { close(l.ready) })
		}
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.text.String()
}

// startDaemon execs sortd with its default flags plus loopback listeners
// for TCP and telemetry, and returns once /healthz answers 200.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{log: &daemonLog{ready: make(chan struct{})}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-tcp-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0")
	d.cmd.Stderr = d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sortd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	atExit(d.kill)
	deadline := time.After(10 * time.Second)
	select {
	case <-d.log.ready:
	case <-d.exited:
		return nil, fmt.Errorf("sortd exited at start-up: %v\n%s", d.waitErr, d.log)
	case <-deadline:
		d.kill()
		return nil, fmt.Errorf("sortd did not report its listeners:\n%s", d.log)
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get("http://" + d.log.http + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("sortd exited before /healthz answered: %v", d.waitErr)
		case <-deadline:
			d.kill()
			return nil, errors.New("sortd /healthz did not answer 200 within 10s")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill ends the process and waits for it; harmless after it exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop drains the daemon with SIGTERM; it must exit 0 after logging a
// clean drain.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal sortd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("sortd did not exit within 30s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("sortd drain: %v\n%s", d.waitErr, d.log)
	}
	if !strings.Contains(d.log.String(), "drained cleanly") {
		return fmt.Errorf("sortd exited without a clean drain:\n%s", d.log)
	}
	return nil
}

// firstResponses sends request 0 once over each protocol and verifies
// both answers: the end of a cold start.
func (d *daemon) firstResponses(rs *requestSet) error {
	hc := newHTTPClient(d.log.http, 1)
	defer hc.close()
	if err := hc.sort(rs.body[0], rs.exp[0]); err != nil {
		return fmt.Errorf("first HTTP response: %w", err)
	}
	tc := &tcpClient{addr: d.log.tcp}
	defer tc.close()
	if err := tc.sort(rs.frame[0], rs.expWire[0]); err != nil {
		return fmt.Errorf("first TCP response: %w", err)
	}
	return nil
}

// httpClient posts pre-encoded sort requests over at most conns
// keep-alive connections.
type httpClient struct {
	c   *http.Client
	url string
}

func newHTTPClient(addr string, conns int) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &httpClient{c: &http.Client{Transport: tr, Timeout: reqTimeout}, url: "http://" + addr + "/v1/sort"}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// sort sends one request and verifies the sorted keys it returns.
func (h *httpClient) sort(body []byte, exp []uint64) error {
	resp, err := h.c.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var out struct {
		Keys []uint64 `json:"keys"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return checkKeys(out.Keys, exp)
}

// tcpClient is one framed TCP connection, redialled after an error
// leaves the stream mid-frame.
type tcpClient struct {
	addr string
	conn net.Conn
	r    *bufio.Reader
	buf  []byte
}

// sort sends one frame and verifies the response frame.
func (t *tcpClient) sort(frame, exp []byte) error {
	if t.conn == nil {
		c, err := net.DialTimeout("tcp", t.addr, reqTimeout)
		if err != nil {
			return err
		}
		t.conn, t.r = c, bufio.NewReader(c)
	}
	err := t.roundTrip(frame, exp)
	if err != nil {
		t.close()
	}
	return err
}

func (t *tcpClient) roundTrip(frame, exp []byte) error {
	if err := t.conn.SetDeadline(time.Now().Add(reqTimeout)); err != nil {
		return err
	}
	if _, err := t.conn.Write(frame); err != nil {
		return err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(t.r, hdr[:]); err != nil {
		return fmt.Errorf("read response length: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if cap(t.buf) < n {
		t.buf = make([]byte, n)
	}
	if _, err := io.ReadFull(t.r, t.buf[:n]); err != nil {
		return fmt.Errorf("read response: %w", err)
	}
	return checkFrameKeys(t.buf[:n], exp)
}

func (t *tcpClient) close() {
	if t.conn != nil {
		t.conn.Close()
		t.conn, t.r = nil, nil
	}
}

// phase is the outcome of one open-loop load phase.
type phase struct {
	lat      []float64 // per request: ms from its due time to its verified response; +Inf if it failed
	rtt      []float64 // per request: ms from its send to its response (0 if it failed)
	late     []float64 // per request: ms it was sent after its due time
	errs     []error   // per request: nil when it succeeded
	failed   int
	offered  float64 // req/s
	achieved float64 // verified responses per second of phase wall time
	cpu      float64 // harness CPU seconds spent over the phase
}

// openLoop sends requests on a fixed schedule of rate per second for d,
// from `workers` goroutines (one per connection). Request i is due at
// start + i/rate whatever happened to earlier ones, and its latency
// counts from then, so a stall is charged to every request queued behind
// it. A request not sent within lateGrace of the phase's end fails.
func openLoop(rate float64, d time.Duration, workers int, do func(worker, i int) error) phase {
	total := max(1, int(rate*d.Seconds()))
	p := phase{
		lat: make([]float64, total), rtt: make([]float64, total), late: make([]float64, total),
		errs: make([]error, total), offered: rate,
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	cutoff := start.Add(d + lateGrace)
	// Sized to the number of sends, so the dispatcher never blocks and
	// keeps the schedule however far the workers fall behind.
	ch := make(chan int, total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				sent := time.Now()
				p.late[i] = msSince(due(i), sent)
				err := errors.New("not sent within the grace period")
				if sent.Before(cutoff) {
					err = do(w, i)
				}
				if err != nil {
					p.lat[i], p.errs[i] = math.Inf(1), err
					continue
				}
				now := time.Now()
				p.lat[i], p.rtt[i] = msSince(due(i), now), msSince(sent, now)
			}
		}()
	}
	for i := 0; i < total; i++ {
		time.Sleep(time.Until(due(i)))
		ch <- i
	}
	close(ch)
	wg.Wait()
	wall := time.Since(start)
	for _, err := range p.errs {
		if err != nil {
			p.failed++
		}
	}
	p.achieved = float64(total-p.failed) / wall.Seconds()
	p.cpu = cpuSeconds() - cpu0
	return p
}

// msSince returns b-a in milliseconds.
func msSince(a, b time.Time) float64 { return float64(b.Sub(a)) / 1e6 }

// passes applies the max-rate rule to a phase.
func (p phase) passes() bool {
	return p.failed == 0 && percentile(p.lat, 0.9) <= maxRateP90ms && p.achieved >= minAchieved*p.offered
}

// load runs one open-loop phase against the daemon over proto, with
// `conns` connections, tracing each request under parent.
func (d *daemon) load(proto string, rs *requestSet, rate float64, dur time.Duration, conns int, tr *tracer, parent span) phase {
	n := len(rs.keys[0])
	name := proto + ".sort"
	if proto == "http" {
		hc := newHTTPClient(d.log.http, conns)
		defer hc.close()
		return openLoop(rate, dur, conns, func(_, i int) error {
			j := i % len(rs.keys)
			s := tr.begin(parent, "client", name, attrs{n: n})
			defer s.end()
			return hc.sort(rs.body[j], rs.exp[j])
		})
	}
	tcs := make([]*tcpClient, conns)
	for w := range tcs {
		tcs[w] = &tcpClient{addr: d.log.tcp}
		defer tcs[w].close()
	}
	return openLoop(rate, dur, conns, func(w, i int) error {
		j := i % len(rs.keys)
		s := tr.begin(parent, "client", name, attrs{n: n})
		defer s.end()
		return tcs[w].sort(rs.frame[j], rs.expWire[j])
	})
}

// maxRate searches for the highest rate meeting the max-rate rule,
// bracketed by [ref, 4*ref]: ref is the reference phase's rate (and the
// answer is 0 when that phase already broke the rule), then `probes`
// geometric bisection probes narrow the bracket.
func maxRate(ref phase, probes int, probe func(rate float64) phase) float64 {
	if !ref.passes() {
		return 0
	}
	lo, hi := ref.offered, 4*ref.offered
	for i := 0; i < probes; i++ {
		r := math.Sqrt(lo * hi)
		if probe(r).passes() {
			lo = r
		} else {
			hi = r
		}
	}
	return lo
}

// metricSample is one scrape of the daemon's /metrics, keyed by series
// (family name plus rendered labels).
type metricSample map[string]float64

// scrape reads the daemon's Prometheus exposition.
func (d *daemon) scrape() (metricSample, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(d.log.metrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := make(metricSample)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sum adds the series of one family whose labels contain match.
func (m metricSample) sum(family, match string) float64 {
	var s float64
	for k, v := range m {
		name, labels, _ := strings.Cut(k, "{")
		if name == family && strings.Contains(labels, match) {
			s += v
		}
	}
	return s
}

// meanDelta is the mean of a histogram family's observations between two
// scrapes, in the family's recorded unit (0 without observations).
func meanDelta(before, after metricSample, family string) float64 {
	n := after.sum(family+"_count", "") - before.sum(family+"_count", "")
	if n <= 0 {
		return 0
	}
	return (after.sum(family+"_sum", "") - before.sum(family+"_sum", "")) / n
}
