// Front-end tests: the HTTP/JSON error-mapping table (every malformed
// request gets its 4xx with a stable machine code), the success path,
// stats/health endpoints, and the raw-TCP framing round trip.

package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHTTPSortRoundTrip(t *testing.T) {
	s := New(testConfig())
	defer drainOK(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"algo":"lsb","keys":[5,3,9,1,3],"vals":[50,30,90,10,31]}`
	resp, err := http.Post(ts.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, msg)
	}
	var sr SortResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	wantKeys := []uint64{1, 3, 3, 5, 9}
	wantVals := []uint64{10, 30, 31, 50, 90}
	for i := range wantKeys {
		if sr.Keys[i] != wantKeys[i] || sr.Vals[i] != wantVals[i] {
			t.Fatalf("row %d: got (%d,%d), want (%d,%d)", i, sr.Keys[i], sr.Vals[i], wantKeys[i], wantVals[i])
		}
	}

	// 32-bit width narrows and widens transparently on the wire.
	resp2, err := http.Post(ts.URL+"/v1/sort", "application/json",
		strings.NewReader(`{"algo":"msb","width":32,"keys":[7,2,5]}`))
	if err != nil {
		t.Fatalf("POST width=32: %v", err)
	}
	defer resp2.Body.Close()
	var sr2 SortResponseJSON
	if err := json.NewDecoder(resp2.Body).Decode(&sr2); err != nil {
		t.Fatalf("decode width=32: %v", err)
	}
	if len(sr2.Keys) != 3 || sr2.Keys[0] != 2 || sr2.Keys[2] != 7 {
		t.Fatalf("width=32 keys: %v", sr2.Keys)
	}
}

// malformedRequests is the HTTP error-mapping table, served by a server
// with MaxTuples = 4 (a body cap of 65792 bytes). Its bodies also seed
// FuzzDecodeSortRequest.
var malformedRequests = []struct {
	name   string
	method string
	body   string
	status int
	code   string
}{
	{"invalid json", "POST", `{"algo":`, http.StatusBadRequest, "bad-request"},
	{"unknown field", "POST", `{"algo":"lsb","keys":[1],"bogus":true}`, http.StatusBadRequest, "bad-request"},
	{"unknown algo", "POST", `{"algo":"quick","keys":[1]}`, http.StatusBadRequest, "bad-request"},
	{"bad width", "POST", `{"algo":"lsb","width":16,"keys":[1]}`, http.StatusBadRequest, "bad-request"},
	{"narrow overflow", "POST", `{"algo":"lsb","width":32,"keys":[4294967296]}`, http.StatusBadRequest, "bad-request"},
	{"bad priority", "POST", `{"algo":"lsb","priority":7,"keys":[1]}`, http.StatusBadRequest, "bad-request"},
	{"vals length mismatch", "POST", `{"algo":"lsb","keys":[1,2],"vals":[1]}`, http.StatusBadRequest, "bad-request"},
	{"too large", "POST", `{"algo":"lsb","keys":[1,2,3,4,5]}`, http.StatusRequestEntityTooLarge, "too-large"},
	{"wrong method", "GET", ``, http.StatusMethodNotAllowed, "bad-request"},
	{"fractional key", "POST", `{"algo":"lsb","keys":[1.5]}`, http.StatusBadRequest, "bad-request"},
	{"exponent key", "POST", `{"algo":"lsb","keys":[1e3]}`, http.StatusBadRequest, "bad-request"},
	{"negative key", "POST", `{"algo":"lsb","keys":[-1]}`, http.StatusBadRequest, "bad-request"},
	{"leading zero", "POST", `{"algo":"lsb","keys":[01]}`, http.StatusBadRequest, "bad-request"},
	{"uint64 overflow", "POST", `{"algo":"lsb","keys":[18446744073709551616]}`, http.StatusBadRequest, "bad-request"},
	{"unterminated array", "POST", `{"algo":"lsb","keys":[1,2`, http.StatusBadRequest, "bad-request"},
	{"control character in tenant", "POST", "{\"tenant\":\"a\x01b\",\"algo\":\"lsb\",\"keys\":[1]}", http.StatusBadRequest, "bad-request"},
	// The two documented rejections encoding/json would have accepted.
	{"case-variant field name", "POST", `{"algo":"lsb","Keys":[1]}`, http.StatusBadRequest, "bad-request"},
	{"trailing garbage", "POST", `{"algo":"lsb","keys":[1]} x`, http.StatusBadRequest, "bad-request"},
	// A column past the cap in a malformed body is a 400, not a 413.
	{"stray commas past the cap", "POST", `{"algo":"lsb","keys":[1,,,,,]}`, http.StatusBadRequest, "bad-request"},
	{"string element past the cap", "POST", `{"algo":"lsb","keys":[1,"a,b,c,d"]}`, http.StatusBadRequest, "bad-request"},
	{"unknown field after a column past the cap", "POST", `{"keys":[1,2,3,4,5],"bogus":1}`, http.StatusBadRequest, "bad-request"},
	// A ~1 MB body of four keys: past the cap, refused before it is read.
	{"body over cap", "POST", `{"algo":"lsb","keys":[1]` + strings.Repeat(" ", 1<<20) + `}`,
		http.StatusRequestEntityTooLarge, "too-large"},
}

func TestHTTPMalformedRequestTable(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTuples = 4
	s := New(cfg)
	defer drainOK(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range malformedRequests {
		req, err := http.NewRequest(tc.method, ts.URL+"/v1/sort", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var ej ErrorJSON
		decErr := json.NewDecoder(resp.Body).Decode(&ej)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.status)
			continue
		}
		if decErr != nil {
			t.Errorf("%s: error body not JSON: %v", tc.name, decErr)
			continue
		}
		if ej.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, ej.Code, tc.code)
		}
	}
}

func TestHTTPAdmissionRejectionCarriesRetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAuxBytes = 1 // every request over-budget: deterministic 503
	// With spilling enabled the over-budget request degrades to an
	// external job, whose planned resident footprint still cannot fit the
	// 1-byte memory ledger — the classic retryable "memory" rejection.
	cfg.SpillDir = t.TempDir()
	s := New(cfg)
	defer drainOK(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/sort", "application/json",
		strings.NewReader(`{"algo":"lsb","keys":[3,1,2]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var ej ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&ej); err != nil || ej.Code != "memory" {
		t.Fatalf("error body: %+v (%v), want code memory", ej, err)
	}
}

// TestHTTPOverBudget413 is the structured-reason table: a request whose
// aux charge exceeds the memory ledger and cannot spill answers 413
// with code "over-budget", the reason that closed the door, and no
// Retry-After: waiting cannot admit it.
func TestHTTPOverBudget413(t *testing.T) {
	cases := []struct {
		name   string
		shape  func(*Config, *testing.T)
		reason string
	}{
		{"spill disabled", func(cfg *Config, t *testing.T) {
			cfg.MaxAuxBytes = 1 // any request overflows; no SpillDir
		}, "spill-disabled"},
		{"disk budget", func(cfg *Config, t *testing.T) {
			cfg.MaxAuxBytes = 256 << 10
			cfg.SpillDir = t.TempDir()
			cfg.MaxSpillBytes = 1 // the spill estimate can never fit
		}, "disk-budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.shape(&cfg, t)
			s := New(cfg)
			defer drainOK(t, s)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			// 16384 keys are charged 327,680 B (one-thread MSB's tail
			// pair), which overflows both ledgers above.
			keys := make([]string, 16384)
			for i := range keys {
				keys[i] = strconv.Itoa(len(keys) - i)
			}
			body := `{"algo":"lsb","keys":[` + strings.Join(keys, ",") + `]}`
			resp, err := http.Post(ts.URL+"/v1/sort", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				msg, _ := io.ReadAll(resp.Body)
				t.Fatalf("HTTP %d, want 413: %s", resp.StatusCode, msg)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				t.Fatalf("terminal 413 carries Retry-After %q", ra)
			}
			var ej ErrorJSON
			if err := json.NewDecoder(resp.Body).Decode(&ej); err != nil {
				t.Fatalf("error body: %v", err)
			}
			if ej.Code != "over-budget" || ej.Reason != tc.reason {
				t.Fatalf("code/reason = %q/%q, want over-budget/%s", ej.Code, ej.Reason, tc.reason)
			}
		})
	}
}

// TestHTTPSpillDegradation submits a request past the memory ledger with
// spilling enabled and expects a sorted 200 flagged spilled=true.
func TestHTTPSpillDegradation(t *testing.T) {
	cfg := testConfig()
	cfg.MaxAuxBytes = 256 << 10
	cfg.SpillDir = t.TempDir()
	cfg.SpillSegmentTuples = 1 << 10 // buckets of ~1024 tuples: some overflow and are sorted in place
	s := New(cfg)
	defer drainOK(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16384 // charged 327,680 B, past the 256 KiB ledger
	keys := make([]string, n)
	for i := range keys {
		keys[i] = strconv.Itoa((i*2654435761 + 7) % 1000003)
	}
	body := `{"algo":"lsb","keys":[` + strings.Join(keys, ",") + `]}`
	resp, err := http.Post(ts.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("HTTP %d: %s", resp.StatusCode, msg)
	}
	var sr SortResponseJSON
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !sr.Spilled {
		t.Fatal("response not flagged spilled")
	}
	if len(sr.Keys) != n {
		t.Fatalf("got %d keys, want %d", len(sr.Keys), n)
	}
	for i := 1; i < n; i++ {
		if sr.Keys[i-1] > sr.Keys[i] {
			t.Fatalf("keys[%d]=%d > keys[%d]=%d", i-1, sr.Keys[i-1], i, sr.Keys[i])
		}
	}
	if got := s.PendingSpillBytes(); got != 0 {
		t.Fatalf("disk ledger holds %d bytes after completion", got)
	}
}

func TestHTTPHealthAndStats(t *testing.T) {
	s := New(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz HTTP %d before drain", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET /v1/stats: %v", err)
	}
	var st StatsJSON
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	if st.Draining || st.QueueDepth != 0 {
		t.Fatalf("idle stats: %+v", st)
	}

	drainOK(t, s)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after drain: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz HTTP %d after drain, want 503", resp.StatusCode)
	}
}

// buildTCPFrame encodes one request frame.
func buildTCPFrame(algo, width, prio byte, tenant string, keys []uint64, vals []uint64) []byte {
	var flags byte
	cols := 1
	if vals != nil {
		flags = tcpFlagHasVals
		cols = 2
	}
	payload := make([]byte, 0, 10+len(tenant)+len(keys)*int(width)/8*cols)
	payload = append(payload, tcpVersion, algo, width, prio, flags, byte(len(tenant)))
	payload = append(payload, tenant...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(keys)))
	appendCol := func(xs []uint64) {
		for _, x := range xs {
			if width == 64 {
				payload = binary.LittleEndian.AppendUint64(payload, x)
			} else {
				payload = binary.LittleEndian.AppendUint32(payload, uint32(x))
			}
		}
	}
	appendCol(keys)
	if vals != nil {
		appendCol(vals)
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	return append(frame, payload...)
}

// readTCPResponse reads one response frame.
func readTCPResponse(t *testing.T, r io.Reader) (status byte, body []byte) {
	t.Helper()
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		t.Fatalf("response length: %v", err)
	}
	body = make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("response payload: %v", err)
	}
	return body[0], body[1:]
}

func TestTCPRoundTrip(t *testing.T) {
	s := New(testConfig())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.ServeTCP(lis) }()

	conn, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	// Sorted round trip with payloads over one connection, twice (the
	// frame loop serves multiple requests per connection).
	for round := 0; round < 2; round++ {
		keys := []uint64{9, 1, 5, 3}
		vals := []uint64{90, 10, 50, 30}
		if _, err := conn.Write(buildTCPFrame(0, 64, 1, "tcp-tenant", keys, vals)); err != nil {
			t.Fatalf("write: %v", err)
		}
		status, body := readTCPResponse(t, conn)
		if status != TCPStatusOK {
			t.Fatalf("round %d: status %d: %s", round, status, body)
		}
		n := int(binary.LittleEndian.Uint32(body))
		if n != 4 {
			t.Fatalf("round %d: n=%d", round, n)
		}
		got := decodeU64s(body[4:], n)
		gotVals := decodeU64s(body[4+8*n:], n)
		want := []uint64{1, 3, 5, 9}
		for i := range want {
			if got[i] != want[i] || gotVals[i] != want[i]*10 {
				t.Fatalf("round %d row %d: (%d,%d)", round, i, got[i], gotVals[i])
			}
		}
	}

	// A malformed frame (bad algo byte) answers status 2 and closes.
	if _, err := conn.Write(buildTCPFrame(7, 64, 0, "", []uint64{1}, nil)); err != nil {
		t.Fatalf("write bad frame: %v", err)
	}
	status, body := readTCPResponse(t, conn)
	if status != TCPStatusBadReq {
		t.Fatalf("bad frame: status %d: %s", status, body)
	}
	conn.Close()

	// 32-bit frames and the admission status on a fresh connection.
	conn2, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	if _, err := conn2.Write(buildTCPFrame(1, 32, 0, "", []uint64{300, 100, 200}, nil)); err != nil {
		t.Fatalf("write 32: %v", err)
	}
	status, body = readTCPResponse(t, conn2)
	if status != TCPStatusOK {
		t.Fatalf("32-bit frame: status %d: %s", status, body)
	}
	got32 := decodeU32s(body[4:], 3)
	if got32[0] != 100 || got32[2] != 300 {
		t.Fatalf("32-bit keys: %v", got32)
	}
	conn2.Close()

	lis.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	drainOK(t, s)
	s.CloseTCPConns()
}

func TestTCPRejectsGarbageFrames(t *testing.T) {
	s := New(testConfig())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = s.ServeTCP(lis) }()
	defer func() { lis.Close(); drainOK(t, s); s.CloseTCPConns() }()

	conn, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	// Oversized declared length is refused before any allocation.
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], 1<<31)
	if _, err := conn.Write(lenBuf[:]); err != nil {
		t.Fatalf("write: %v", err)
	}
	status, body := readTCPResponse(t, conn)
	if status != TCPStatusBadReq {
		t.Fatalf("garbage length: status %d: %s", status, body)
	}
	if !bytes.Contains(body[2:], []byte("out of range")) {
		t.Fatalf("garbage length message: %s", body[2:])
	}
}
