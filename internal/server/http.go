// The HTTP/JSON front end: POST /v1/sort submits one request and blocks
// until its result, GET /healthz reports liveness/drain state, and
// GET /v1/stats returns a JSON operational snapshot. Error mapping:
// malformed requests 400, oversized (too many keys, or a body past the
// cap derived from Config.MaxTuples) and over-budget-can't-spill 413 (the
// latter with a structured reason), tenant cap 429, admission and drain
// rejections 503 (both with Retry-After), contained sort failures 500 —
// the same taxonomy sortcli maps to exit codes (OPERATIONS.md).
//
// POST /v1/sort reads its body once into a pooled buffer and decodes it
// with the schema-specific codec in jsonwire.go; the response is
// appended into the same buffer and written with one Write and an
// explicit Content-Length. Error bodies and /v1/stats use encoding/json.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	partsort "repro"
)

// SortRequestJSON is the POST /v1/sort body. Keys are decoded as
// uint64 and narrowed when width is 32 (out-of-range values are a 400).
type SortRequestJSON struct {
	// Tenant is the submitting tenant id (optional, default "default").
	Tenant string `json:"tenant,omitempty"`
	// Algo is "lsb", "msb", or "cmp".
	Algo string `json:"algo"`
	// Priority is 0 (interactive), 1 (normal, default), or 2 (batch).
	Priority int `json:"priority,omitempty"`
	// Width is the key width in bits: 32 or 64 (default 64).
	Width int `json:"width,omitempty"`
	// Keys is the key column.
	Keys []uint64 `json:"keys"`
	// Vals is the optional payload column (same length as Keys).
	Vals []uint64 `json:"vals,omitempty"`
}

// SortResponseJSON is the POST /v1/sort success body.
type SortResponseJSON struct {
	// Keys is the sorted key column; Vals the reordered payloads when
	// the request carried any.
	Keys []uint64 `json:"keys"`
	Vals []uint64 `json:"vals,omitempty"`
	// QueueNs and SortNs break the latency into queue wait and sort
	// execution; Attempts/Stage/Degraded report the resilient
	// supervisor's outcome; Batched/BatchRequests report coalescing.
	QueueNs       int64 `json:"queue_ns"`
	SortNs        int64 `json:"sort_ns"`
	Attempts      int   `json:"attempts"`
	Stage         int   `json:"stage"`
	Degraded      bool  `json:"degraded,omitempty"`
	Batched       bool  `json:"batched,omitempty"`
	BatchRequests int   `json:"batch_requests,omitempty"`
	// Spilled reports the request exceeded the memory ledger and ran
	// through the external (disk-spilling) sort.
	Spilled bool `json:"spilled,omitempty"`
}

// ErrorJSON is the error body of every non-2xx API response.
type ErrorJSON struct {
	// Error is the human-readable message; Code the stable machine tag
	// ("bad-request", "too-large", "over-budget", "queue-full", "memory",
	// "tenant-limit", "draining", "canceled", "resource", "internal").
	Error string `json:"error"`
	Code  string `json:"code"`
	// Reason refines "over-budget" rejections: "spill-disabled" (the
	// server has no spill directory) or "disk-budget" (the request's
	// disk charge exceeds the disk ledger).
	Reason string `json:"reason,omitempty"`
}

// StatsJSON is the GET /v1/stats body.
type StatsJSON struct {
	// UptimeSeconds is time since the server started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// QueueDepth, InflightJobs, PendingAuxBytes, and WorkspaceAuxBytes
	// mirror the like-named gauges; Draining the admission state.
	QueueDepth        int   `json:"queue_depth"`
	InflightJobs      int64 `json:"inflight_jobs"`
	PendingAuxBytes   int64 `json:"pending_aux_bytes"`
	WorkspaceAuxBytes int64 `json:"workspace_aux_bytes"`
	// PendingSpillBytes is the disk ledger's charge for admitted
	// external (over-budget) jobs.
	PendingSpillBytes int64 `json:"pending_spill_bytes"`
	Draining          bool  `json:"draining"`
}

// Handler returns the server's HTTP API as a mountable http.Handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sort", s.handleSort)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/v1/stats", s.handleStats)
	return mux
}

// HTTPServer returns an http.Server for the API (Handler) that bounds how
// long a request may take to arrive: its headers and the whole request,
// from its first byte to its body's last, each by obs.ReadHeaderTimeout,
// so a client that trickles its body cannot hold a connection and its
// read buffer indefinitely. net/http also closes a keep-alive connection
// left idle that long (it applies ReadTimeout when IdleTimeout is unset).
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{Handler: s.Handler(), ReadHeaderTimeout: s.readTimeout, ReadTimeout: s.readTimeout}
}

// handleSort decodes, submits, and encodes one sort request.
func (s *Server) handleSort(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "bad-request", "POST required")
		return
	}
	limit := s.cfg.bodyLimit()
	if r.ContentLength > limit {
		writeBodyTooLarge(w, limit)
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	var err error
	*buf, err = readFrame(http.MaxBytesReader(w, r.Body, limit), *buf, int(r.ContentLength))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeBodyTooLarge(w, limit)
		} else {
			writeError(w, http.StatusBadRequest, "bad-request", "reading body: "+err.Error())
		}
		return
	}

	start := time.Now()
	req, err := decodeRequest(*buf, s.cfg.MaxTuples)
	s.met.httpDecode.ObserveDuration(time.Since(start), 0)
	if err != nil {
		var tooLarge *TooLargeError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "too-large", err.Error())
		} else {
			writeError(w, http.StatusBadRequest, "bad-request", err.Error())
		}
		return
	}
	res, err := s.Submit(r.Context(), req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}

	// The body is fully decoded (strings copied, columns fresh), so its
	// buffer now carries the response.
	start = time.Now()
	*buf = appendSortResponse((*buf)[:0], req, res)
	s.met.httpEncode.ObserveDuration(time.Since(start), 0)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	_, _ = w.Write(*buf)
}

// writeBodyTooLarge answers a body past the size cap.
func writeBodyTooLarge(w http.ResponseWriter, limit int64) {
	writeError(w, http.StatusRequestEntityTooLarge, "too-large",
		fmt.Sprintf("request body exceeds the %d-byte limit", limit))
}

// decodeRequest decodes a /v1/sort body into a server Request. A column
// longer than maxTuples fails with *TooLargeError.
func decodeRequest(data []byte, maxTuples int) (*Request, error) {
	var body SortRequestJSON
	if err := decodeSortRequest(data, &body, maxTuples); err != nil {
		return nil, err
	}
	return body.toRequest()
}

// toRequest converts the wire body into a server Request.
func (b *SortRequestJSON) toRequest() (*Request, error) {
	req := &Request{Tenant: b.Tenant, Priority: b.Priority}
	switch b.Algo {
	case "lsb":
		req.Algo = partsort.LSB
	case "msb":
		req.Algo = partsort.MSB
	case "cmp":
		req.Algo = partsort.CMP
	default:
		return nil, fmt.Errorf("unknown algo %q (want lsb, msb, or cmp)", b.Algo)
	}
	switch b.Width {
	case 0, 64:
		req.Keys64 = b.Keys
		if req.Keys64 == nil {
			req.Keys64 = []uint64{}
		}
		req.Vals64 = b.Vals
	case 32:
		var err error
		if req.Keys32, err = narrow(b.Keys, "keys"); err != nil {
			return nil, err
		}
		if b.Vals != nil {
			if req.Vals32, err = narrow(b.Vals, "vals"); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("width %d; must be 32 or 64", b.Width)
	}
	return req, nil
}

// narrow converts a decoded uint64 column to uint32, rejecting overflow.
func narrow(xs []uint64, field string) ([]uint32, error) {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		if x > 1<<32-1 {
			return nil, fmt.Errorf("%s[%d] = %d does not fit width 32", field, i, x)
		}
		out[i] = uint32(x)
	}
	return out, nil
}

// writeSubmitError maps a Submit error onto the HTTP status taxonomy.
func writeSubmitError(w http.ResponseWriter, err error) {
	var adm *AdmissionError
	var tooLarge *TooLargeError
	var overBudget *OverBudgetError
	var argErr *partsort.ArgError
	var resErr *partsort.ResourceError
	switch {
	case errors.As(err, &overBudget):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		_ = json.NewEncoder(w).Encode(ErrorJSON{
			Error: err.Error(), Code: "over-budget", Reason: overBudget.Reason,
		})
	case errors.As(err, &adm):
		secs := int(adm.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		status := http.StatusServiceUnavailable
		if adm.Reason == "tenant-limit" {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, adm.Reason, err.Error())
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "too-large", err.Error())
	case errors.As(err, &argErr):
		writeError(w, http.StatusBadRequest, "bad-request", err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "canceled", err.Error())
	case errors.As(err, &resErr):
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusServiceUnavailable, "resource", err.Error())
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// writeError writes one JSON error body.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorJSON{Error: msg, Code: code})
}

// handleHealth reports liveness: 200 "ok" while admitting, 503
// "draining" once Drain started.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleStats serves the operational snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(StatsJSON{
		UptimeSeconds:     time.Since(s.started).Seconds(),
		QueueDepth:        s.QueueDepth(),
		InflightJobs:      s.inflight.Load(),
		PendingAuxBytes:   s.PendingAuxBytes(),
		WorkspaceAuxBytes: s.AuxBytes(),
		PendingSpillBytes: s.PendingSpillBytes(),
		Draining:          s.Draining(),
	})
}
