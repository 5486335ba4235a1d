// Tests for the POST /v1/sort wire codec against encoding/json, its
// oracle: a differential fuzz target for the decoder, a byte-identical
// response table for the encoder, allocation guards for both and for
// the codec stage timers, and the body-size cap on declared- and
// undeclared-length bodies.

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// oracleDecode decodes a body the way handleSort did before the codec,
// returning how many bytes the decoder consumed.
func oracleDecode(data []byte) (SortRequestJSON, int64, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b SortRequestJSON
	err := dec.Decode(&b)
	return b, dec.InputOffset(), err
}

// FuzzDecodeSortRequest checks the codec against encoding/json: it never
// panics; what it accepts, the oracle accepts into a DeepEqual struct;
// what the oracle rejects, it rejects. It may reject an accepted body
// only for the two documented reasons (OPERATIONS.md): a field name that
// matches only case-insensitively, or data after the object — and then
// the object the oracle consumed must decode identically. toRequest on
// an accepted body returns a request or an error, never a panic. Under a
// small tuple cap it answers as without one, except that a body it
// accepts with a column past the cap fails with *TooLargeError: a 413
// never pre-empts a 400.
func FuzzDecodeSortRequest(f *testing.F) {
	const maxTuples = 2
	for _, tc := range malformedRequests {
		if len(tc.body) <= 64<<10 {
			f.Add([]byte(tc.body))
		}
	}
	f.Add([]byte(`{"tenant":"acme","algo":"msb","priority":0,"width":32,"keys":[4294967295,0,7],"vals":[1,2,3]}`))
	f.Add([]byte(` {"algo":"lsb","width":64,"keys":[18446744073709551615, 0 ,42],"vals":null} `))
	f.Add([]byte(`{"tenant":"\u00e9\ud83d\ude00\ud800\"\\\/","keys":[1,2,3],"keys":[null,9]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var got SortRequestJSON
		err := decodeSortRequest(data, &got, math.MaxInt)
		want, consumed, oerr := oracleDecode(data)
		switch {
		case err == nil && oerr != nil:
			t.Fatalf("codec accepted a body encoding/json rejects (%v)", oerr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("codec decoded %#v, encoding/json %#v", got, want)
		case err != nil && oerr == nil:
			switch {
			case errors.Is(err, errFoldedField):
			case errors.Is(err, errTrailingData):
				var prefix SortRequestJSON
				if perr := decodeSortRequest(data[:consumed], &prefix, math.MaxInt); perr != nil {
					t.Fatalf("trailing data rejected, but the object alone fails too: %v", perr)
				} else if !reflect.DeepEqual(prefix, want) {
					t.Fatalf("object before the trailing data decoded %#v, encoding/json %#v", prefix, want)
				}
			default:
				t.Fatalf("codec rejected a body encoding/json accepts: %v", err)
			}
		}
		if err == nil {
			if req, rerr := got.toRequest(); (req == nil) == (rerr == nil) {
				t.Fatalf("toRequest returned %v and %v", req, rerr)
			}
		}

		var capped SortRequestJSON
		cerr := decodeSortRequest(data, &capped, maxTuples)
		var tooLarge *TooLargeError
		switch {
		case errors.As(cerr, &tooLarge):
			if err != nil {
				t.Fatalf("too-large under the cap, but the body is malformed: %v", err)
			}
		case (cerr == nil) != (err == nil):
			t.Fatalf("under the cap the codec answered %v, without it %v", cerr, err)
		case cerr == nil && !reflect.DeepEqual(capped, got):
			t.Fatalf("under the cap the codec decoded %#v, without it %#v", capped, got)
		case cerr == nil && max(len(capped.Keys), len(capped.Vals)) > maxTuples:
			t.Fatalf("accepted a column of %d past the cap of %d", max(len(capped.Keys), len(capped.Vals)), maxTuples)
		}
	})
}

// widen64 is the uint64 wire form of a 32-bit column.
func widen64(xs []uint32) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = uint64(x)
	}
	return out
}

// oracleResponse is the SortResponseJSON handleSort encoded with
// encoding/json before the codec.
func oracleResponse(req *Request, res Result) SortResponseJSON {
	resp := SortResponseJSON{
		QueueNs:       res.QueueWait.Nanoseconds(),
		SortNs:        res.SortTime.Nanoseconds(),
		Attempts:      res.Attempts,
		Stage:         res.Stage,
		Degraded:      res.Degraded,
		Batched:       res.Batched,
		BatchRequests: res.BatchRequests,
		Spilled:       res.Spilled,
	}
	if req.Keys64 != nil {
		resp.Keys, resp.Vals = req.Keys64, req.Vals64
	} else {
		resp.Keys = widen64(req.Keys32)
		if req.Vals32 != nil {
			resp.Vals = widen64(req.Vals32)
		}
	}
	return resp
}

// TestAppendSortResponseMatchesEncodingJSON holds the encoder to
// json.Encoder's bytes, trailing newline included, over every column
// shape and optional flag.
func TestAppendSortResponseMatchesEncodingJSON(t *testing.T) {
	k64 := []uint64{0, math.MaxUint64, math.MaxUint32, 42}
	v64 := []uint64{math.MaxUint64, 0, 1, math.MaxUint32}
	k32 := []uint32{0, math.MaxUint32, 7}
	v32 := []uint32{math.MaxUint32, 1, 0}
	shapes := []struct {
		name string
		req  Request
	}{
		{"64-bit keys", Request{Keys64: k64}},
		{"64-bit pairs", Request{Keys64: k64, Vals64: v64}},
		{"32-bit keys", Request{Keys32: k32}},
		{"32-bit pairs", Request{Keys32: k32, Vals32: v32}},
		{"64-bit empty", Request{Keys64: []uint64{}}},
		{"64-bit empty pairs", Request{Keys64: []uint64{}, Vals64: []uint64{}}},
		{"32-bit empty", Request{Keys32: []uint32{}}},
		{"32-bit empty pairs", Request{Keys32: []uint32{}, Vals32: []uint32{}}},
		{"one key", Request{Keys64: []uint64{1}}},
	}
	results := []Result{
		{},
		{QueueWait: 1500 * time.Nanosecond, SortTime: 2 * time.Millisecond, Attempts: 1},
		{Attempts: 3, Stage: 2, Degraded: true},
		{Attempts: 1, Batched: true, BatchRequests: 17},
		{Attempts: 1, Batched: true},
		{Attempts: 1, Spilled: true},
		{QueueWait: math.MaxInt64, SortTime: -1, Attempts: 2, Stage: 1,
			Degraded: true, Batched: true, BatchRequests: 64, Spilled: true},
	}
	for _, sh := range shapes {
		for i, res := range results {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(oracleResponse(&sh.req, res)); err != nil {
				t.Fatal(err)
			}
			if got := appendSortResponse(nil, &sh.req, res); !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s, result %d:\n got %s\nwant %s", sh.name, i, got, want.Bytes())
			}
		}
	}
}

// TestCodecAllocs is the codec's allocation guard: decoding a 4096-key
// and a 65536-key body costs the same constant number of allocations
// (the column, the tenant, the request — no regrowth), encoding into a
// buffer with room costs none, and the stage timers' record path is
// allocation-free.
func TestCodecAllocs(t *testing.T) {
	decodeAllocs := make(map[int]float64)
	for _, n := range []int{4096, 65536} {
		keys := randKeys(n, int64(n))
		body, err := json.Marshal(SortRequestJSON{Tenant: "t1", Algo: "lsb", Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		decodeAllocs[n] = testing.AllocsPerRun(20, func() {
			if _, err := decodeRequest(body, math.MaxInt); err != nil {
				t.Fatal(err)
			}
		})
		for _, req := range []*Request{{Keys64: keys, Vals64: keys}, {Keys32: make([]uint32, n)}} {
			out := appendSortResponse(nil, req, Result{Attempts: 1})
			if a := testing.AllocsPerRun(20, func() {
				out = appendSortResponse(out[:0], req, Result{Attempts: 1})
			}); a != 0 {
				t.Errorf("encoding %d keys allocates %v/op, want 0", n, a)
			}
		}
	}
	if a, b := decodeAllocs[4096], decodeAllocs[65536]; a != b || a > 4 {
		t.Errorf("decode allocations: %v at 4096 keys, %v at 65536; want equal and at most 4", a, b)
	}

	m := newMetrics(obs.NewRegistry())
	if a := testing.AllocsPerRun(1000, func() {
		start := time.Now()
		m.httpDecode.ObserveDuration(time.Since(start), 0)
	}); a != 0 {
		t.Errorf("stage timer record path allocates %v/op, want 0", a)
	}
}

// spaces is an endless body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestHTTPBodyCapUndeclaredLength sends a gigabyte body without a
// Content-Length to a server whose cap (derived from MaxTuples = 4) is
// about 64 KiB: it answers 413 too-large having buffered about the cap,
// not the body.
func TestHTTPBodyCapUndeclaredLength(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTuples = 4
	s := New(cfg)
	defer drainOK(t, s)

	body := io.MultiReader(strings.NewReader(`{"algo":"lsb","keys":[1]`), io.LimitReader(spaces{}, 1<<30))
	req := httptest.NewRequest(http.MethodPost, "/v1/sort", body)
	req.ContentLength = -1
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("HTTP %d, want 413: %s", rec.Code, rec.Body)
	}
	var ej ErrorJSON
	if err := json.NewDecoder(rec.Body).Decode(&ej); err != nil || ej.Code != "too-large" {
		t.Fatalf("error body %+v (%v), want code too-large", ej, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("a capped body allocated %d bytes", grew)
	}
}

// TestHTTPBodyForgedLength declares a Content-Length at the body cap
// (1 GiB by default), sends a few bytes and hangs up: the handler answers
// 400 having allocated about what arrived, not the declared gigabyte.
func TestHTTPBodyForgedLength(t *testing.T) {
	s := New(testConfig())
	defer drainOK(t, s)

	req := httptest.NewRequest(http.MethodPost, "/v1/sort", strings.NewReader(`{"algo":"lsb","keys":[1,`))
	req.ContentLength = s.cfg.bodyLimit()
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400: %s", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readChunk {
		t.Fatalf("a forged %d-byte Content-Length allocated %d bytes", req.ContentLength, grew)
	}
}

// TestBodyLimit pins the cap's derivation from MaxTuples.
func TestBodyLimit(t *testing.T) {
	for _, tc := range []struct {
		maxTuples int
		want      int64
	}{
		{4, 4*2*32 + 64<<10},
		{1 << 20, 1<<20*2*32 + 64<<10},
		{1 << 26, 1 << 30}, // the default keeps the 1 GiB cap
		{math.MaxInt, 1 << 30},
	} {
		cfg := Config{MaxTuples: tc.maxTuples}
		if got := cfg.bodyLimit(); got != tc.want {
			t.Errorf("MaxTuples %d: limit %d, want %d", tc.maxTuples, got, tc.want)
		}
	}
}
