// Tests for the raw-TCP request decoder, the daemon's untrusted binary
// boundary: a fuzz target and a forged-length allocation bound.

package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	partsort "repro"
)

// readTCPRequest reads and decodes one request frame, as serveTCPConn
// does.
func readTCPRequest(r io.Reader) (*Request, error) {
	buf, err := readTCPPayload(r)
	if err != nil {
		return nil, err
	}
	return decodeTCPRequest(buf)
}

// TestReadTCPRequestForgedLength sends a header claiming the largest
// legal frame and then hangs up: the decoder must fail having allocated
// about what arrived, not the claimed gigabyte.
func TestReadTCPRequestForgedLength(t *testing.T) {
	data := binary.LittleEndian.AppendUint32(nil, tcpMaxFrame)
	data = append(data, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readTCPRequest(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readChunk {
		t.Fatalf("forged length allocated %d bytes", grew)
	}
}

// FuzzReadTCPRequest feeds arbitrary bytes to the frame decoder. It must
// never panic; a frame it accepts either passes validateRequest or fails
// it with *ArgError, and a valid one round-trips through encodeTCPResult
// with its columns byte for byte.
func FuzzReadTCPRequest(f *testing.F) {
	valid := buildTCPFrame(0, 64, 1, "acme", []uint64{3, 1, 2}, []uint64{30, 10, 20})
	f.Add(valid)
	f.Add(buildTCPFrame(2, 32, 0, "", []uint64{7, 5}, nil))
	f.Add(valid[:8]) // truncated header
	wrongVersion := bytes.Clone(valid)
	wrongVersion[4] = tcpVersion + 1
	f.Add(wrongVersion)
	wrongN := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(wrongN[4+6+len("acme"):], 4) // frame carries 3 pairs
	f.Add(wrongN)

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := readTCPRequest(bytes.NewReader(data))
		if err != nil {
			if req != nil {
				t.Fatalf("decoder returned a request alongside %v", err)
			}
			return
		}
		if err := validateRequest(req, math.MaxInt); err != nil {
			var argErr *partsort.ArgError
			if !errors.As(err, &argErr) {
				t.Fatalf("accepted frame fails validation with %T: %v", err, err)
			}
			return
		}

		var out bytes.Buffer
		if err := writeTCPFrame(&out, encodeTCPResult(req)); err != nil {
			t.Fatalf("writeTCPFrame: %v", err)
		}
		status, body := readTCPResponse(t, &out)
		if status != TCPStatusOK {
			t.Fatalf("result frame status %d", status)
		}
		if n := binary.LittleEndian.Uint32(body); int(n) != req.n() {
			t.Fatalf("result frame n=%d, request n=%d", n, req.n())
		}
		payload := data[4 : 4+binary.LittleEndian.Uint32(data)]
		if cols := payload[6+len(req.Tenant)+4:]; !bytes.Equal(body[4:], cols) {
			t.Fatalf("columns did not round-trip: sent %d bytes, got %d back", len(cols), len(body)-4)
		}
	})
}
