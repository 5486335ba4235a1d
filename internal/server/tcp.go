// The raw-TCP front end: a length-prefixed binary framing for clients
// that cannot afford JSON number encoding on multi-megabyte columns.
// All integers are little-endian. Request frame payload (after the u32
// length prefix):
//
//	u8  version   (1)
//	u8  algo      (0 lsb, 1 msb, 2 cmp)
//	u8  width     (32 or 64)
//	u8  priority  (0..2)
//	u8  flags     (bit 0: a vals column follows the keys)
//	u8  tenantLen, tenant bytes
//	u32 n
//	n*width/8 bytes of keys [, n*width/8 bytes of vals]
//
// Response frame payload:
//
//	u8  status    (0 ok, 2 bad request, 3 internal, 4 canceled,
//	               5 resource, 6 admission-rejected/too-large)
//	ok:     u32 n, keys [, vals]
//	error:  u16 msgLen, message bytes
//
// The status byte mirrors sortcli's exit codes (OPERATIONS.md) with 6 as
// the service-only "rejected, retry later" verdict.

package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	partsort "repro"
)

// Limits of the TCP framing.
const (
	tcpVersion     = 1
	tcpMaxFrame    = 1 << 30
	tcpFlagHasVals = 1 << 0
)

// readChunk bounds what readFrame reserves before bytes arrive.
const readChunk = 1 << 20

// TCP response status bytes (sortcli's exit-code taxonomy plus the
// service-only admission verdict).
const (
	TCPStatusOK        = 0
	TCPStatusBadReq    = 2
	TCPStatusInternal  = 3
	TCPStatusCanceled  = 4
	TCPStatusResource  = 5
	TCPStatusAdmission = 6
)

// ServeTCP accepts length-prefixed sort connections on lis until the
// listener closes (the caller owns lis; Drain-aware daemons close it,
// then call CloseTCPConns to unblock in-frame reads). Each connection is
// served by one goroutine, one frame at a time.
func (s *Server) ServeTCP(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.tcpConns.add(conn)
		go func() {
			defer s.tcpConns.remove(conn)
			s.serveTCPConn(conn)
		}()
	}
}

// CloseTCPConns force-closes every live TCP connection — the drain
// path's hard stop after the listener is closed and the queue drained.
func (s *Server) CloseTCPConns() { s.tcpConns.closeAll() }

// connSet tracks live TCP connections for drain.
type connSet struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// add registers a connection.
func (c *connSet) add(conn net.Conn) {
	c.mu.Lock()
	if c.conns == nil {
		c.conns = make(map[net.Conn]struct{})
	}
	c.conns[conn] = struct{}{}
	c.mu.Unlock()
}

// remove unregisters and closes a connection.
func (c *connSet) remove(conn net.Conn) {
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
	conn.Close()
}

// closeAll closes every registered connection.
func (c *connSet) closeAll() {
	c.mu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
}

// serveTCPConn runs one connection's frame loop. Each frame must arrive
// within s.readTimeout of its first byte; between frames the connection
// may stay idle indefinitely.
func (s *Server) serveTCPConn(conn net.Conn) {
	fr := &frameReader{conn: conn, limit: s.readTimeout}
	for {
		fr.next()
		buf, err := readTCPPayload(fr)
		if err != nil {
			if err != io.EOF {
				writeTCPError(conn, TCPStatusBadReq, err.Error())
			}
			return
		}
		start := time.Now()
		req, err := decodeTCPRequest(buf)
		s.met.tcpDecode.ObserveDuration(time.Since(start), 0)
		if err != nil {
			writeTCPError(conn, TCPStatusBadReq, err.Error())
			return
		}
		if s.serveTCPFrame(conn, req) != nil {
			return
		}
	}
}

// serveTCPFrame submits one decoded frame and writes its response;
// non-nil return ends the connection.
func (s *Server) serveTCPFrame(conn net.Conn, req *Request) error {
	_, err := s.Submit(context.Background(), req)
	if err != nil {
		var adm *AdmissionError
		var tooLarge *TooLargeError
		var overBudget *OverBudgetError
		var argErr *partsort.ArgError
		var resErr *partsort.ResourceError
		switch {
		case errors.As(err, &adm), errors.As(err, &tooLarge), errors.As(err, &overBudget):
			return writeTCPError(conn, TCPStatusAdmission, err.Error())
		case errors.As(err, &argErr):
			return writeTCPError(conn, TCPStatusBadReq, err.Error())
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return writeTCPError(conn, TCPStatusCanceled, err.Error())
		case errors.As(err, &resErr):
			return writeTCPError(conn, TCPStatusResource, err.Error())
		default:
			return writeTCPError(conn, TCPStatusInternal, err.Error())
		}
	}
	start := time.Now()
	payload := encodeTCPResult(req)
	s.met.tcpEncode.ObserveDuration(time.Since(start), 0)
	return writeTCPFrame(conn, payload)
}

// frameReader reads one request frame at a time from a connection: it
// waits for a frame's first byte with no deadline, so an idle connection
// stays open, then bounds the rest of the frame by limit from that byte,
// so a client that trickles a frame cannot hold the connection.
type frameReader struct {
	conn  net.Conn
	limit time.Duration
	armed bool
}

// next clears the bound before the connection waits for the next frame.
func (r *frameReader) next() {
	r.armed = false
	_ = r.conn.SetReadDeadline(time.Time{})
}

// Read reads from the connection and arms the frame's deadline once its
// first byte has arrived.
func (r *frameReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 && !r.armed {
		r.armed = true
		_ = r.conn.SetReadDeadline(time.Now().Add(r.limit))
	}
	return n, err
}

// readTCPPayload reads one request frame's payload (io.EOF when the
// client hung up between frames).
func readTCPPayload(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	frameLen := binary.LittleEndian.Uint32(lenBuf[:])
	if frameLen < 10 || frameLen > tcpMaxFrame {
		return nil, fmt.Errorf("server: tcp frame length %d out of range", frameLen)
	}
	buf, err := readFrame(r, nil, int(frameLen))
	if err != nil {
		return nil, fmt.Errorf("server: short tcp frame: %w", err)
	}
	return buf, nil
}

// decodeTCPRequest decodes one request frame payload (at least 10
// bytes, as readTCPPayload guarantees).
func decodeTCPRequest(buf []byte) (*Request, error) {
	if buf[0] != tcpVersion {
		return nil, fmt.Errorf("server: tcp protocol version %d (want %d)", buf[0], tcpVersion)
	}
	algo, width, prio, flags := buf[1], int(buf[2]), int(buf[3]), buf[4]
	tenantLen := int(buf[5])
	p := 6
	if len(buf) < p+tenantLen+4 {
		return nil, errors.New("server: tcp frame truncated in header")
	}
	tenant := string(buf[p : p+tenantLen])
	p += tenantLen
	n := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4

	if algo > 2 {
		return nil, fmt.Errorf("server: tcp algo byte %d (want 0..2)", algo)
	}
	if width != 32 && width != 64 {
		return nil, fmt.Errorf("server: tcp width %d (want 32 or 64)", width)
	}
	cols := 1
	if flags&tcpFlagHasVals != 0 {
		cols = 2
	}
	need := n * width / 8 * cols
	if len(buf)-p != need {
		return nil, fmt.Errorf("server: tcp frame carries %d column bytes, want %d", len(buf)-p, need)
	}

	req := &Request{Tenant: tenant, Algo: partsort.Algorithm(algo), Priority: prio}
	if width == 64 {
		req.Keys64 = decodeU64s(buf[p:], n)
		if cols == 2 {
			req.Vals64 = decodeU64s(buf[p+n*8:], n)
		}
	} else {
		req.Keys32 = decodeU32s(buf[p:], n)
		if cols == 2 {
			req.Vals32 = decodeU32s(buf[p+n*4:], n)
		}
	}
	return req, nil
}

// readFrame reads n bytes from r into buf's storage, or everything up
// to EOF when n < 0; both front ends read their request bodies through
// it. It reserves at most readChunk bytes before they arrive and grows
// only as they do, so a forged length — a TCP length prefix, an HTTP
// Content-Length — cannot make the server allocate memory the client
// never sends. A stream that ends short of n bytes fails with
// io.ErrUnexpectedEOF. Like io.ReadAll it returns what it read alongside
// any error.
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	if n >= 0 && cap(buf) < min(n, readChunk) {
		buf = make([]byte, 0, min(n, readChunk))
	}
	for n < 0 || len(buf) < n {
		if len(buf) == cap(buf) {
			grow := max(len(buf), 512)
			if n >= 0 {
				grow = min(grow, n-len(buf))
			}
			buf = slices.Grow(buf, grow)
		}
		end := cap(buf)
		if n >= 0 {
			end = min(end, n)
		}
		m, err := r.Read(buf[len(buf):end])
		buf = buf[:len(buf)+m]
		switch {
		case err == io.EOF && (n < 0 || len(buf) == n):
			return buf, nil
		case err == io.EOF:
			return buf, io.ErrUnexpectedEOF
		case err != nil:
			return buf, err
		}
	}
	return buf, nil
}

// encodeTCPResult builds one success frame payload from the request's
// sorted columns.
func encodeTCPResult(req *Request) []byte {
	n := req.n()
	width := req.width()
	cols := 1
	if req.hasVals() {
		cols = 2
	}
	payload := make([]byte, 1+4+n*width/8*cols)
	payload[0] = TCPStatusOK
	binary.LittleEndian.PutUint32(payload[1:], uint32(n))
	p := 5
	if width == 64 {
		p = encodeU64s(payload, p, req.Keys64)
		if req.Vals64 != nil {
			encodeU64s(payload, p, req.Vals64)
		}
	} else {
		p = encodeU32s(payload, p, req.Keys32)
		if req.Vals32 != nil {
			encodeU32s(payload, p, req.Vals32)
		}
	}
	return payload
}

// writeTCPError writes one error frame.
func writeTCPError(w io.Writer, status byte, msg string) error {
	if len(msg) > 1<<16-1 {
		msg = msg[:1<<16-1]
	}
	payload := make([]byte, 1+2+len(msg))
	payload[0] = status
	binary.LittleEndian.PutUint16(payload[1:], uint16(len(msg)))
	copy(payload[3:], msg)
	return writeTCPFrame(w, payload)
}

// writeTCPFrame writes the length prefix and payload with a write
// deadline so a dead client cannot wedge the connection goroutine.
func writeTCPFrame(w io.Writer, payload []byte) error {
	if conn, ok := w.(net.Conn); ok {
		_ = conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// decodeU64s reads n little-endian uint64s.
func decodeU64s(b []byte, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// decodeU32s reads n little-endian uint32s.
func decodeU32s(b []byte, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// encodeU64s writes xs little-endian at offset p, returning the new
// offset.
func encodeU64s(b []byte, p int, xs []uint64) int {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[p:], x)
		p += 8
	}
	return p
}

// encodeU32s writes xs little-endian at offset p, returning the new
// offset.
func encodeU32s(b []byte, p int, xs []uint32) int {
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[p:], x)
		p += 4
	}
	return p
}
