package server

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// trickleTimeout is the read bound the trickling-client tests give the
// server in place of obs.ReadHeaderTimeout.
const trickleTimeout = 300 * time.Millisecond

// trickle writes b to conn one byte every 20 ms until it is written or a
// write fails (the server closed the connection), and reports when it
// stopped.
func trickle(conn net.Conn, b []byte) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range b {
			if _, err := conn.Write(b[i : i+1]); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	return done
}

// TestHTTPTricklingBodyTimesOut sends a request whose 200-byte body
// arrives one byte every 20 ms, four seconds in all. The server must give
// up on it once the whole request has taken the read bound, answer 400
// and close the connection, well before the body would be complete.
func TestHTTPTricklingBodyTimesOut(t *testing.T) {
	s := New(testConfig())
	s.readTimeout = trickleTimeout
	hs := s.HTTPServer()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go hs.Serve(lis)
	defer hs.Close()

	conn, err := net.DialTimeout("tcp", lis.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	body := `{"keys":[` + strings.Repeat("1,", 95) + `1]}`
	head := "POST /v1/sort HTTP/1.1\r\nHost: sortd\r\nContent-Type: application/json\r\n" +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n"
	begin := time.Now()
	if _, err := conn.Write([]byte(head)); err != nil {
		t.Fatalf("write headers: %v", err)
	}
	done := trickle(conn, []byte(body))
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a trickling body: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	took := time.Since(begin)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", resp.StatusCode)
	}
	if took > 2*time.Second {
		t.Fatalf("answered after %v, want soon after the %v bound", took, trickleTimeout)
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("the server kept the trickling connection open")
	}
	drainOK(t, s)
}

// TestTCPTricklingFrameTimesOut checks the TCP port's read bound both
// ways: a connection left idle for longer than the bound still serves its
// next frame, and a frame trickled one byte every 20 ms is answered with
// status 2 and the connection closed once the bound has passed since the
// frame's first byte.
func TestTCPTricklingFrameTimesOut(t *testing.T) {
	s := New(testConfig())
	s.readTimeout = trickleTimeout
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
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))

	frame := buildTCPFrame(0, 64, 0, "", []uint64{3, 1, 2}, nil)
	for round := 0; round < 2; round++ {
		time.Sleep(2 * trickleTimeout) // idle between frames: not bounded
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("round %d: write: %v", round, err)
		}
		if status, body := readTCPResponse(t, conn); status != TCPStatusOK {
			t.Fatalf("round %d after idling: status %d: %s", round, status, body)
		}
	}

	big := buildTCPFrame(0, 64, 0, "", randKeys(25, 1), nil) // 214 bytes: over 4 s at 20 ms a byte
	begin := time.Now()
	done := trickle(conn, big)
	status, body := readTCPResponse(t, conn)
	took := time.Since(begin)
	if status != TCPStatusBadReq || !strings.Contains(string(body), "timeout") {
		t.Fatalf("trickled frame: status %d: %s, want 2 and a timeout", status, body)
	}
	if took > 2*time.Second {
		t.Fatalf("answered after %v, want soon after the %v bound", took, trickleTimeout)
	}
	var b [1]byte
	if _, err := conn.Read(b[:]); err != io.EOF {
		t.Fatalf("connection still open after the timeout: read %v", err)
	}
	<-done

	lis.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	drainOK(t, s)
	s.CloseTCPConns()
}
