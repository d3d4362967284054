package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestReadHeaderTimeout: a client that opens a connection and never
// finishes its request headers is disconnected once readHeaderTimeout
// has passed.
func TestReadHeaderTimeout(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at Close
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)) //nolint:errcheck // best effort
	if n, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("connection not closed by the server (read %d bytes): %v", n, err)
	}
	if el := time.Since(start); el < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout", el, readHeaderTimeout)
	}
}

// TestIdleTimeout pins the keep-alive bound. Observing it would mean
// holding a connection idle for idleTimeout, minutes of wall time, so
// the test checks the configured server instead.
func TestIdleTimeout(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if idleTimeout <= 0 || srv.IdleTimeout != idleTimeout {
		t.Fatalf("IdleTimeout %v, want the positive constant %v", srv.IdleTimeout, idleTimeout)
	}
}
