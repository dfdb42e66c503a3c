package main

import (
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSilentClientDisconnected checks the connection timeouts: a raw
// TCP client that connects and sends nothing is disconnected once
// readHeaderTimeout passes instead of pinning the connection.
func TestSilentClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("silent client still connected after %s", time.Since(start).Round(time.Second))
	}
	if err == nil {
		t.Fatalf("server sent %d byte(s) to a client that sent nothing, want a closed connection", n)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("disconnected after %s, before the %s header timeout", waited, readHeaderTimeout)
	}
}
