package netserver

import (
	"io"
	"net"
	"testing"
	"time"

	"github.com/loloha-ldp/loloha/internal/core"
)

// TestHTTPSlowHeaderDisconnected: a client trickling a request header one
// byte at a time (slowloris) is disconnected once the header read timeout
// passes, instead of holding a connection and a goroutine forever.
func TestHTTPSlowHeaderDisconnected(t *testing.T) {
	defer func(d time.Duration) { httpReadHeaderTimeout = d }(httpReadHeaderTimeout)
	httpReadHeaderTimeout = 200 * time.Millisecond

	proto, err := core.NewBinary(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, newTestStream(t, proto), Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeHTTP(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		header := []byte("GET /v1/status HTTP/1.1\r\nHost: loloha\r\nX-Slow: ")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			b := byte('a')
			if i < len(header) {
				b = header[i]
			}
			if _, err := conn.Write([]byte{b}); err != nil {
				return // disconnected
			}
		}
	}()

	start := time.Now()
	conn.SetReadDeadline(start.Add(10 * time.Second))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("slow header still connected after %v", time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("slow header disconnected only after %v", elapsed)
	}
}
