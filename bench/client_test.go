package main

import (
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// serve starts h on a loopback port for the length of the test.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { defer close(done); _ = hs.Serve(ln) }()
	t.Cleanup(func() { hs.Close(); <-done })
	return ln.Addr().String()
}

func TestSockConnFramings(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 40<<10/16) // past net/http's 2 KiB sniff buffer: sent chunked
	var conns atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /sized", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"tag-1"`)
		_, _ = w.Write([]byte("hello"))
	})
	mux.HandleFunc("GET /chunked", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(big[:len(big)/2])
		w.(http.Flusher).Flush()
		_, _ = w.Write(big[len(big)/2:])
	})
	mux.HandleFunc("GET /conditional", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"tag-2"`)
		if r.Header.Get("If-None-Match") == `"tag-2"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		_, _ = w.Write([]byte("full"))
	})
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(r.Header.Get("Content-Type") + "|" + r.Header.Get("Range") + "|" + string(body)))
	})
	hs := &http.Server{Handler: mux, ConnState: func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = hs.Serve(ln) }()
	t.Cleanup(func() { hs.Close(); <-done })

	c := newSockConn(ln.Addr().String(), 2*time.Second)
	defer c.close()
	do := func(req request) *response {
		t.Helper()
		resp, err := c.do(&req)
		if err != nil {
			t.Fatalf("%s %s: %v", req.method, req.path, err)
		}
		return resp
	}
	if r := do(request{method: "GET", path: []byte("/sized")}); r.status != 200 || string(r.body) != "hello" || string(r.etag) != `"tag-1"` {
		t.Errorf("sized reply: %d %q %q", r.status, r.body, r.etag)
	}
	if r := do(request{method: "GET", path: []byte("/chunked")}); r.status != 200 || !bytes.Equal(r.body, big) {
		t.Errorf("chunked reply: status %d, %d bytes, want %d", r.status, len(r.body), len(big))
	}
	if r := do(request{method: "GET", path: []byte("/conditional"), ifNoneMatch: `"tag-2"`}); r.status != 304 || len(r.body) != 0 || string(r.etag) != `"tag-2"` {
		t.Errorf("conditional reply: %d %q %q", r.status, r.body, r.etag)
	}
	if r := do(request{method: "GET", path: []byte("/conditional")}); r.status != 200 || string(r.body) != "full" {
		t.Errorf("after a 304 the stream is out of step: %d %q", r.status, r.body)
	}
	if r := do(request{method: "POST", path: []byte("/echo"), contentType: "text/x", byteRange: "bytes=-4", body: []byte("payload")}); r.status != 202 || string(r.body) != "text/x|bytes=-4|payload" {
		t.Errorf("echo reply: %d %q", r.status, r.body)
	}
	if r := do(request{method: "GET", path: []byte("/missing")}); r.status != 404 {
		t.Errorf("missing route: status %d", r.status)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("six requests used %d connections, want one kept alive", n)
	}
}

// A reply framed by neither Content-Length nor chunking is one the
// script's requests never get: it is refused, not read to end of stream.
func TestSockConnRefusesUnframedReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		_, _ = conn.Read(buf)
		_, _ = conn.Write([]byte("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nbody to end of stream"))
	}()
	c := newSockConn(ln.Addr().String(), 2*time.Second)
	defer c.close()
	if _, err := c.do(&request{method: "GET", path: []byte("/")}); !errors.Is(err, errProtocol) {
		t.Fatalf("unframed reply: error %v, want errProtocol", err)
	}
}

func TestSockConnTimesOutAndRedials(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	addr := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			time.Sleep(300 * time.Millisecond)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	c := newSockConn(addr, 50*time.Millisecond)
	defer c.close()
	if _, err := c.do(&request{method: "GET", path: []byte("/")}); err == nil {
		t.Fatal("a reply slower than the timeout was accepted")
	}
	slow.Store(false)
	resp, err := c.do(&request{method: "GET", path: []byte("/")})
	if err != nil || string(resp.body) != "ok" {
		t.Fatalf("after a timeout the client did not recover: %v", err)
	}
}

func TestDirectTransport(t *testing.T) {
	d := newDirect(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("ETag", `"t"`)
		if r.Header.Get("If-None-Match") == `"t"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		_, _ = w.Write([]byte(strings.ToUpper(string(body)) + r.URL.Path))
	}))
	resp, err := d.do(&request{method: "POST", path: []byte("/p"), body: []byte("abc")})
	if err != nil || resp.status != 200 || string(resp.body) != "ABC/p" || string(resp.etag) != `"t"` {
		t.Errorf("direct reply: %v %+v", err, resp)
	}
	resp, err = d.do(&request{method: "GET", path: []byte("/p"), ifNoneMatch: `"t"`})
	if err != nil || resp.status != 304 || len(resp.body) != 0 {
		t.Errorf("direct conditional reply: %v %+v", err, resp)
	}
}
