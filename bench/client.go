package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// request is one scripted HTTP call. Every field is prepared before the
// clock starts except the server-minted IDs inside path and body.
type request struct {
	method      string
	path        []byte
	contentType string
	ifNoneMatch string
	byteRange   string
	body        []byte
}

// response is what the driver checks of a reply. body and etag alias
// the transport's buffers and are valid until its next call.
type response struct {
	status int
	etag   []byte
	body   []byte
}

// transport carries a request to a handler and returns its reply: over
// a loopback socket (sockConn) or by calling the handler in-process
// (direct). The driver's script runs unchanged on either.
type transport interface {
	do(req *request) (*response, error)
}

// sockConn is one closed-loop client: a single keep-alive HTTP/1.1
// connection that sends a request and reads the whole reply before the
// next. It speaks the protocol itself, because net/http's client hands
// every request through two goroutines and allocates per call, which is
// instrument cost the server's own numbers would have to carry.
type sockConn struct {
	addr    string
	timeout time.Duration
	conn    net.Conn
	br      *bufio.Reader
	out     []byte
	resp    response
	bodyBuf []byte
	etagBuf []byte
}

func newSockConn(addr string, timeout time.Duration) *sockConn {
	return &sockConn{addr: addr, timeout: timeout}
}

func (c *sockConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *sockConn) dial() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return err
	}
	c.conn = conn
	if c.br == nil {
		c.br = bufio.NewReaderSize(conn, 16<<10)
	} else {
		c.br.Reset(conn)
	}
	return nil
}

// do sends req and reads the reply under the per-request timeout. A
// transport error closes the connection; the next call dials again.
func (c *sockConn) do(req *request) (*response, error) {
	if c.conn == nil {
		if err := c.dial(); err != nil {
			return nil, err
		}
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		c.close()
		return nil, err
	}
	c.out = appendRequest(c.out[:0], req)
	if _, err := c.conn.Write(c.out); err != nil {
		c.close()
		return nil, err
	}
	if err := c.readResponse(); err != nil {
		c.close()
		return nil, err
	}
	return &c.resp, nil
}

func appendRequest(dst []byte, req *request) []byte {
	dst = append(dst, req.method...)
	dst = append(dst, ' ')
	dst = append(dst, req.path...)
	dst = append(dst, " HTTP/1.1\r\nHost: bench\r\n"...)
	if req.contentType != "" {
		dst = append(dst, "Content-Type: "...)
		dst = append(dst, req.contentType...)
		dst = append(dst, "\r\n"...)
	}
	if req.ifNoneMatch != "" {
		dst = append(dst, "If-None-Match: "...)
		dst = append(dst, req.ifNoneMatch...)
		dst = append(dst, "\r\n"...)
	}
	if req.byteRange != "" {
		dst = append(dst, "Range: "...)
		dst = append(dst, req.byteRange...)
		dst = append(dst, "\r\n"...)
	}
	if req.method == "POST" {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(req.body)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	return append(dst, req.body...)
}

var errProtocol = errors.New("malformed HTTP response")

func (c *sockConn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// readResponse reads one reply of the kinds the script's requests get:
// a body framed by Content-Length or chunked, or none after a 304.
func (c *sockConn) readResponse() error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return errProtocol
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return errProtocol
	}
	c.resp.status = status
	c.resp.etag = nil
	c.resp.body = nil
	length := int64(-1)
	chunked, closing := false, false
	for {
		line, err = c.readLine()
		if err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return errProtocol
		}
		name, value := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			length, err = strconv.ParseInt(string(value), 10, 64)
			if err != nil || length < 0 {
				return errProtocol
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("ETag")):
			c.etagBuf = append(c.etagBuf[:0], value...)
			c.resp.etag = c.etagBuf
		case bytes.EqualFold(name, []byte("Connection")):
			closing = bytes.EqualFold(value, []byte("close"))
		}
	}
	c.bodyBuf = c.bodyBuf[:0]
	switch {
	case status == http.StatusNotModified:
	case chunked:
		if err := c.readChunked(); err != nil {
			return err
		}
	case length >= 0:
		if err := c.readBody(int(length)); err != nil {
			return err
		}
	default:
		return errProtocol
	}
	c.resp.body = c.bodyBuf
	if closing {
		c.close()
	}
	return nil
}

// readBody appends n bytes of the stream to bodyBuf.
func (c *sockConn) readBody(n int) error {
	at := len(c.bodyBuf)
	if cap(c.bodyBuf) < at+n {
		grown := make([]byte, at, at+n)
		copy(grown, c.bodyBuf)
		c.bodyBuf = grown
	}
	c.bodyBuf = c.bodyBuf[:at+n]
	_, err := io.ReadFull(c.br, c.bodyBuf[at:])
	return err
}

func (c *sockConn) readChunked() error {
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if semi := bytes.IndexByte(line, ';'); semi >= 0 {
			line = line[:semi]
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil || size < 0 {
			return errProtocol
		}
		if size == 0 {
			// Trailer section: lines up to the empty one.
			for {
				line, err = c.readLine()
				if err != nil {
					return err
				}
				if len(line) == 0 {
					return nil
				}
			}
		}
		if err := c.readBody(int(size)); err != nil {
			return err
		}
		if line, err = c.readLine(); err != nil {
			return err
		} else if len(line) != 0 {
			return errProtocol
		}
	}
}

// direct calls a handler in-process with the same scripted requests:
// the replay transport behind the platform.* per-layer timings and the
// set-up preload, with no socket, no HTTP parse and no server goroutine.
type direct struct {
	handler http.Handler
	w       directWriter
	resp    response
	body    bytes.Reader
}

func newDirect(h http.Handler) *direct {
	return &direct{handler: h, w: directWriter{header: http.Header{}}}
}

func (d *direct) do(req *request) (*response, error) {
	d.body.Reset(req.body)
	hr, err := http.NewRequest(req.method, "http://bench"+string(req.path), &d.body)
	if err != nil {
		return nil, fmt.Errorf("building %s %s: %w", req.method, req.path, err)
	}
	if req.contentType != "" {
		hr.Header.Set("Content-Type", req.contentType)
	}
	if req.ifNoneMatch != "" {
		hr.Header.Set("If-None-Match", req.ifNoneMatch)
	}
	if req.byteRange != "" {
		hr.Header.Set("Range", req.byteRange)
	}
	clear(d.w.header)
	d.w.status = 0
	d.w.buf.Reset()
	d.handler.ServeHTTP(&d.w, hr)
	if d.w.status == 0 {
		d.w.status = http.StatusOK
	}
	d.resp.status = d.w.status
	d.resp.etag = nil
	if tag := d.w.header.Get("ETag"); tag != "" {
		d.resp.etag = []byte(tag)
	}
	d.resp.body = d.w.buf.Bytes()
	return &d.resp, nil
}

// directWriter is the least http.ResponseWriter a handler can write to.
type directWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *directWriter) Header() http.Header { return w.header }

func (w *directWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *directWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status == http.StatusNotModified {
		return len(p), nil
	}
	return w.buf.Write(p)
}
