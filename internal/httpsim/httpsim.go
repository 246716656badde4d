// Package httpsim implements the two HTTP delivery engines Eyeorg compares
// (§3.2, §5.3): HTTP/1.1 with per-host connection pools of six and FIFO
// request queueing, and HTTP/2 with a single multiplexed connection per
// host, HPACK-style header compression, stream priorities, and optional
// server push. Both run over tcpsim connections on a netem path, so the
// protocol differences the paper's participants judged — handshake
// amortisation, slow-start sharing, head-of-line queueing — are the same
// forces that shape load times here.
package httpsim

import (
	"fmt"

	"time"

	"github.com/eyeorg/eyeorg/internal/dnssim"
	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/simtime"
	"github.com/eyeorg/eyeorg/internal/tcpsim"
)

// Protocol selects the delivery engine.
type Protocol int

// Supported protocols.
const (
	HTTP1 Protocol = 1
	HTTP2 Protocol = 2
)

// String returns the HAR-style protocol label.
func (p Protocol) String() string {
	switch p {
	case HTTP1:
		return "http/1.1"
	case HTTP2:
		return "h2"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Options configures a Client.
type Options struct {
	Protocol Protocol
	// MaxConnsPerHost bounds the HTTP/1.1 pool (browser default: 6).
	MaxConnsPerHost int
	// TCP is the per-connection transport configuration.
	TCP tcpsim.Config
	// HeaderBytesRemain is the fraction of header bytes actually sent under
	// HPACK compression (HTTP/2 only). 0.15 approximates measured HPACK
	// savings on repeat requests.
	HeaderBytesRemain float64
	// EnablePush lets the server push resources alongside the main document
	// (HTTP/2 only).
	EnablePush bool
	// DisablePriorities makes HTTP/2 treat all streams with equal weight
	// (an ablation knob; real Chrome sets priorities).
	DisablePriorities bool
}

// DefaultOptions returns the engine configuration used in the paper's
// captures for the given protocol.
func DefaultOptions(p Protocol) Options {
	return Options{
		Protocol:          p,
		MaxConnsPerHost:   6,
		TCP:               tcpsim.DefaultConfig(),
		HeaderBytesRemain: 0.15,
	}
}

// Timing records the lifecycle instants of one request, HAR-style.
type Timing struct {
	Start     simtime.Time
	DNSDone   simtime.Time
	ConnReady simtime.Time
	FirstByte simtime.Time
	Done      simtime.Time
	NewConn   bool
	Pushed    bool
	Protocol  Protocol
}

// Request is one object fetch. Callbacks fire in simulated time; only
// OnComplete is required.
type Request struct {
	Host string
	Path string
	// ReqHeaderBytes and RespHeaderBytes are uncompressed header sizes;
	// HTTP/2 shrinks both by Options.HeaderBytesRemain.
	ReqHeaderBytes  int64
	RespHeaderBytes int64
	// Bytes is the response body size.
	Bytes int64
	// Think is server processing time before the first response byte.
	Think time.Duration
	// Weight is the HTTP/2 priority weight (Chrome-like: HTML 32, CSS/JS
	// 24, fonts 16, images 8, ads/trackers 4). Ignored by HTTP/1.1.
	Weight int
	// Pushed marks a server-pushed resource: no request is uploaded and no
	// think time applies; the stream is ready as soon as it is created.
	Pushed bool

	OnFirstByte func(simtime.Time)
	OnProgress  func(t simtime.Time, delivered, total int64)
	OnComplete  func(simtime.Time)

	// Timing is filled in as the request progresses.
	Timing Timing
}

func (r *Request) totalRespBytes(headerRemain float64) int64 {
	h := r.RespHeaderBytes
	if headerRemain > 0 && headerRemain < 1 {
		h = int64(float64(h) * headerRemain)
	}
	return h + r.Bytes
}

// Stats aggregates client activity for tests and HAR summaries.
type Stats struct {
	Requests    int
	ConnsDialed int
	DNSLookups  int
	BytesDown   int64
}

// Client issues requests over one protocol on one path. Not safe for
// concurrent use; the simulation is single-threaded.
type Client struct {
	sched    *simtime.Scheduler
	path     *netem.Path
	resolver *dnssim.Resolver
	opts     Options

	hosts map[string]*hostState
	stats Stats
}

type hostState struct {
	resolved  bool
	resolving bool
	waiting   []*Request // awaiting DNS

	// HTTP/1.1 state.
	conns []*h1conn
	queue []*Request

	// HTTP/2 state.
	h2        *tcpsim.Conn
	h2dialing bool
	h2wait    []*Request
}

type h1conn struct {
	conn    *tcpsim.Conn
	busy    bool
	dialing bool
}

// NewClient builds a client. All parameters are required.
func NewClient(sched *simtime.Scheduler, path *netem.Path, resolver *dnssim.Resolver, opts Options) *Client {
	if opts.Protocol != HTTP1 && opts.Protocol != HTTP2 {
		panic("httpsim: invalid protocol")
	}
	if opts.MaxConnsPerHost <= 0 {
		opts.MaxConnsPerHost = 6
	}
	if opts.HeaderBytesRemain <= 0 || opts.HeaderBytesRemain > 1 {
		opts.HeaderBytesRemain = 0.15
	}
	return &Client{
		sched:    sched,
		path:     path,
		resolver: resolver,
		opts:     opts,
		hosts:    make(map[string]*hostState),
	}
}

// Stats returns a copy of the client's counters.
func (c *Client) Stats() Stats { return c.stats }

// Fetch issues a request. Completion is reported via req.OnComplete.
func (c *Client) Fetch(req *Request) {
	if req.OnComplete == nil {
		panic("httpsim: request without OnComplete")
	}
	if req.Host == "" {
		panic("httpsim: request without host")
	}
	if req.Weight < 1 {
		req.Weight = 1
	}
	c.stats.Requests++
	req.Timing.Start = c.sched.Now()
	req.Timing.Protocol = c.opts.Protocol
	req.Timing.Pushed = req.Pushed

	hs := c.hosts[req.Host]
	if hs == nil {
		hs = &hostState{}
		c.hosts[req.Host] = hs
	}
	if hs.resolved {
		req.Timing.DNSDone = c.sched.Now()
		c.dispatch(hs, req)
		return
	}
	hs.waiting = append(hs.waiting, req)
	if hs.resolving {
		return
	}
	hs.resolving = true
	c.stats.DNSLookups++
	host := req.Host
	c.resolver.Resolve(host, func(t simtime.Time) {
		hs.resolved = true
		hs.resolving = false
		pending := hs.waiting
		hs.waiting = nil
		for _, r := range pending {
			r.Timing.DNSDone = t
			c.dispatch(hs, r)
		}
	})
}

// Close tears down all connections, releasing their path share. In-flight
// requests are abandoned; callers should only close an idle client.
func (c *Client) Close() {
	for _, hs := range c.hosts {
		for _, hc := range hs.conns {
			hc.conn.Close()
		}
		hs.conns = nil
		if hs.h2 != nil {
			hs.h2.Close()
			hs.h2 = nil
		}
	}
}

func (c *Client) dispatch(hs *hostState, req *Request) {
	switch c.opts.Protocol {
	case HTTP1:
		c.dispatchH1(hs, req)
	case HTTP2:
		c.dispatchH2(hs, req)
	}
}

// --- HTTP/1.1 ---

func (c *Client) dispatchH1(hs *hostState, req *Request) {
	// Reuse an idle established connection if one exists.
	for _, hc := range hs.conns {
		if !hc.busy && !hc.dialing && hc.conn.Established() {
			c.sendH1(hs, hc, req)
			return
		}
	}
	hs.queue = append(hs.queue, req)
	// Dial another connection if under the pool limit.
	if len(hs.conns) < c.opts.MaxConnsPerHost {
		c.stats.ConnsDialed++
		hc := &h1conn{dialing: true}
		hc.conn = tcpsim.Dial(c.path, c.opts.TCP, func(_ *tcpsim.Conn, _ simtime.Time) {
			hc.dialing = false
			c.pumpH1(hs, hc, true)
		})
		hs.conns = append(hs.conns, hc)
	}
}

// pumpH1 gives an idle connection the next queued request.
func (c *Client) pumpH1(hs *hostState, hc *h1conn, fresh bool) {
	if hc.busy || len(hs.queue) == 0 {
		return
	}
	req := hs.queue[0]
	hs.queue = hs.queue[1:]
	req.Timing.NewConn = fresh
	c.sendH1(hs, hc, req)
}

func (c *Client) sendH1(hs *hostState, hc *h1conn, req *Request) {
	hc.busy = true
	now := c.sched.Now()
	req.Timing.ConnReady = now
	ready := now + simtime.Time(c.path.UploadTime(req.ReqHeaderBytes)) + simtime.Time(req.Think)
	total := req.RespHeaderBytes + req.Bytes // H1: headers uncompressed
	hc.conn.AddStream(&tcpsim.Stream{
		Bytes:   total,
		ReadyAt: ready,
		Weight:  1,
		OnFirstByte: func(t simtime.Time) {
			req.Timing.FirstByte = t
			if req.OnFirstByte != nil {
				req.OnFirstByte(t)
			}
		},
		OnProgress: func(t simtime.Time, got int64) {
			if req.OnProgress != nil {
				req.OnProgress(t, got, total)
			}
		},
		OnComplete: func(t simtime.Time) {
			req.Timing.Done = t
			c.stats.BytesDown += total
			hc.busy = false
			req.OnComplete(t)
			c.pumpH1(hs, hc, false)
		},
	})
}

// --- HTTP/2 ---

func (c *Client) dispatchH2(hs *hostState, req *Request) {
	if hs.h2 != nil && hs.h2.Established() {
		c.sendH2(hs, req)
		return
	}
	hs.h2wait = append(hs.h2wait, req)
	if hs.h2dialing {
		return
	}
	hs.h2dialing = true
	c.stats.ConnsDialed++
	hs.h2 = tcpsim.Dial(c.path, c.opts.TCP, func(_ *tcpsim.Conn, _ simtime.Time) {
		hs.h2dialing = false
		pending := hs.h2wait
		hs.h2wait = nil
		for i, r := range pending {
			r.Timing.NewConn = i == 0
			c.sendH2(hs, r)
		}
	})
}

func (c *Client) sendH2(hs *hostState, req *Request) {
	now := c.sched.Now()
	req.Timing.ConnReady = now
	var ready simtime.Time
	if req.Pushed && c.opts.EnablePush {
		// The server initiates a pushed stream with no request round trip.
		ready = now
	} else {
		hdr := int64(float64(req.ReqHeaderBytes) * c.opts.HeaderBytesRemain)
		ready = now + simtime.Time(c.path.UploadTime(hdr)) + simtime.Time(req.Think)
	}
	weight := req.Weight
	if c.opts.DisablePriorities {
		weight = 1
	}
	total := req.totalRespBytes(c.opts.HeaderBytesRemain)
	hs.h2.AddStream(&tcpsim.Stream{
		Bytes:   total,
		ReadyAt: ready,
		Weight:  weight,
		OnFirstByte: func(t simtime.Time) {
			req.Timing.FirstByte = t
			if req.OnFirstByte != nil {
				req.OnFirstByte(t)
			}
		},
		OnProgress: func(t simtime.Time, got int64) {
			if req.OnProgress != nil {
				req.OnProgress(t, got, total)
			}
		},
		OnComplete: func(t simtime.Time) {
			req.Timing.Done = t
			c.stats.BytesDown += total
			req.OnComplete(t)
		},
	})
}
