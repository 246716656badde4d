// Package tcpsim is a flow-level TCP model: connections deliver response
// bytes in RTT-sized rounds governed by a congestion window (slow start,
// AIMD on loss) and a fair share of the netem path's bandwidth-delay
// product. It deliberately omits per-packet detail — what the Eyeorg
// experiments need is the *timing structure* of page loads (handshake
// costs, slow-start ramp, multiplexing behaviour), which a round-based
// model captures at a tiny fraction of the cost of a packet simulator.
// DESIGN.md §4.1 records this decision; BenchmarkAblationLossModel checks
// the H1/H2 orderings are stable with loss enabled and disabled.
package tcpsim

import (
	"sort"
	"time"

	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/simtime"
)

// MSS is the maximum segment size in bytes (Ethernet-typical).
const MSS = 1460

// Config holds per-connection TCP/TLS parameters.
type Config struct {
	// TLS enables a TLS handshake after the TCP handshake.
	TLS bool
	// TLSRTTs is the number of round trips the TLS handshake costs
	// (2 for the TLS 1.2 deployed at the paper's time; 1 for TLS 1.3).
	TLSRTTs int
	// InitCwnd is the initial congestion window in segments (RFC 6928: 10).
	InitCwnd float64
	// InitSsthresh is the initial slow-start threshold in segments.
	InitSsthresh float64
	// MaxCwnd caps the congestion window in segments.
	MaxCwnd float64
}

// DefaultConfig returns the configuration used by webpeg captures:
// TLS 1.2 (HTTPS was required for HTTP/2 in browsers), initcwnd 10.
func DefaultConfig() Config {
	return Config{TLS: true, TLSRTTs: 2, InitCwnd: 10, InitSsthresh: 64, MaxCwnd: 512}
}

func (c *Config) fillDefaults() {
	if c.TLSRTTs == 0 && c.TLS {
		c.TLSRTTs = 2
	}
	if c.InitCwnd <= 0 {
		c.InitCwnd = 10
	}
	if c.InitSsthresh <= 0 {
		c.InitSsthresh = 64
	}
	if c.MaxCwnd <= 0 {
		c.MaxCwnd = 512
	}
}

// HandshakeRTTs returns the number of round trips before the connection can
// carry application data: 1 for TCP, plus the TLS rounds if enabled.
func (c Config) HandshakeRTTs() int {
	n := 1
	if c.TLS {
		n += c.TLSRTTs
	}
	return n
}

// Stream is one response in flight on a connection. For HTTP/1.1 a
// connection carries one stream at a time; for HTTP/2 many streams share
// the connection and are allocated bytes in proportion to Weight.
type Stream struct {
	// Bytes is the total response size to deliver (headers + body).
	Bytes int64
	// ReadyAt is the earliest instant the server starts sending: request
	// upload plus server think time, computed by the HTTP layer.
	ReadyAt simtime.Time
	// Weight is the allocation weight among concurrent streams (min 1).
	Weight int

	// OnFirstByte fires when the first response byte arrives.
	OnFirstByte func(simtime.Time)
	// OnProgress fires after each round with cumulative delivered bytes.
	OnProgress func(simtime.Time, int64)
	// OnComplete fires when the final byte arrives. Required.
	OnComplete func(simtime.Time)

	delivered  int64
	firstFired bool
	done       bool
}

// Done reports whether the stream has fully arrived.
func (s *Stream) Done() bool { return s.done }

// Conn is a flow-level TCP connection.
type Conn struct {
	path *netem.Path
	cfg  Config

	established bool
	closed      bool

	cwnd     float64 // segments
	ssthresh float64

	streams      []*Stream
	roundPending bool
	busy         bool

	// Stats observable by tests and the HAR builder.
	Rounds    int
	Losses    int
	BytesDown int64
}

// updateBusy keeps the path's busy-connection count in sync with whether
// this connection has streams in flight.
func (c *Conn) updateBusy() {
	nowBusy := false
	for _, s := range c.streams {
		if !s.done {
			nowBusy = true
			break
		}
	}
	if nowBusy == c.busy {
		return
	}
	c.busy = nowBusy
	if nowBusy {
		c.path.ConnBusy()
	} else {
		c.path.ConnIdle()
	}
}

// Dial opens a connection on path and calls ready when the handshake
// completes. The connection counts toward the path's fair-share divisor
// from dial time (SYNs occupy the path too, and it keeps accounting
// simple and conservative).
func Dial(path *netem.Path, cfg Config, ready func(*Conn, simtime.Time)) *Conn {
	cfg.fillDefaults()
	c := &Conn{path: path, cfg: cfg, cwnd: cfg.InitCwnd, ssthresh: cfg.InitSsthresh}
	path.ConnOpened()
	hs := time.Duration(cfg.HandshakeRTTs()) * path.Profile.RTT
	path.Scheduler().After(hs, func() {
		c.established = true
		if ready != nil {
			ready(c, path.Scheduler().Now())
		}
		c.maybeScheduleRound()
	})
	return c
}

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.established }

// Busy reports whether any stream is still in flight.
func (c *Conn) Busy() bool {
	for _, s := range c.streams {
		if !s.done {
			return true
		}
	}
	return false
}

// ActiveStreams returns the number of in-flight streams.
func (c *Conn) ActiveStreams() int {
	n := 0
	for _, s := range c.streams {
		if !s.done {
			n++
		}
	}
	return n
}

// AddStream enqueues a response for delivery. It panics if the stream has
// no completion callback or the connection is closed.
func (c *Conn) AddStream(s *Stream) {
	if s.OnComplete == nil {
		panic("tcpsim: stream without OnComplete")
	}
	if c.closed {
		panic("tcpsim: AddStream on closed connection")
	}
	if s.Weight < 1 {
		s.Weight = 1
	}
	c.streams = append(c.streams, s)
	c.updateBusy()
	c.maybeScheduleRound()
}

// Close releases the connection's share of the path. Closing with streams
// in flight abandons them (their callbacks never fire); the HTTP layer
// only closes idle connections.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.busy {
		c.busy = false
		c.path.ConnIdle()
	}
	c.path.ConnClosed()
}

// Closed reports whether Close has been called.
func (c *Conn) Closed() bool { return c.closed }

// maybeScheduleRound arms the next delivery round if there is pending work.
func (c *Conn) maybeScheduleRound() {
	if c.roundPending || c.closed || !c.established {
		return
	}
	sched := c.path.Scheduler()
	now := sched.Now()
	// Find the earliest instant any stream can start receiving.
	earliest := simtime.Time(-1)
	for _, s := range c.streams {
		if s.done {
			continue
		}
		start := s.ReadyAt
		if start < now {
			start = now
		}
		if earliest < 0 || start < earliest {
			earliest = start
		}
	}
	if earliest < 0 {
		return // nothing pending
	}
	c.roundPending = true
	delay := (earliest - now) + c.path.Profile.RTT
	sched.After(delay, c.deliverRound)
}

// deliverRound delivers one RTT worth of bytes across ready streams.
func (c *Conn) deliverRound() {
	c.roundPending = false
	if c.closed {
		return
	}
	sched := c.path.Scheduler()
	now := sched.Now()
	c.Rounds++

	capacity := int64(c.cwnd * MSS)
	if fair := c.path.FairShareBytesPerRTT(MSS); capacity > fair {
		capacity = fair
	}

	lost := c.path.LossRound()
	if lost {
		c.Losses++
		// Fast-recovery approximation: this round delivers half, and the
		// window halves.
		capacity /= 2
		c.cwnd = c.cwnd / 2
		if c.cwnd < 1 {
			c.cwnd = 1
		}
		c.ssthresh = c.cwnd
	}

	// Streams whose server has started sending by the start of this round.
	roundStart := now - c.path.Profile.RTT
	var ready []*Stream
	for _, s := range c.streams {
		if !s.done && s.ReadyAt <= roundStart {
			ready = append(ready, s)
		}
	}

	// Strict priority classes: streams with a higher weight are served
	// before any lower-weight stream sees bytes, and within a class
	// streams drain in arrival order. This mirrors Chrome's HTTP/2
	// behaviour: it marks each stream as exclusively dependent on the
	// previous one of the same class, producing a mostly-sequential
	// delivery chain — which is why page content pops in progressively
	// over H2 instead of everything trickling in together.
	sort.SliceStable(ready, func(i, j int) bool { return ready[i].Weight > ready[j].Weight })
	remainingCap := capacity
	for _, s := range ready {
		if remainingCap <= 0 {
			break
		}
		remainingCap = c.serveStream(s, remainingCap, now)
	}

	// Zero-byte streams (beacons, 204s) complete on their first round.
	for _, s := range c.streams {
		if !s.done && s.Bytes == 0 && s.ReadyAt <= roundStart {
			s.done = true
			if !s.firstFired {
				s.firstFired = true
				if s.OnFirstByte != nil {
					s.OnFirstByte(now)
				}
			}
			s.OnComplete(now)
		}
	}

	// Window growth (ACK-clocked, once per round).
	if !lost {
		if c.cwnd < c.ssthresh {
			c.cwnd *= 2
			if c.cwnd > c.ssthresh {
				c.cwnd = c.ssthresh
			}
		} else {
			c.cwnd++
		}
		if c.cwnd > c.cfg.MaxCwnd {
			c.cwnd = c.cfg.MaxCwnd
		}
	}

	c.compactStreams()
	c.updateBusy()
	c.maybeScheduleRound()
}

// serveStream gives one stream as much of the round's remaining capacity
// as it needs and returns the unconsumed capacity.
func (c *Conn) serveStream(s *Stream, capacity int64, now simtime.Time) int64 {
	share := s.Bytes - s.delivered
	if share > capacity {
		share = capacity
	}
	s.delivered += share
	c.BytesDown += share
	if !s.firstFired && (s.delivered > 0 || s.Bytes == 0) {
		s.firstFired = true
		if s.OnFirstByte != nil {
			s.OnFirstByte(now)
		}
	}
	if s.OnProgress != nil {
		s.OnProgress(now, s.delivered)
	}
	if s.delivered >= s.Bytes {
		s.done = true
		s.OnComplete(now)
	}
	return capacity - share
}

// compactStreams drops completed streams so long-lived HTTP/2 connections
// do not accumulate garbage across a page load.
func (c *Conn) compactStreams() {
	live := c.streams[:0]
	for _, s := range c.streams {
		if !s.done {
			live = append(live, s)
		}
	}
	for i := len(live); i < len(c.streams); i++ {
		c.streams[i] = nil
	}
	c.streams = live
}
