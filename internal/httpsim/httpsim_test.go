package httpsim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/dnssim"
	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/simtime"
	"github.com/eyeorg/eyeorg/internal/tcpsim"
)

type env struct {
	sched    *simtime.Scheduler
	path     *netem.Path
	resolver *dnssim.Resolver
}

func newEnv(seed int64) *env {
	s := simtime.NewScheduler()
	path := netem.NewPath(s, netem.Profile{
		Name: "test", RTT: 50 * time.Millisecond,
		DownBps: 16_000_000, UpBps: 4_000_000,
		LossRate: 0, DNSLatency: 20 * time.Millisecond,
	}, rand.New(rand.NewSource(seed)))
	res := dnssim.NewResolver(s, 20*time.Millisecond, rand.New(rand.NewSource(seed+1)))
	return &env{sched: s, path: path, resolver: res}
}

func noTLS(p Protocol) Options {
	o := DefaultOptions(p)
	o.TCP = tcpsim.Config{TLS: false}
	return o
}

// fetchAll issues n identical requests and returns their completion times.
func fetchAll(e *env, c *Client, n int, bytes int64, host string) []simtime.Time {
	done := make([]simtime.Time, n)
	for i := 0; i < n; i++ {
		i := i
		c.Fetch(&Request{
			Host: host, Path: fmt.Sprintf("/obj%d", i),
			ReqHeaderBytes: 500, RespHeaderBytes: 400, Bytes: bytes,
			Think:      10 * time.Millisecond,
			OnComplete: func(t simtime.Time) { done[i] = t },
		})
	}
	e.sched.Run()
	return done
}

func maxTime(ts []simtime.Time) simtime.Time {
	var m simtime.Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

func TestSingleFetchLifecycle(t *testing.T) {
	e := newEnv(1)
	c := NewClient(e.sched, e.path, e.resolver, noTLS(HTTP1))
	req := &Request{
		Host: "example.org", Path: "/",
		ReqHeaderBytes: 500, RespHeaderBytes: 300, Bytes: 10_000,
		Think:      20 * time.Millisecond,
		OnComplete: func(simtime.Time) {},
	}
	var firstByte simtime.Time
	req.OnFirstByte = func(ts simtime.Time) { firstByte = ts }
	c.Fetch(req)
	e.sched.Run()

	tm := req.Timing
	if tm.Start != 0 {
		t.Fatalf("Start = %v, want 0", tm.Start)
	}
	if tm.DNSDone <= tm.Start {
		t.Fatal("DNS did not take time")
	}
	if tm.ConnReady <= tm.DNSDone {
		t.Fatal("connection ready before DNS done")
	}
	if tm.FirstByte <= tm.ConnReady || tm.FirstByte != firstByte {
		t.Fatal("first byte ordering wrong")
	}
	if tm.Done < tm.FirstByte {
		t.Fatal("done before first byte")
	}
	if !tm.NewConn {
		t.Fatal("first request should have dialed a new conn")
	}
	if got := c.Stats(); got.Requests != 1 || got.ConnsDialed != 1 || got.DNSLookups != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestH1PoolLimitsConnections(t *testing.T) {
	e := newEnv(2)
	c := NewClient(e.sched, e.path, e.resolver, noTLS(HTTP1))
	fetchAll(e, c, 20, 5_000, "example.org")
	if got := c.Stats().ConnsDialed; got != 6 {
		t.Fatalf("dialed %d conns for 20 requests, want pool limit 6", got)
	}
}

func TestH2SingleConnection(t *testing.T) {
	e := newEnv(3)
	c := NewClient(e.sched, e.path, e.resolver, noTLS(HTTP2))
	fetchAll(e, c, 20, 5_000, "example.org")
	if got := c.Stats().ConnsDialed; got != 1 {
		t.Fatalf("H2 dialed %d conns, want 1", got)
	}
}

func TestH2FasterForManySmallObjects(t *testing.T) {
	// The paper's central H1-vs-H2 effect: many small objects finish sooner
	// over one multiplexed connection with TLS handshakes amortised.
	run := func(p Protocol) simtime.Time {
		e := newEnv(4)
		o := DefaultOptions(p) // TLS on: handshake cost matters
		c := NewClient(e.sched, e.path, e.resolver, o)
		return maxTime(fetchAll(e, c, 40, 8_000, "example.org"))
	}
	h1, h2 := run(HTTP1), run(HTTP2)
	if h2 >= h1 {
		t.Fatalf("H2 (%v) not faster than H1 (%v) for 40 small objects", h2, h1)
	}
}

func TestSingleLargeObjectH1CompetitiveWithH2(t *testing.T) {
	// For one large object multiplexing buys nothing; the two protocols
	// should be within one RTT of each other.
	run := func(p Protocol) simtime.Time {
		e := newEnv(5)
		c := NewClient(e.sched, e.path, e.resolver, noTLS(p))
		return maxTime(fetchAll(e, c, 1, 400_000, "example.org"))
	}
	h1, h2 := run(HTTP1), run(HTTP2)
	diff := h1 - h2
	if diff < 0 {
		diff = -diff
	}
	if diff > simtime.Time(100*time.Millisecond) {
		t.Fatalf("single-object H1 (%v) vs H2 (%v) differ by %v, want <= 1 RTT-ish", h1, h2, diff)
	}
}

func TestHeaderCompressionReducesBytes(t *testing.T) {
	run := func(remain float64) int64 {
		e := newEnv(6)
		o := noTLS(HTTP2)
		o.HeaderBytesRemain = remain
		c := NewClient(e.sched, e.path, e.resolver, o)
		fetchAll(e, c, 10, 1_000, "example.org")
		return c.Stats().BytesDown
	}
	compressed := run(0.15)
	raw := run(0.999)
	if compressed >= raw {
		t.Fatalf("HPACK bytes %d not below raw %d", compressed, raw)
	}
}

func TestH2PushSkipsRequestRoundTrip(t *testing.T) {
	run := func(push bool) simtime.Time {
		e := newEnv(7)
		o := noTLS(HTTP2)
		o.EnablePush = push
		c := NewClient(e.sched, e.path, e.resolver, o)
		var done simtime.Time
		c.Fetch(&Request{
			Host: "example.org", Path: "/style.css",
			ReqHeaderBytes: 500, RespHeaderBytes: 200, Bytes: 20_000,
			Think: 40 * time.Millisecond, Pushed: true,
			OnComplete: func(ts simtime.Time) { done = ts },
		})
		e.sched.Run()
		return done
	}
	pushed := run(true)
	polled := run(false)
	if pushed >= polled {
		t.Fatalf("pushed resource (%v) not faster than requested (%v)", pushed, polled)
	}
}

func TestPrioritiesFavourHeavyWeights(t *testing.T) {
	e := newEnv(8)
	c := NewClient(e.sched, e.path, e.resolver, noTLS(HTTP2))
	var cssDone, adDone simtime.Time
	c.Fetch(&Request{
		Host: "example.org", Path: "/app.css",
		Bytes: 100_000, Weight: 24,
		OnComplete: func(ts simtime.Time) { cssDone = ts },
	})
	c.Fetch(&Request{
		Host: "example.org", Path: "/ad.js",
		Bytes: 100_000, Weight: 4,
		OnComplete: func(ts simtime.Time) { adDone = ts },
	})
	e.sched.Run()
	if cssDone >= adDone {
		t.Fatalf("high-priority CSS (%v) finished after low-priority ad (%v)", cssDone, adDone)
	}
}

func TestDisablePrioritiesFIFO(t *testing.T) {
	// With priorities disabled, a high-weight latecomer can no longer
	// preempt: delivery falls back to pure arrival order.
	run := func(disable bool) (first, second simtime.Time) {
		e := newEnv(9)
		o := noTLS(HTTP2)
		o.DisablePriorities = disable
		c := NewClient(e.sched, e.path, e.resolver, o)
		c.Fetch(&Request{Host: "x.com", Path: "/low", Bytes: 80_000, Weight: 4, OnComplete: func(ts simtime.Time) { first = ts }})
		c.Fetch(&Request{Host: "x.com", Path: "/high", Bytes: 80_000, Weight: 24, OnComplete: func(ts simtime.Time) { second = ts }})
		e.sched.Run()
		return first, second
	}
	lowW, highW := run(false)
	if highW >= lowW {
		t.Fatalf("with priorities, weight-24 stream (%v) should preempt weight-4 (%v)", highW, lowW)
	}
	lowN, highN := run(true)
	if lowN >= highN {
		t.Fatalf("without priorities, arrival order should win: first %v, second %v", lowN, highN)
	}
}

func TestPerHostDNSOnce(t *testing.T) {
	e := newEnv(10)
	c := NewClient(e.sched, e.path, e.resolver, noTLS(HTTP1))
	for i := 0; i < 5; i++ {
		c.Fetch(&Request{Host: "same.org", Bytes: 100, OnComplete: func(simtime.Time) {}})
	}
	for i := 0; i < 5; i++ {
		c.Fetch(&Request{Host: "other.org", Bytes: 100, OnComplete: func(simtime.Time) {}})
	}
	e.sched.Run()
	if got := c.Stats().DNSLookups; got != 2 {
		t.Fatalf("DNS lookups = %d, want 2 (one per host)", got)
	}
}

func TestQueueingDelaysSeventhRequest(t *testing.T) {
	// With a pool of 6 and 7 equal requests, exactly one must be blocked
	// waiting for a connection.
	e := newEnv(11)
	c := NewClient(e.sched, e.path, e.resolver, noTLS(HTTP1))
	reqs := make([]*Request, 7)
	for i := range reqs {
		reqs[i] = &Request{
			Host: "example.org", Path: fmt.Sprintf("/%d", i),
			Bytes: 200_000, OnComplete: func(simtime.Time) {},
		}
		c.Fetch(reqs[i])
	}
	e.sched.Run()
	reused := 0
	for _, r := range reqs {
		if !r.Timing.NewConn {
			reused++
		}
	}
	if reused != 1 {
		t.Fatalf("requests waiting for a reused conn = %d, want exactly 1", reused)
	}
	if got := c.Stats().ConnsDialed; got != 6 {
		t.Fatalf("dialed %d conns, want 6", got)
	}
}

func TestCloseReleasesConnections(t *testing.T) {
	e := newEnv(12)
	c := NewClient(e.sched, e.path, e.resolver, noTLS(HTTP1))
	fetchAll(e, c, 8, 1_000, "example.org")
	if e.path.ActiveConns() == 0 {
		t.Fatal("expected keep-alive conns open after load")
	}
	c.Close()
	if e.path.ActiveConns() != 0 {
		t.Fatalf("path still has %d active conns", e.path.ActiveConns())
	}
}

func TestDeterministicTimings(t *testing.T) {
	run := func() simtime.Time {
		e := newEnv(77)
		c := NewClient(e.sched, e.path, e.resolver, DefaultOptions(HTTP2))
		return maxTime(fetchAll(e, c, 25, 12_000, "example.org"))
	}
	if run() != run() {
		t.Fatal("identical seeds produced different page timings")
	}
}

func TestInvalidOptionsPanic(t *testing.T) {
	e := newEnv(13)
	defer func() {
		if recover() == nil {
			t.Error("invalid protocol accepted")
		}
	}()
	NewClient(e.sched, e.path, e.resolver, Options{Protocol: 9})
}

func TestFetchValidation(t *testing.T) {
	e := newEnv(14)
	c := NewClient(e.sched, e.path, e.resolver, noTLS(HTTP1))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("request without OnComplete accepted")
			}
		}()
		c.Fetch(&Request{Host: "x.com"})
	}()
	defer func() {
		if recover() == nil {
			t.Error("request without host accepted")
		}
	}()
	c.Fetch(&Request{OnComplete: func(simtime.Time) {}})
}

func TestProtocolString(t *testing.T) {
	if HTTP1.String() != "http/1.1" || HTTP2.String() != "h2" {
		t.Fatal("protocol labels wrong")
	}
	if Protocol(9).String() == "" {
		t.Fatal("unknown protocol label empty")
	}
}
