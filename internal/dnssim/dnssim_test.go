package dnssim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/simtime"
)

// cached reports whether host has a live cache entry in r.
func cached(r *Resolver, host string) bool {
	exp, ok := r.cache[host]
	return ok && exp > r.sched.Now()
}

func TestMissThenHit(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewResolver(s, 40*time.Millisecond, rand.New(rand.NewSource(1)))
	var first, second simtime.Time
	r.Resolve("example.org", func(at simtime.Time) {
		first = at
		r.Resolve("example.org", func(at2 simtime.Time) { second = at2 })
	})
	s.Run()
	if first < 20*time.Millisecond || first > 60*time.Millisecond {
		t.Fatalf("miss latency = %v, want within 40ms ±50%%", first)
	}
	if got := second - first; got != time.Millisecond {
		t.Fatalf("hit latency = %v, want stub cost 1ms", got)
	}
	if r.Misses != 1 || r.Hits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1/1", r.Misses, r.Hits)
	}
}

func TestPrimerWarmsCache(t *testing.T) {
	// The webpeg primer-load pattern: resolve all hosts once, then the
	// measured load must see only hits.
	s := simtime.NewScheduler()
	r := NewResolver(s, 40*time.Millisecond, rand.New(rand.NewSource(2)))
	hosts := []string{"a.com", "b.net", "cdn.c.io"}
	for _, h := range hosts {
		r.Resolve(h, func(simtime.Time) {})
	}
	s.Run()
	for _, h := range hosts {
		if !cached(r, h) {
			t.Fatalf("host %s not cached after primer", h)
		}
	}
	r.Hits, r.Misses = 0, 0
	for _, h := range hosts {
		r.Resolve(h, func(simtime.Time) {})
	}
	s.Run()
	if r.Misses != 0 || r.Hits != len(hosts) {
		t.Fatalf("measured load saw misses=%d hits=%d, want 0/%d", r.Misses, r.Hits, len(hosts))
	}
}

func TestTTLExpiry(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewResolver(s, 40*time.Millisecond, rand.New(rand.NewSource(3)))
	r.ttl = time.Second
	r.Resolve("x.com", func(simtime.Time) {})
	s.Run()
	if !cached(r, "x.com") {
		t.Fatal("entry missing right after resolve")
	}
	s.At(s.Now()+simtime.Time(2*time.Second), func() {})
	s.Run()
	if cached(r, "x.com") {
		t.Fatal("entry alive past TTL")
	}
	r.Resolve("x.com", func(simtime.Time) {})
	s.Run()
	if r.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (expired entry re-resolved)", r.Misses)
	}
}

func TestFlushExpired(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewResolver(s, 10*time.Millisecond, rand.New(rand.NewSource(4)))
	r.ttl = time.Second
	r.Resolve("gone.com", func(simtime.Time) {})
	s.Run()
	s.At(s.Now()+simtime.Time(5*time.Second), func() {})
	s.Run()
	r.FlushExpired()
	if len(r.cache) != 0 {
		t.Fatalf("cache has %d entries after flush", len(r.cache))
	}
}

func TestResetColdCache(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewResolver(s, 10*time.Millisecond, rand.New(rand.NewSource(5)))
	r.Resolve("y.com", func(simtime.Time) {})
	s.Run()
	r.Reset()
	if cached(r, "y.com") || r.Hits != 0 || r.Misses != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestCallbackNeverSynchronous(t *testing.T) {
	s := simtime.NewScheduler()
	r := NewResolver(s, 10*time.Millisecond, rand.New(rand.NewSource(6)))
	sync := true
	r.Resolve("z.com", func(simtime.Time) { sync = false })
	if !sync {
		t.Fatal("miss callback ran synchronously")
	}
	s.Run()
	sync = true
	r.Resolve("z.com", func(simtime.Time) { sync = false })
	if !sync {
		t.Fatal("hit callback ran synchronously")
	}
	s.Run()
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() simtime.Time {
		s := simtime.NewScheduler()
		r := NewResolver(s, 40*time.Millisecond, rand.New(rand.NewSource(99)))
		var at simtime.Time
		r.Resolve("det.com", func(t simtime.Time) { at = t })
		s.Run()
		return at
	}
	if run() != run() {
		t.Fatal("resolution latency differs across identically seeded runs")
	}
}
