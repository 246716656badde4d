// Package dnssim models DNS resolution with a resolver-side cache.
//
// webpeg performs a "primer" load before every measured load (§3.1,
// following the methodology of "Is the Web HTTP/2 Yet?") so that the ISP
// resolver's cache is warm and a cache miss cannot skew the measured page
// load. The browser-local cache is disabled between loads; the resolver
// cache persists. dnssim reproduces exactly that split.
package dnssim

import (
	"math/rand"
	"time"

	"github.com/eyeorg/eyeorg/internal/simtime"
)

// Resolver simulates the ISP resolver reachable from the capture machine.
// Lookups that miss the cache cost a seeded, jittered latency; hits are
// answered after a negligible fixed stub cost.
type Resolver struct {
	sched *simtime.Scheduler
	rng   *rand.Rand

	missLatency time.Duration
	ttl         time.Duration
	stubCost    time.Duration

	cache map[string]simtime.Time // expiry per host

	// Counters for tests and HAR annotations.
	Hits   int
	Misses int
}

// NewResolver creates a resolver whose cache-miss latency is missLatency
// with ±50% multiplicative jitter drawn from rng. Entries stay cached for
// 5 minutes, typical of CDN-hosted records in 2016.
func NewResolver(sched *simtime.Scheduler, missLatency time.Duration, rng *rand.Rand) *Resolver {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Resolver{
		sched:       sched,
		rng:         rng,
		missLatency: missLatency,
		ttl:         5 * time.Minute,
		stubCost:    time.Millisecond,
		cache:       make(map[string]simtime.Time),
	}
}

// Resolve looks up host and invokes done with the completion time. The
// callback always fires through the scheduler, never synchronously, so
// callers can rely on consistent event ordering.
func (r *Resolver) Resolve(host string, done func(simtime.Time)) {
	now := r.sched.Now()
	if exp, ok := r.cache[host]; ok && exp > now {
		r.Hits++
		r.sched.After(r.stubCost, func() { done(r.sched.Now()) })
		return
	}
	r.Misses++
	jitter := 0.5 + r.rng.Float64() // 0.5x .. 1.5x
	cost := time.Duration(float64(r.missLatency) * jitter)
	if cost < r.stubCost {
		cost = r.stubCost
	}
	r.sched.After(cost, func() {
		r.cache[host] = r.sched.Now() + simtime.Time(r.ttl)
		done(r.sched.Now())
	})
}

// FlushExpired removes dead entries; useful in long campaign simulations to
// bound memory.
func (r *Resolver) FlushExpired() {
	now := r.sched.Now()
	for h, exp := range r.cache {
		if exp <= now {
			delete(r.cache, h)
		}
	}
}

// Reset empties the cache entirely (a "cold resolver" scenario; webpeg never
// does this between primer and measured load, but tests and ablations do).
func (r *Resolver) Reset() {
	r.cache = make(map[string]simtime.Time)
	r.Hits, r.Misses = 0, 0
}
