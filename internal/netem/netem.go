// Package netem models the network path between the capture machine and
// web origins: round-trip time, asymmetric bandwidth, and random loss.
// webpeg (§3.1) loads every page under an identical emulated network so all
// participants judge the same conditions; netem is that emulation layer.
package netem

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/eyeorg/eyeorg/internal/simtime"
)

// Profile describes a network path's characteristics. Profiles mirror
// Chrome DevTools' network-emulation presets, which webpeg drives through
// the remote debugging protocol in the paper.
type Profile struct {
	Name       string
	RTT        time.Duration // base round-trip time to origins
	DownBps    int64         // downstream bits per second
	UpBps      int64         // upstream bits per second
	LossRate   float64       // probability a delivery round experiences loss
	DNSLatency time.Duration // resolver cache-miss cost
}

// Predefined profiles. Lab is the EC2-like environment the paper captured
// videos from; the mobile profiles support the "device and network
// emulation" capability mentioned in §6.
var (
	Lab    = Profile{Name: "lab", RTT: 70 * time.Millisecond, DownBps: 50_000_000, UpBps: 10_000_000, LossRate: 0.0005, DNSLatency: 40 * time.Millisecond}
	Fiber  = Profile{Name: "fiber", RTT: 18 * time.Millisecond, DownBps: 100_000_000, UpBps: 40_000_000, LossRate: 0.0002, DNSLatency: 15 * time.Millisecond}
	Cable  = Profile{Name: "cable", RTT: 28 * time.Millisecond, DownBps: 20_000_000, UpBps: 5_000_000, LossRate: 0.001, DNSLatency: 25 * time.Millisecond}
	DSL    = Profile{Name: "dsl", RTT: 50 * time.Millisecond, DownBps: 8_000_000, UpBps: 1_000_000, LossRate: 0.002, DNSLatency: 40 * time.Millisecond}
	LTE    = Profile{Name: "lte", RTT: 70 * time.Millisecond, DownBps: 12_000_000, UpBps: 6_000_000, LossRate: 0.005, DNSLatency: 60 * time.Millisecond}
	ThreeG = Profile{Name: "3g", RTT: 150 * time.Millisecond, DownBps: 1_600_000, UpBps: 768_000, LossRate: 0.01, DNSLatency: 120 * time.Millisecond}
)

// Profiles maps profile names to definitions for CLI flag parsing.
var Profiles = map[string]Profile{
	Lab.Name:    Lab,
	Fiber.Name:  Fiber,
	Cable.Name:  Cable,
	DSL.Name:    DSL,
	LTE.Name:    LTE,
	ThreeG.Name: ThreeG,
}

// ProfileByName returns the named profile or an error listing valid names.
func ProfileByName(name string) (Profile, error) {
	p, ok := Profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("netem: unknown profile %q (have lab, fiber, cable, dsl, lte, 3g)", name)
	}
	return p, nil
}

// BDPBytes returns the path's bandwidth-delay product in bytes: the maximum
// number of downstream bytes usefully in flight at once.
func (p Profile) BDPBytes() int64 {
	return int64(float64(p.DownBps) / 8 * p.RTT.Seconds())
}

// UpBytesPerSec returns upstream capacity in bytes/second.
func (p Profile) UpBytesPerSec() float64 { return float64(p.UpBps) / 8 }

// Path is the live state of one emulated network path: the event scheduler
// driving it, the loss RNG, and the set of active TCP connections competing
// for its capacity. A Path is not safe for concurrent use; the simulation
// is single-threaded by design.
type Path struct {
	Profile Profile

	sched  *simtime.Scheduler
	rng    *rand.Rand
	active int
	busy   int
}

// NewPath creates a path over the given scheduler. rng drives loss events;
// it must not be shared with other consumers if bit-exact reproducibility
// across components is required.
func NewPath(sched *simtime.Scheduler, profile Profile, rng *rand.Rand) *Path {
	if sched == nil {
		panic("netem: nil scheduler")
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	return &Path{Profile: profile, sched: sched, rng: rng}
}

// Scheduler returns the event scheduler driving this path.
func (p *Path) Scheduler() *simtime.Scheduler { return p.sched }

// ConnOpened registers one more connection competing for the path.
func (p *Path) ConnOpened() { p.active++ }

// ConnClosed deregisters a connection.
func (p *Path) ConnClosed() {
	if p.active > 0 {
		p.active--
	}
}

// ActiveConns returns the number of connections currently sharing the path.
func (p *Path) ActiveConns() int { return p.active }

// ConnBusy marks one connection as actively transferring.
func (p *Path) ConnBusy() { p.busy++ }

// ConnIdle marks one connection as done transferring.
func (p *Path) ConnIdle() {
	if p.busy > 0 {
		p.busy--
	}
}

// FairShareBytesPerRTT returns how many downstream bytes one connection may
// deliver per RTT. TCP fairness is per *flow with data in flight*: idle
// keep-alive connections neither send nor claim bandwidth, so the divisor
// counts busy connections only. The floor of one MSS keeps starved
// connections progressing, mirroring TCP's minimum window.
func (p *Path) FairShareBytesPerRTT(mss int64) int64 {
	n := p.busy
	if n < 1 {
		n = 1
	}
	share := p.Profile.BDPBytes() / int64(n)
	if share < mss {
		share = mss
	}
	return share
}

// LossRound reports whether a delivery round experiences loss.
func (p *Path) LossRound() bool {
	if p.Profile.LossRate <= 0 {
		return false
	}
	return p.rng.Float64() < p.Profile.LossRate
}

// UploadTime returns how long sending n bytes upstream takes, excluding
// propagation. Request headers are small, so this is usually tiny, but it
// matters for HTTP/1.1's uncompressed headers on narrow uplinks.
func (p *Path) UploadTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / p.Profile.UpBytesPerSec() * float64(time.Second))
}
