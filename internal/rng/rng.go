// Package rng provides seeded random-number streams. Every stochastic
// component in the repository (network loss, site generation, participant
// behaviour) draws from a named stream derived from one campaign seed, so
// adding randomness to one component never perturbs another and every
// experiment is reproducible bit-for-bit.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source derives independent named random streams from a single seed.
type Source struct {
	seed uint64
}

// New returns a stream source rooted at seed.
func New(seed int64) *Source {
	return &Source{seed: SplitMix64(uint64(seed))}
}

// Stream returns a deterministic *rand.Rand for the given name. Calling
// Stream twice with the same name returns independent generators with the
// same sequence, so components should call it once and keep the result.
func Stream(src *Source, name string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(SplitMix64(src.seed ^ h.Sum64()))))
}

// Stream is the method form of the package-level Stream.
func (s *Source) Stream(name string) *rand.Rand { return Stream(s, name) }

// Fork derives a child source, e.g. one per site or per participant, so
// per-entity randomness is stable under reordering.
func (s *Source) Fork(name string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return &Source{seed: SplitMix64(s.seed ^ h.Sum64())}
}

// SplitMix64 is one step of the SplitMix64 generator from state x: the
// golden-gamma increment, then the finalizer. It decorrelates nearby
// seeds, and SplitMix64(s), SplitMix64(s+γ), … with γ = 0x9e3779b97f4a7c15
// is the generator's output stream from seed s. The one definition in
// the tree: stable across platforms and Go versions, which math/rand's
// generator is not contractually.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LogNormal draws a log-normal variate with the given median and sigma
// (sigma is the standard deviation of the underlying normal). It is the
// workhorse distribution for web object sizes and human response times.
func LogNormal(r *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(r.NormFloat64()*sigma)
}

// Pareto draws a bounded Pareto variate with shape alpha on [min, max].
// Used for heavy-tailed quantities such as page object counts.
func Pareto(r *rand.Rand, alpha, min, max float64) float64 {
	u := r.Float64()
	ha := math.Pow(max, alpha)
	la := math.Pow(min, alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
	if x < min {
		x = min
	}
	if x > max {
		x = max
	}
	return x
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
