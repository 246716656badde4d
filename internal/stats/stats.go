// Package stats implements the statistical primitives used by Eyeorg's
// analysis pipeline: empirical CDFs, percentiles, Pearson correlation,
// histograms, kernel-density mode detection (for classifying
// UserPerceivedPLT distributions, Figure 9) and crowd agreement scores
// (Figures 4(c), 6(c), 8(a)).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Sample is an immutable-by-convention set of float64 observations.
type Sample []float64

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s Sample) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Stdev returns the sample (n-1) standard deviation; 0 when n < 2.
func (s Sample) Stdev() float64 {
	n := len(s)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, v := range s {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s Sample) Min() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation, or 0 for an empty sample.
func (s Sample) Max() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s[0]
	for _, v := range s[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Sorted returns a sorted copy of the sample.
func (s Sample) Sorted() Sample {
	out := make(Sample, len(s))
	copy(out, s)
	sort.Float64s(out)
	return out
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It panics if p is out of range and
// returns 0 for an empty sample.
func (s Sample) Percentile(p float64) float64 {
	sorted := s.Sorted()
	return PercentileOf(len(sorted), p, func(i int) float64 { return sorted[i] })
}

// ValidPercentile reports whether p is a legal percentile argument.
// Percentile panics out of range by design (an out-of-range p inside
// the pipeline is a programming error); API boundaries that accept
// user-controlled percentiles must check here first and turn a false
// into a 4xx instead of reaching the panic.
func ValidPercentile(p float64) bool {
	return !math.IsNaN(p) && p >= 0 && p <= 100
}

// PercentileOf is the closest-ranks interpolation behind
// Sample.Percentile, over n ascending observations of which at(i)
// returns the i-th (from 0); it reads at most two of them. A sample kept
// in another form (the live wisdom-of-the-crowd sketch counts repeats)
// answers through it bit-identically to a batch re-sort of the same
// observations. It panics if p is out of range and returns 0 when n is 0.
func PercentileOf(n int, p float64, at func(i int) float64) float64 {
	if p < 0 || p > 100 {
		panic("stats: percentile out of range")
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		return at(0)
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return at(lo)
	}
	frac := rank - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// Median returns the 50th percentile.
func (s Sample) Median() float64 { return s.Percentile(50) }

// IQRFilter returns the subset of observations between the lo-th and hi-th
// percentiles inclusive. It is Eyeorg's wisdom-of-the-crowd filter (§4.3
// keeps the 25th–75th percentile band of each video's responses).
func (s Sample) IQRFilter(lo, hi float64) Sample {
	if len(s) == 0 {
		return nil
	}
	lv := s.Percentile(lo)
	hv := s.Percentile(hi)
	out := make(Sample, 0, len(s))
	for _, v := range s {
		if v >= lv && v <= hv {
			out = append(out, v)
		}
	}
	return out
}

// Pearson returns the Pearson product-moment correlation of x and y.
// It returns an error if the lengths differ, n < 2, or either input has
// zero variance.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: length mismatch")
	}
	n := len(x)
	if n < 2 {
		return 0, ErrEmpty
	}
	mx := Sample(x).Mean()
	my := Sample(y).Mean()
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted Sample
}

// NewCDF builds an empirical CDF over values. The input is copied.
func NewCDF(values []float64) *CDF {
	return &CDF{sorted: Sample(values).Sorted()}
}

// Len returns the number of observations behind the CDF.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x) in [0,1]; 0 for an empty CDF.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	idx := sort.SearchFloat64s(c.sorted, x)
	for idx < len(c.sorted) && c.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest x with P(X <= x) >= q, for q in (0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q > 1 {
		q = 1
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Point is one (x, y) coordinate of a rendered distribution curve.
type Point struct {
	X float64
	Y float64
}

// Points samples the CDF at n evenly spaced x positions across the data
// range, suitable for plotting a figure series.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	if n == 1 || lo == hi {
		return []Point{{X: hi, Y: 1}}
	}
	pts := make([]Point, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts[i] = Point{X: x, Y: c.At(x)}
	}
	return pts
}

// Histogram counts observations into nbins equal-width bins over the data
// range. It returns the bin edges (nbins+1 values) and counts (nbins).
func Histogram(values []float64, nbins int) (edges []float64, counts []int) {
	if len(values) == 0 || nbins <= 0 {
		return nil, nil
	}
	s := Sample(values)
	lo, hi := s.Min(), s.Max()
	if hi == lo {
		hi = lo + 1
	}
	width := (hi - lo) / float64(nbins)
	edges = make([]float64, nbins+1)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	counts = make([]int, nbins)
	for _, v := range values {
		idx := int((v - lo) / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
	return edges, counts
}

// Modes estimates the number and location of modes of the sample using a
// Gaussian kernel density estimate evaluated on a fixed grid. bandwidth <= 0
// selects Silverman's rule of thumb. Figure 9 classifies UserPerceivedPLT
// distributions by mode count and spread.
func Modes(values []float64, bandwidth float64) []float64 {
	if len(values) < 3 {
		return nil
	}
	s := Sample(values)
	sd := s.Stdev()
	if sd == 0 {
		return []float64{values[0]}
	}
	if bandwidth <= 0 {
		bandwidth = 1.06 * sd * math.Pow(float64(len(values)), -0.2)
	}
	lo := s.Min() - 3*bandwidth
	hi := s.Max() + 3*bandwidth
	const grid = 256
	dens := make([]float64, grid)
	step := (hi - lo) / float64(grid-1)
	inv := 1 / (bandwidth * math.Sqrt(2*math.Pi) * float64(len(values)))
	for i := 0; i < grid; i++ {
		x := lo + float64(i)*step
		d := 0.0
		for _, v := range values {
			z := (x - v) / bandwidth
			d += math.Exp(-0.5 * z * z)
		}
		dens[i] = d * inv
	}
	// Local maxima above a noise floor are modes.
	peak := 0.0
	for _, d := range dens {
		if d > peak {
			peak = d
		}
	}
	floor := peak * 0.15
	var modes []float64
	for i := 1; i < grid-1; i++ {
		if dens[i] > dens[i-1] && dens[i] >= dens[i+1] && dens[i] > floor {
			modes = append(modes, lo+float64(i)*step)
		}
	}
	return modes
}

// Agreement returns the fraction of votes matching the most popular choice,
// regardless of which choice it is (§4.2: "the fraction of responses
// matching the most popular answer"). It returns 0 for no votes.
func Agreement(counts []int) float64 {
	total, best := 0, 0
	for _, c := range counts {
		total += c
		if c > best {
			best = c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(best) / float64(total)
}

// MeanAbsDeviation returns the mean absolute deviation of s from center.
func (s Sample) MeanAbsDeviation(center float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += math.Abs(v - center)
	}
	return sum / float64(len(s))
}
