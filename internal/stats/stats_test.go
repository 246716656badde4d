package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStdev(t *testing.T) {
	s := Sample{2, 4, 4, 4, 5, 5, 7, 9}
	if got := s.Mean(); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := s.Stdev(); !almostEqual(got, 2.138, 0.001) {
		t.Fatalf("Stdev = %v, want ~2.138", got)
	}
}

func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Stdev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample statistics should all be 0")
	}
	if s.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	if s.IQRFilter(25, 75) != nil {
		t.Fatal("empty IQRFilter should be nil")
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := Sample{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Percentile(101) did not panic")
		}
	}()
	Sample{1}.Percentile(101)
}

func TestMedianSingle(t *testing.T) {
	if got := (Sample{42}).Median(); got != 42 {
		t.Fatalf("Median of single = %v", got)
	}
}

func TestIQRFilterKeepsCentralBand(t *testing.T) {
	s := Sample{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100}
	kept := s.IQRFilter(25, 75)
	if len(kept) == 0 || len(kept) >= len(s) {
		t.Fatalf("IQRFilter kept %d of %d", len(kept), len(s))
	}
	for _, v := range kept {
		if v == 100 {
			t.Fatal("outlier 100 survived 25-75 filter")
		}
	}
}

func TestIQRFilterVariance(t *testing.T) {
	// Filtering must never increase the standard deviation.
	r := rand.New(rand.NewSource(7))
	s := make(Sample, 200)
	for i := range s {
		s[i] = r.NormFloat64() * 10
	}
	if f := s.IQRFilter(25, 75); f.Stdev() > s.Stdev() {
		t.Fatalf("filtered stdev %v > unfiltered %v", f.Stdev(), s.Stdev())
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not reported")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("n<2 not reported")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero variance not reported")
	}
}

func TestCDFAtAndQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.At(0.5); got != 0 {
		t.Fatalf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(2); got != 0.5 {
		t.Fatalf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %v, want 1", got)
	}
	if got := c.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Fatalf("Quantile(1) = %v, want 4", got)
	}
}

func TestCDFDuplicates(t *testing.T) {
	c := NewCDF([]float64{5, 5, 5, 10})
	if got := c.At(5); got != 0.75 {
		t.Fatalf("At(5) with duplicates = %v, want 0.75", got)
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("Points = %d, want 11", len(pts))
	}
	if pts[0].X != 0 || pts[len(pts)-1].X != 9 {
		t.Fatalf("points span [%v,%v], want [0,9]", pts[0].X, pts[len(pts)-1].X)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF points not monotone")
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("final CDF point = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestHistogram(t *testing.T) {
	edges, counts := Histogram([]float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.9}, 4)
	if len(edges) != 5 || len(counts) != 4 {
		t.Fatalf("edges=%d counts=%d", len(edges), len(counts))
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 8 {
		t.Fatalf("histogram total = %d, want 8", total)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if e, c := Histogram(nil, 4); e != nil || c != nil {
		t.Fatal("empty histogram should be nil")
	}
	_, counts := Histogram([]float64{3, 3, 3}, 2)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 3 {
		t.Fatalf("constant histogram lost values: %v", counts)
	}
}

func TestModesUnimodal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = 5 + r.NormFloat64()*0.4
	}
	m := Modes(vals, 0)
	if len(m) != 1 {
		t.Fatalf("unimodal sample reported %d modes (%v)", len(m), m)
	}
	if !almostEqual(m[0], 5, 0.5) {
		t.Fatalf("mode at %v, want ~5", m[0])
	}
}

func TestModesBimodal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	vals := make([]float64, 400)
	for i := range vals {
		if i%2 == 0 {
			vals[i] = 2 + r.NormFloat64()*0.3
		} else {
			vals[i] = 9 + r.NormFloat64()*0.3
		}
	}
	m := Modes(vals, 0)
	if len(m) != 2 {
		t.Fatalf("bimodal sample reported %d modes (%v)", len(m), m)
	}
}

func TestModesTooFew(t *testing.T) {
	if m := Modes([]float64{1, 2}, 0); m != nil {
		t.Fatal("Modes with n<3 should be nil")
	}
}

func TestAgreement(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{[]int{8, 1, 1}, 0.8},
		{[]int{5, 5, 0}, 0.5},
		{[]int{0, 0, 0}, 0},
		{[]int{10}, 1},
	}
	for _, c := range cases {
		if got := Agreement(c.counts); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Agreement(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestMeanAbsDeviation(t *testing.T) {
	s := Sample{1, 3}
	if got := s.MeanAbsDeviation(2); got != 1 {
		t.Fatalf("MAD = %v, want 1", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		s := Sample(raw)
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := s.Percentile(pa), s.Percentile(pb)
		return va <= vb && va >= s.Min() && vb <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF.At is monotone and in [0,1].
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []float64, probe []float64) bool {
		clean := raw[:0:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		c := NewCDF(clean)
		prevX := math.Inf(-1)
		prevY := 0.0
		for _, x := range probe {
			if math.IsNaN(x) {
				continue
			}
			if x < prevX {
				continue
			}
			y := c.At(x)
			if y < 0 || y > 1 || y < prevY {
				return false
			}
			prevX, prevY = x, y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Agreement is always in [0,1] and 1 only when unanimous.
func TestPropertyAgreementBounds(t *testing.T) {
	f := func(counts []uint8) bool {
		ints := make([]int, len(counts))
		total, nonzero := 0, 0
		for i, c := range counts {
			ints[i] = int(c)
			total += int(c)
			if c > 0 {
				nonzero++
			}
		}
		a := Agreement(ints)
		if a < 0 || a > 1 {
			return false
		}
		if total > 0 && nonzero > 1 && a == 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidPercentile(t *testing.T) {
	for _, p := range []float64{0, 25, 100} {
		if !ValidPercentile(p) {
			t.Errorf("ValidPercentile(%v) = false", p)
		}
	}
	for _, p := range []float64{-0.001, 100.001, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if ValidPercentile(p) {
			t.Errorf("ValidPercentile(%v) = true", p)
		}
	}
}
