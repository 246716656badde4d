package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := percentile(ten, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMedianOfSegments(t *testing.T) {
	in := []float64{5, 1, 4, 2, 3}
	if got := median(in); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// A metric is the median of its segments' values: one slow segment
	// out of five does not move it.
	segs := []*segment{{sessions: 100, wall: 1e9}, {sessions: 100, wall: 1e9}, {sessions: 100, wall: 5e9}, {sessions: 100, wall: 1e9}, {sessions: 100, wall: 1e9}}
	got := overSegments(segs, func(s *segment) float64 { return float64(s.sessions) / s.wall.Seconds() })
	if got != 100 {
		t.Errorf("median rate over segments = %v, want 100", got)
	}
}

const exposition = `# HELP eyeorg_journal_appends_total Records appended.
# TYPE eyeorg_journal_appends_total counter
eyeorg_journal_appends_total 40
eyeorg_http_requests_total{endpoint="join",code="2xx"} 7
eyeorg_http_requests_total{endpoint="join",code="4xx"} 1
eyeorg_http_requests_total{endpoint="video",code="2xx"} 20
eyeorg_journal_fsync_seconds_bucket{le="0.001"} 10
eyeorg_journal_fsync_seconds_bucket{le="0.0025"} 30
eyeorg_journal_fsync_seconds_bucket{le="+Inf"} 40
eyeorg_journal_fsync_seconds_sum 0.08
eyeorg_journal_fsync_seconds_count 40
not a sample line
`

func TestScrapeParsesExposition(t *testing.T) {
	s, err := parseScrape(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := s["eyeorg_journal_appends_total"]; got != 40 {
		t.Errorf("plain counter = %v, want 40", got)
	}
	if got := s.sum("eyeorg_http_requests_total"); got != 28 {
		t.Errorf("family sum = %v, want 28", got)
	}
	if got := s.sum("eyeorg_http_requests_total", `endpoint="join"`); got != 8 {
		t.Errorf("labelled sum = %v, want 8", got)
	}
	if got := s.sum("eyeorg_http_requests"); got != 0 {
		t.Errorf("a name prefix matched another family: %v", got)
	}
	// Rank 20 of 40 lies halfway through the (0.001, 0.0025] bucket.
	if got, want := s.quantile("eyeorg_journal_fsync_seconds", 0.5), 0.00175; math.Abs(got-want) > 1e-12 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	// Ranks in the +Inf bucket read the highest finite bound.
	if got := s.quantile("eyeorg_journal_fsync_seconds", 0.99); got != 0.0025 {
		t.Errorf("p99 = %v, want 0.0025", got)
	}
	if got := s.quantile("eyeorg_absent_seconds", 0.5); got != 0 {
		t.Errorf("quantile of an absent histogram = %v, want 0", got)
	}
}

func TestScrapeDelta(t *testing.T) {
	before := scrape{"a": 5, `h_bucket{le="1"}`: 2, `h_bucket{le="+Inf"}`: 4}
	after := scrape{"a": 9, `h_bucket{le="1"}`: 8, `h_bucket{le="+Inf"}`: 12, "new": 3}
	d := after.sub(before)
	if d["a"] != 4 || d["new"] != 3 {
		t.Errorf("delta = %v", d)
	}
	// Six of the eight new observations fell at or below 1.
	if got := d.quantile("h", 0.5); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("p50 of the interval = %v, want %v", got, 4.0/6)
	}
}
