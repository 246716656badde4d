package main

import (
	"bufio"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank:
// the smallest value with at least q of the sample at or below it. An
// empty sample has no percentile and reads 0.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle of vs (the mean of the middle two when the
// count is even) without reordering the caller's slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap still reachable after a full collection. Two
// cycles, because the first only queues finalizer-held and pooled
// memory for release.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// mallocs is the number of objects the process has allocated so far.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// scrape is one parsed /metrics exposition: every sample keyed by its
// series exactly as printed (`name` or `name{labels}`).
type scrape map[string]float64

// parseScrape reads Prometheus text exposition. Comment lines and
// lines that do not end in a number are skipped.
func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	return out, sc.Err()
}

// sub returns after-before per series: what the interval between two
// scrapes added to each counter and histogram bucket.
func (after scrape) sub(before scrape) scrape {
	d := make(scrape, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the family name whose label set contains
// all of the given `key="value"` fragments.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		if seriesMatches(series, name, labels) {
			total += v
		}
	}
	return total
}

func seriesMatches(series, name string, labels []string) bool {
	if series != name && !strings.HasPrefix(series, name+"{") {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(series, l) {
			return false
		}
	}
	return true
}

// quantile interpolates the q-quantile of histogram family name from
// its cumulative `_bucket{le=...}` series, the way a Prometheus query
// would. It reads 0 when the histogram is empty.
func (s scrape) quantile(name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var buckets []bucket
	prefix := name + "_bucket{"
	for series, v := range s {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		i := strings.Index(series, `le="`)
		if i < 0 {
			continue
		}
		raw := series[i+4:]
		raw = raw[:strings.IndexByte(raw, '"')]
		le := math.Inf(1)
		if raw != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(raw, 64); err != nil {
				continue
			}
		}
		buckets = append(buckets, bucket{le, v})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].count <= 0 {
		return 0
	}
	rank := q * buckets[len(buckets)-1].count
	lo, below := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank && b.count > below {
			if math.IsInf(b.le, 1) {
				return lo
			}
			return lo + (b.le-lo)*(rank-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}
