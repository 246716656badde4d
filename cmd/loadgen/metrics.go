// Scraping the platform's /metrics endpoint: the load generator reads
// back the server's self-reported latency histograms so a run (and the
// bench report) can cross-check the server's view of ingest latency
// against the client-observed one. The parser speaks just enough of
// the Prometheus text exposition format to read histogram bucket
// series — which doubles as an integration check that the exposition
// is consumable by a real scraper.
package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promHist is one parsed histogram family: sorted bucket upper bounds
// (seconds) with cumulative counts, +Inf last.
type promHist struct {
	bounds []float64 // +Inf excluded; counts has one extra entry for it
	counts []uint64  // cumulative, len(bounds)+1
}

// quantile mirrors telemetry.Histogram.Quantile: linear interpolation
// inside the covering bucket, overflow clamped to the top bound.
func (h *promHist) quantile(q float64) float64 {
	if len(h.counts) == 0 {
		return 0
	}
	total := h.counts[len(h.counts)-1]
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var prev uint64
	for i, cum := range h.counts {
		if float64(cum) >= rank && cum > prev {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				return lo
			}
			hi := h.bounds[i]
			frac := (rank - float64(prev)) / float64(cum-prev)
			return lo + (hi-lo)*frac
		}
		prev = cum
	}
	return h.bounds[len(h.bounds)-1]
}

// parseBucketLine splits one exposition line into (metric, labels,
// value), reporting ok=false for comments and non-sample lines.
func parseBucketLine(line string) (metric, labels string, value float64, ok bool) {
	if line == "" || strings.HasPrefix(line, "#") {
		return "", "", 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", "", 0, false
	}
	name := line[:sp]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return "", "", 0, false
		}
		return name[:i], name[i+1 : len(name)-1], v, true
	}
	return name, "", v, true
}

// labelValue extracts one label's value from a rendered label set.
func labelValue(labels, key string) string {
	for _, kv := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// mergeHistograms parses every `metric_bucket` series whose endpoint
// label passes keep and merges their buckets into one histogram (all
// series of one family share bucket bounds by construction).
func mergeHistograms(exposition, metric string, keep func(endpoint string) bool) *promHist {
	byBound := map[float64]uint64{}
	hasInf := false
	var inf uint64
	for _, line := range strings.Split(exposition, "\n") {
		name, labels, v, ok := parseBucketLine(line)
		if !ok || name != metric+"_bucket" || !keep(labelValue(labels, "endpoint")) {
			continue
		}
		le := labelValue(labels, "le")
		if le == "+Inf" {
			inf += uint64(v)
			hasInf = true
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		byBound[bound] += uint64(v)
	}
	if !hasInf {
		return &promHist{}
	}
	h := &promHist{bounds: make([]float64, 0, len(byBound))}
	for b := range byBound {
		h.bounds = append(h.bounds, b)
	}
	sort.Float64s(h.bounds)
	for _, b := range h.bounds {
		h.counts = append(h.counts, byBound[b])
	}
	h.counts = append(h.counts, inf)
	return h
}

// scrapeIngestP99 reads the target's /metrics and returns the server's
// self-reported p99 over the ingest endpoints (events + responses), in
// milliseconds. An error means the endpoint is absent or unreadable —
// the caller decides whether that matters.
func scrapeIngestP99(client *http.Client, target string) (float64, error) {
	resp, err := client.Get(target + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	ingest := func(endpoint string) bool { return endpoint == "events" || endpoint == "response" }
	h := mergeHistograms(string(body), "eyeorg_http_request_seconds", ingest)
	if len(h.counts) == 0 || h.counts[len(h.counts)-1] == 0 {
		return 0, fmt.Errorf("no ingest samples in exposition")
	}
	return h.quantile(0.99) * 1000, nil
}
