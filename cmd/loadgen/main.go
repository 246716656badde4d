// Command loadgen drives the full participant lifecycle — join → video
// fetch → engagement events → responses — against a running Eyeorg
// platform server, or a campaign router in front of cluster nodes, and
// reports throughput and latency percentiles. Participants are
// internal/crowd personas answering from the videos the server serves,
// so the traffic has the shape of the paper's crowd; workers fan out
// through the internal/parallel pool.
//
//	loadgen -addr http://localhost:8080 -duration 10s -concurrency 16 -watch 2s
//
// The run fails (exit status 1) when a 429 arrives without a
// Retry-After header, when a session fails, or when none completes.
// -watch logs the campaign's live §4.3 verdict counts on an interval.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/parallel"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// config is the parsed command line.
type config struct {
	addr                string
	videos, concurrency int
	duration, watch     time.Duration
	seed                int64
}

// newFlags declares the command line. README.md tabulates it, and
// TestDocsFlagsRegistered holds the two together.
func newFlags() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	c := &config{}
	fs.StringVar(&c.addr, "addr", "http://localhost:8080", "target server or router base URL")
	fs.IntVar(&c.videos, "videos", 4, "videos to capture and upload")
	fs.IntVar(&c.concurrency, "concurrency", 8, "concurrent workers")
	fs.DurationVar(&c.duration, "duration", 10*time.Second, "how long to generate load")
	fs.Int64Var(&c.seed, "seed", 1, "persona and site-corpus seed")
	fs.DurationVar(&c.watch, "watch", 0, "poll live quality analytics on this interval (0 = off)")
	return fs, c
}

func main() {
	fs, c := newFlags()
	fs.Parse(os.Args[1:]) // ExitOnError: a bad command line never returns
	if err := run(c); err != nil {
		log.Fatalf("FAIL: %v", err)
	}
}

// run seeds one campaign on the target, drives it for the configured
// duration, logs the report, and returns why the run failed, if it did.
func run(c *config) error {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        c.concurrency * 2,
		MaxIdleConnsPerHost: c.concurrency * 2,
	}}
	g := &generator{client: client, target: c.addr}
	if err := g.seedCampaign(c.seed, c.videos); err != nil {
		return fmt.Errorf("seeding the campaign: %w", err)
	}
	log.Printf("campaign %s: %d videos, %d workers, %v", g.campaign, len(g.decoded), c.concurrency, c.duration)
	st, elapsed := g.runLoad(c)
	st.report(elapsed)
	var res platform.ResultsResponse
	if err := fetch(client, "GET", c.addr+"/api/v1/campaigns/"+g.campaign+"/results", nil, &res); err != nil {
		log.Printf("results: %v", err)
	} else {
		log.Printf("results: participants=%d kept=%d engagement=%d soft=%d control=%d",
			res.Participants, res.Kept, res.Engagement, res.Soft, res.Control)
	}
	g.logAnalytics("analytics")
	return st.failure()
}

type generator struct {
	client           *http.Client
	target, campaign string
	// decoded holds each uploaded video's frames and perceptual curves
	// under the ID the server gave it, so personas answer from what the
	// server serves without decoding per session. Read-only in the run.
	decoded  map[string]*decodedVideo
	deadline time.Time
}

type decodedVideo struct {
	v      *video.Video
	curves metrics.PerceptualCurves
}

// seedCampaign creates a timeline campaign and uploads to it the webpeg
// captures of n synthetic sites. Decoding each upload here, before the
// clock starts, keeps a hundreds-of-milliseconds CPU burst per video out
// of the measured requests.
func (g *generator) seedCampaign(seed int64, n int) error {
	var created platform.CreateCampaignResponse
	if err := fetch(g.client, "POST", g.target+"/api/v1/campaigns", []byte(`{"name":"loadgen","kind":"timeline"}`), &created); err != nil {
		return err
	}
	g.campaign, g.decoded = created.ID, make(map[string]*decodedVideo, n)
	for _, page := range sitegen.Generate(sitegen.Config{Seed: seed, Sites: n, AdShare: 0.5, ComplexityScale: 1}) {
		cap, err := webpeg.CaptureSite(page, webpeg.Config{Seed: seed, Loads: 3})
		if err != nil {
			return fmt.Errorf("capturing %s: %w", page.URL, err)
		}
		payload := video.Encode(cap.Video)
		var added platform.AddVideoResponse
		if err := fetch(g.client, "POST", g.target+"/api/v1/campaigns/"+created.ID+"/videos", payload, &added); err != nil {
			return fmt.Errorf("uploading %s: %w", page.URL, err)
		}
		v, err := video.Decode(payload)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", page.URL, err)
		}
		g.decoded[added.ID] = &decodedVideo{v: v, curves: metrics.Curves(v, nil)}
	}
	return nil
}

// runLoad fans the persona lifecycle out over the worker pool, with the
// -watch poller beside it, and returns the merged stats plus the
// wall-clock time.
func (g *generator) runLoad(c *config) (*stats, time.Duration) {
	// Each worker owns a slice of the population, so persona RNG state is
	// never shared across goroutines.
	const perWorker = 32
	pop := crowd.NewPopulation(rng.New(c.seed), crowd.PopulationConfig{Class: crowd.Paid, N: c.concurrency * perWorker})
	start := time.Now()
	g.deadline = start.Add(c.duration)
	done := make(chan []*stats)
	go func() {
		// work returns no error, so neither does Map.
		st, _ := parallel.Map(c.concurrency, c.concurrency, func(i int) (*stats, error) {
			return g.work(i, pop[i*perWorker:(i+1)*perWorker]), nil
		})
		done <- st
	}()
	var tick <-chan time.Time // nil, so never ready, without -watch
	if c.watch > 0 {
		t := time.NewTicker(c.watch)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case st := <-done:
			return merge(st), time.Since(start)
		case <-tick:
			g.logAnalytics("watch")
		}
	}
}

// work runs sessions back to back until the deadline.
func (g *generator) work(worker int, personas []*crowd.Participant) *stats {
	st := &stats{lat: map[string][]time.Duration{}}
	for i := 0; time.Now().Before(g.deadline); i++ {
		st.sessions++
		if err := g.session(st, fmt.Sprintf("lg-w%d-s%d", worker, i), personas[i%len(personas)]); err != nil {
			st.errors++
		} else {
			st.completed++
		}
	}
	return st
}

// session drives one participant through the full lifecycle.
func (g *generator) session(st *stats, workerID string, p *crowd.Participant) error {
	joinBody := fmt.Sprintf(
		`{"campaign":%q,"worker":{"id":%q,"gender":%q,"country":%q,"source":"loadgen"},"captcha":"loadgen"}`,
		g.campaign, workerID, p.Gender, p.Country)
	var jr platform.JoinResponse
	if err := g.call(st, "join", "POST", "/api/v1/sessions", []byte(joinBody), &jr); err != nil {
		return err
	}
	session := "/api/v1/sessions/" + jr.Session
	if err := g.call(st, "tests", "GET", session+"/tests", nil, nil); err != nil {
		return err
	}
	if err := g.post(st, "events", session+"/events", platform.EventBatch{InstructionMs: ms(p.InstructionTime())}); err != nil {
		return err
	}
	for _, tt := range jr.Tests {
		if err := g.call(st, "video", "GET", "/api/v1/videos/"+tt.VideoID, nil, nil); err != nil {
			return err
		}
		dv, ok := g.decoded[tt.VideoID]
		if !ok {
			return fmt.Errorf("assigned video %s is not one this run uploaded", tt.VideoID)
		}
		ans := p.AnswerTimeline(&survey.TimelineTest{VideoID: tt.VideoID, Video: dv.v, Control: tt.Control}, dv.curves)
		tr := ans.Trace
		if err := g.post(st, "events", session+"/events", platform.EventBatch{
			VideoID:         tt.VideoID,
			LoadMs:          ms(tr.LoadTime),
			TimeOnVideoMs:   ms(tr.TimeOnVideo),
			Plays:           tr.Plays,
			Pauses:          tr.Pauses,
			Seeks:           tr.Seeks,
			WatchedFraction: tr.WatchedFraction,
			OutOfFocusMs:    ms(tr.OutOfFocus),
		}); err != nil {
			return err
		}
		if err := g.post(st, "response", session+"/responses", platform.ResponseBody{
			TestID:         tt.TestID,
			SliderMs:       ms(ans.Slider),
			HelperMs:       ms(ans.Helper),
			SubmittedMs:    ms(ans.Submitted),
			AcceptedHelper: ans.AcceptedHelper,
			KeptOriginal:   !ans.AcceptedHelper,
		}); err != nil {
			return err
		}
	}
	return nil
}

// call makes one API request, recording its latency under name, and
// retries admission-control 429s: backpressure is the server working as
// designed, not a failed session. A 429 must carry Retry-After; one
// without it is counted in badThrottle, which fails the run. The
// backoff is deliberately shorter than the header's advice so a
// saturated server keeps seeing pressure.
func (g *generator) call(st *stats, name, method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		start := time.Now()
		status, hdr, err := doJSON(g.client, method, g.target+path, body, out)
		st.lat[name] = append(st.lat[name], time.Since(start))
		if err != nil {
			return err
		}
		if status == http.StatusTooManyRequests && attempt < 100 {
			st.throttled++
			if hdr.Get("Retry-After") == "" {
				st.badThrottle++
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if status/100 != 2 {
			return fmt.Errorf("%s: status %d", name, status)
		}
		return nil
	}
}

func (g *generator) post(st *stats, name, path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return g.call(st, name, "POST", path, body, nil)
}

// logAnalytics logs the campaign's live §4.3 verdict counts under
// prefix: polled mid-campaign by -watch, and once after the run.
func (g *generator) logAnalytics(prefix string) {
	var ar platform.AnalyticsResponse
	if err := fetch(g.client, "GET", g.target+"/api/v1/campaigns/"+g.campaign+"/analytics", nil, &ar); err != nil {
		log.Printf("%s: %v", prefix, err)
		return
	}
	s := ar.Summary
	line := fmt.Sprintf("sessions=%d completed=%d kept=%d seeks=%d focus=%d soft=%d control=%d videos=%d",
		ar.Sessions, ar.Completed, s.Kept, s.EngagementSeeks, s.EngagementFocus, s.Soft, s.Control, len(ar.PerVideo))
	// An adaptive server reports how many videos have resolved to the
	// target half-width, and whether the campaign has closed to joins.
	if sp := ar.Stopping; sp != nil {
		line += fmt.Sprintf(" resolved=%d/%d closed=%v", sp.Resolved, sp.Total, sp.Closed)
	}
	log.Printf("%s: %s", prefix, line)
}

// doJSON sends one request and decodes a 2xx reply into out, when out
// is non-nil; any other reply is read and dropped.
func doJSON(client *http.Client, method, url string, body []byte, out any) (int, http.Header, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		return resp.StatusCode, resp.Header, json.NewDecoder(resp.Body).Decode(out)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header, err
}

// fetch is doJSON for the requests around the measured sessions: any
// status but 2xx is an error.
func fetch(client *http.Client, method, url string, body []byte, out any) error {
	status, _, err := doJSON(client, method, url, body, out)
	if err == nil && status/100 != 2 {
		err = fmt.Errorf("%s %s: status %d", method, url, status)
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stats are one worker's counts and per-endpoint latencies, or, after
// merge, the run's.
type stats struct {
	sessions, completed, errors int64
	// throttled counts admission-control 429s (retried, not errors);
	// badThrottle counts 429s missing the Retry-After header.
	throttled, badThrottle int64
	lat                    map[string][]time.Duration
}

// merge sums the workers' stats.
func merge(workers []*stats) *stats {
	agg := &stats{lat: map[string][]time.Duration{}}
	for _, st := range workers {
		agg.sessions += st.sessions
		agg.completed += st.completed
		agg.errors += st.errors
		agg.throttled += st.throttled
		agg.badThrottle += st.badThrottle
		for name, lat := range st.lat {
			agg.lat[name] = append(agg.lat[name], lat...)
		}
	}
	return agg
}

// failure says why the run fails, or nil when it passes.
func (st *stats) failure() error {
	switch {
	case st.badThrottle > 0:
		return fmt.Errorf("%d 429 responses arrived without a Retry-After header", st.badThrottle)
	case st.errors > 0:
		return fmt.Errorf("%d of %d sessions failed", st.errors, st.sessions)
	case st.completed == 0:
		return fmt.Errorf("no session completed")
	}
	return nil
}

// report logs the run's throughput and latency percentiles, overall and
// per endpoint.
func (st *stats) report(elapsed time.Duration) {
	var all []time.Duration
	names := make([]string, 0, len(st.lat))
	for name, lat := range st.lat {
		slices.Sort(lat)
		all = append(all, lat...)
		names = append(names, name)
	}
	slices.Sort(all)
	slices.Sort(names)
	secs := elapsed.Seconds()
	log.Printf("%d sessions (%d completed), %d requests, %d errors, %d throttled in %.2fs",
		st.sessions, st.completed, len(all), st.errors, st.throttled, secs)
	log.Printf("%.1f sessions/s, %.1f req/s", float64(st.completed)/secs, float64(len(all))/secs)
	log.Printf("latency p50=%s p90=%s p99=%s max=%s", pct(all, 0.50), pct(all, 0.90), pct(all, 0.99), pct(all, 1.0))
	for _, name := range names {
		lat := st.lat[name]
		log.Printf("  %-9s n=%-6d p50=%-9s p99=%s", name, len(lat), pct(lat, 0.50), pct(lat, 0.99))
	}
}

// pct formats a sorted latency slice's quantile q in [0,1] as
// milliseconds.
func pct(sorted []time.Duration, q float64) string {
	var d time.Duration
	if len(sorted) > 0 {
		d = sorted[int(q*float64(len(sorted)-1))]
	}
	return fmt.Sprintf("%.2fms", ms(d))
}
