// Command loadgen drives the full participant lifecycle — join → video
// fetch → engagement events → responses — against an Eyeorg platform
// server and reports throughput and latency percentiles.
//
// Participants are internal/crowd personas: each session's engagement
// trace and timeline answer come from a simulated participant watching
// the actual video the server returned, so the generated traffic has
// the same shape (diligent majorities, distracted and random-clicking
// tails) as the paper's crowd. Workers fan out through the
// internal/parallel pool.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -duration 10s -concurrency 16
//	loadgen -selftest -duration 2s            # in-process smoke run
//	loadgen -selftest -duration 10s -watch 2s # live §4.3 analytics feed
//	loadgen -selftest -cluster -fsync -duration 5s  # 3-node cluster behind the router
//
// With -selftest the target server runs in-process (optionally
// persisted with -data-dir, fsynced with -fsync, group-committed with
// -group-commit), so the command doubles as a CI smoke check: it exits
// non-zero when sessions fail or nothing completes. -max-inflight and
// -worker-rate put the selftest server behind admission control; the
// generator retries 429s (they count as "throttled", not errors) and
// fails the run if any 429 arrives without a Retry-After header. With
// -expect-throttle the run additionally fails unless it saw at least
// one 429 — the CI proof that a saturated in-flight cap answers
// 429 + Retry-After. After every run the generator scrapes the
// server's /metrics and logs the self-reported ingest p99 next to the
// client-observed one.
//
// With -selftest -cluster the in-process target is a 3-node cluster
// behind the campaign router instead of a single server: every node is
// opened from the same server flags over its own directory under
// -data-dir (so -max-inflight and -worker-rate cap each node),
// campaigns spread across nodes by consistent hash until each owns at
// least one, and every request travels through the router's ownership
// resolution. The same generator drives the deployed topology —
// eyeorg-router in front of eyeorg-server -node-id processes — with
// -addr pointed at the router.
//
// -log-format text|json selects the log/slog handler every line goes
// through, mirroring the server's flag.
//
// With -watch the generator polls the campaign's live quality-analytics
// endpoint (GET /campaigns/{id}/analytics) on the given interval and
// logs the incremental §4.3 verdict counts — the operator's view of
// participant trustworthiness while the campaign is still running.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/cluster"
	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/parallel"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/webpeg"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// logger carries every generator line through log/slog, matching the
// server's structured logging. The default (used by tests that drive
// the generator directly) is the text handler; main replaces it per
// -log-format. logf/fatalf keep the pre-formatted report lines —
// throughput tables, percentile rows — as the msg field rather than
// exploding them into attrs: their consumers are humans and greppers,
// and the JSON handler still wraps them in a parseable envelope.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func logf(format string, args ...any) {
	logger.Info(fmt.Sprintf(format, args...))
}

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// config is the parsed command line. server is what the -selftest
// target is opened from: the single server as it stands, each cluster
// node with its own data directory under -data-dir. load is the run,
// less what seeding fills in.
type config struct {
	addr, logFormat                  string
	selftest, clustered, expectThrot bool
	videos                           int
	server                           platform.Options
	load                             loadConfig
}

// newFlags declares the command line. README.md tabulates it, and
// TestDocsFlagsRegistered holds the two together.
func newFlags() (*flag.FlagSet, *config) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	c := &config{}
	fs.StringVar(&c.addr, "addr", "http://localhost:8080", "target server base URL")
	fs.BoolVar(&c.selftest, "selftest", false, "run against an in-process server")
	fs.BoolVar(&c.clustered, "cluster", false, "with -selftest: drive an in-process 3-node cluster through the campaign router instead of a single server")
	fs.StringVar(&c.server.DataDir, "data-dir", "", "persistence dir for the -selftest server (default in-memory)")
	fs.BoolVar(&c.server.Fsync, "fsync", false, "fsync the -selftest server's journal before acking mutations")
	fs.BoolVar(&c.server.GroupCommit, "group-commit", false, "group-commit the -selftest server's journal")
	fs.StringVar(&c.load.kind, "kind", "timeline", "campaign kind: timeline|ab")
	fs.IntVar(&c.videos, "videos", 4, "videos to capture and upload")
	fs.IntVar(&c.load.concurrency, "concurrency", 8, "concurrent workers")
	fs.DurationVar(&c.load.duration, "duration", 10*time.Second, "how long to generate load")
	fs.Int64Var(&c.load.maxSessions, "sessions", 0, "stop after this many sessions (0 = duration only)")
	fs.Int64Var(&c.load.seed, "seed", 1, "persona and site-corpus seed")
	fs.DurationVar(&c.load.watch, "watch", 0, "poll live quality analytics on this interval (0 = off)")
	fs.BoolVar(&c.load.binary, "binary", false, "buffer each session's events and flush them as one EYB1 binary batch")
	fs.IntVar(&c.server.MaxInFlight, "max-inflight", 0, "global in-flight request cap for the -selftest server (0 = unlimited)")
	fs.Float64Var(&c.server.WorkerRate, "worker-rate", 0, "per-session req/s cap for the -selftest server (0 = unlimited)")
	fs.BoolVar(&c.expectThrot, "expect-throttle", false, "fail unless the run saw admission-control 429s (saturation selftest)")
	fs.StringVar(&c.logFormat, "log-format", "text", "log output format: text|json")
	return fs, c
}

func main() {
	fs, c := newFlags()
	fs.Parse(os.Args[1:]) // ExitOnError: a bad command line never returns
	l, err := newLogger(c.logFormat)
	if err != nil {
		fatalf("%v", err)
	}
	logger = l

	payloads := capturePayloads(c.load.seed, c.videos)

	target := c.addr
	var coverage func() bool
	if c.selftest && c.clustered {
		dir := c.server.DataDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "eyeorg-cluster-*")
			if err != nil {
				fatalf("cluster data dir: %v", err)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		cl, err := cluster.New(cluster.Config{Nodes: clusterMembers, Dir: dir, Node: c.server})
		if err != nil {
			fatalf("selftest cluster: %v", err)
		}
		defer cl.Close()
		coverage = clusterCoverage(cl, clusterMembers)
		ts := httptest.NewServer(cl.Handler())
		defer ts.Close()
		target = ts.URL
		logf("selftest cluster on %s (nodes=%v, dir=%q, fsync=%v, group-commit=%v)",
			target, clusterMembers, dir, c.server.Fsync, c.server.GroupCommit)
	} else if c.selftest {
		srv, err := platform.Open(c.server)
		if err != nil {
			fatalf("selftest server: %v", err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		target = ts.URL
		logf("selftest server on %s (data-dir=%q, fsync=%v, group-commit=%v, max-inflight=%d, worker-rate=%g)",
			target, c.server.DataDir, c.server.Fsync, c.server.GroupCommit, c.server.MaxInFlight, c.server.WorkerRate)
	}

	client := newHTTPClient(c.load.concurrency)
	minCampaigns := 1
	if coverage != nil {
		minCampaigns = len(clusterMembers)
	}
	campaigns, videoIDs, allPayloads, err := seedCampaignSet(client, target, c.load.kind, payloads, minCampaigns, coverage, clusterSeedCap)
	if err != nil {
		fatalf("seeding campaigns: %v", err)
	}
	logf("campaigns %v (%s): %d videos each, %d workers, %v", campaigns, c.load.kind, len(payloads), c.load.concurrency, c.load.duration)

	c.load.client, c.load.target, c.load.campaigns = client, target, campaigns
	c.load.payloads, c.load.videoIDs = allPayloads, videoIDs
	agg, elapsed := runLoad(c.load)
	report(agg, elapsed)
	for _, campaign := range campaigns {
		reportResults(client, target, campaign)
		reportAnalytics(client, target, campaign)
	}
	if !c.clustered {
		// The router's /metrics carries routing counters, not the nodes'
		// ingest histograms, so the p99 cross-check only applies to a
		// single-server target.
		reportServerMetrics(client, target, agg)
	}
	if agg.errors > 0 || agg.sessions == 0 {
		os.Exit(1)
	}
	if agg.badThrottle > 0 {
		logf("FAIL: %d 429 responses arrived without a Retry-After header", agg.badThrottle)
		os.Exit(1)
	}
	if c.expectThrot {
		// Open-loop load on a small host may never pile enough truly
		// concurrent requests to trip the cap (handlers that never block
		// finish one at a time on one core), so the selftest saturates
		// the cap deterministically: pin every in-flight slot with a
		// request whose body never finishes arriving, then demand 429 +
		// Retry-After.
		if c.selftest && !c.clustered && c.server.MaxInFlight > 0 {
			if err := throttleProbe(client, target, c.server.MaxInFlight); err != nil {
				logf("FAIL: throttle probe: %v", err)
				os.Exit(1)
			}
			logf("throttle probe: %d pinned in-flight slots → 429 with Retry-After", c.server.MaxInFlight)
		} else if agg.throttled == 0 {
			logf("FAIL: -expect-throttle set but the run saw no admission-control 429s")
			os.Exit(1)
		}
	}
}

// throttleProbe pins `slots` in-flight requests (their JSON bodies
// stay incomplete, parking each handler in its decoder) and verifies
// the next request bounces with 429 + Retry-After, then releases the
// pins. This is the deterministic proof of the saturated-cap contract,
// independent of how much concurrency the host musters.
func throttleProbe(client *http.Client, target string, slots int) error {
	type pin struct {
		w    *io.PipeWriter
		done chan error
	}
	pins := make([]pin, 0, slots)
	defer func() {
		for _, p := range pins {
			p.w.Close()
			<-p.done
		}
	}()
	for i := 0; i < slots; i++ {
		pr, pw := io.Pipe()
		req, err := http.NewRequest("POST", target+"/api/v1/sessions", pr)
		if err != nil {
			return err
		}
		done := make(chan error, 1)
		go func() {
			resp, err := client.Do(req)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- err
		}()
		// A partial body admits the request and parks it in readJSON.
		if _, err := pw.Write([]byte(`{"campaign":`)); err != nil {
			return err
		}
		pins = append(pins, pin{pw, done})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, hdr, err := doJSON(client, "GET", target+"/api/v1/campaigns/none/results", nil, nil)
		if err != nil {
			return err
		}
		if status == http.StatusTooManyRequests {
			if hdr.Get("Retry-After") == "" {
				return fmt.Errorf("429 without Retry-After")
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no 429 with every in-flight slot pinned (last status %d)", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reportServerMetrics cross-checks the server's self-reported ingest
// p99 (scraped from /metrics) against the client-observed one. A target
// that serves no /metrics (something other than eyeorg-server behind
// -addr) is not an error.
func reportServerMetrics(client *http.Client, target string, agg *aggregate) {
	serverP99, err := scrapeIngestP99(client, target)
	if err != nil {
		logf("metrics scrape: %v", err)
		return
	}
	var ingest []time.Duration
	ingest = append(ingest, agg.byEndpoint["events"]...)
	ingest = append(ingest, agg.byEndpoint["response"]...)
	sort.Slice(ingest, func(i, j int) bool { return ingest[i] < ingest[j] })
	logf("metrics: server-reported ingest p99 %.2fms vs client-observed %s",
		serverP99, fms(pct(ingest, 0.99)))
}

// newHTTPClient sizes the connection pool for n concurrent workers.
func newHTTPClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        n * 2,
		MaxIdleConnsPerHost: n * 2,
	}}
}

// loadConfig parameterizes one generation run.
type loadConfig struct {
	client *http.Client
	target string
	// campaigns are the campaigns the run drives; workers partition over
	// them round-robin. A single-campaign run passes a one-element slice;
	// the cluster runs spread several so every node owns live traffic.
	campaigns   []string
	kind        string
	concurrency int
	duration    time.Duration
	maxSessions int64
	seed        int64
	watch       time.Duration
	// binary flushes each session's buffered events as one EYB1 batch
	// POST instead of per-interaction JSON posts — the real client's
	// wire mode.
	binary bool
	// videoIDs/payloads (index-aligned, from seedCampaign) let the run
	// pre-decode every video before the clock starts; without them the
	// first session to fetch each video decodes it inline, a hundreds-
	// of-milliseconds CPU burst that starves concurrent requests and
	// used to surface as a absurd join p99 on an in-memory server.
	videoIDs []string
	payloads [][]byte
}

// runLoad fans the persona lifecycle out over the worker pool and
// returns the merged stats plus the wall-clock time.
func runLoad(cfg loadConfig) (*aggregate, time.Duration) {
	g := &generator{
		client:    cfg.client,
		target:    cfg.target,
		campaigns: cfg.campaigns,
		kind:      cfg.kind,
		binary:    cfg.binary,
		max:       cfg.maxSessions,
	}
	if len(cfg.videoIDs) == len(cfg.payloads) {
		// Multi-campaign runs upload the same payload set per campaign, so
		// memoize decodes by payload identity instead of decoding the same
		// frames once per campaign copy.
		byPayload := map[*byte]*decodedVideo{}
		for i, id := range cfg.videoIDs {
			p := cfg.payloads[i]
			if len(p) == 0 {
				fatalf("pre-decoding video %s: empty payload", id)
			}
			dv, ok := byPayload[&p[0]]
			if !ok {
				v, err := video.Decode(p)
				if err != nil {
					fatalf("pre-decoding video %s: %v", id, err)
				}
				dv = &decodedVideo{v: v, curves: metrics.Curves(v, nil)}
				byPayload[&p[0]] = dv
			}
			g.decoded.Store(id, dv)
		}
	}
	// Personas partition per worker: each worker owns a slice of the
	// population, so persona RNG state is never shared across
	// goroutines.
	perWorker := 32
	pop := crowd.NewPopulation(rng.New(cfg.seed), crowd.PopulationConfig{Class: crowd.Paid, N: cfg.concurrency * perWorker})

	stopWatch := make(chan struct{})
	var watchDone sync.WaitGroup
	if cfg.watch > 0 {
		for _, campaign := range cfg.campaigns {
			watchDone.Add(1)
			go func(campaign string) {
				defer watchDone.Done()
				watchAnalytics(cfg.client, cfg.target, campaign, cfg.watch, stopWatch)
			}(campaign)
		}
	}

	start := time.Now()
	g.deadline = start.Add(cfg.duration)
	stats, err := parallel.Map(cfg.concurrency, cfg.concurrency, func(i int) (*workerStats, error) {
		return g.run(i, pop[i*perWorker:(i+1)*perWorker]), nil
	})
	close(stopWatch)
	watchDone.Wait()
	if err != nil {
		fatalf("worker pool: %v", err)
	}
	return merge(stats), time.Since(start)
}

// capturePayloads builds EYV1 video payloads by capturing a synthetic
// site corpus with webpeg.
func capturePayloads(seed int64, n int) [][]byte {
	pages := sitegen.Generate(sitegen.Config{Seed: seed, Sites: n, AdShare: 0.5, ComplexityScale: 1})
	payloads := make([][]byte, 0, n)
	for _, page := range pages {
		cap, err := webpeg.CaptureSite(page, webpeg.Config{Seed: seed, Loads: 3})
		if err != nil {
			fatalf("capturing %s: %v", page.URL, err)
		}
		payloads = append(payloads, video.Encode(cap.Video))
	}
	return payloads
}

// seedCampaign creates the campaign, uploads the payloads, and returns
// the campaign ID plus the server-assigned video IDs (index-aligned
// with payloads), so callers can pre-decode or target videos directly.
func seedCampaign(client *http.Client, target, kind string, payloads [][]byte) (string, []string, error) {
	var created platform.CreateCampaignResponse
	body := fmt.Sprintf(`{"name":"loadgen","kind":%q}`, kind)
	if _, _, err := doJSON(client, "POST", target+"/api/v1/campaigns", []byte(body), &created); err != nil {
		return "", nil, err
	}
	ids := make([]string, 0, len(payloads))
	for i, p := range payloads {
		var added platform.AddVideoResponse
		if _, _, err := doJSON(client, "POST", target+"/api/v1/campaigns/"+created.ID+"/videos", p, &added); err != nil {
			return "", nil, fmt.Errorf("video %d: %w", i, err)
		}
		ids = append(ids, added.ID)
	}
	return created.ID, ids, nil
}

// clusterMembers is the node set -cluster brings up: three nodes, so
// campaigns partition over more than a pair.
var clusterMembers = []string{"a", "b", "c"}

// clusterSeedCap bounds how many campaigns seedCampaignSet mints while
// chasing a placement goal; the ring spreads router-minted IDs well
// enough that coverage arrives long before this.
const clusterSeedCap = 24

// clusterCoverage reports whether every cluster member owns at least
// one campaign — the placement goal that makes a scale-out run
// exercise all nodes instead of whichever the first IDs hashed to.
func clusterCoverage(cl *cluster.Cluster, members []string) func() bool {
	return func() bool {
		for _, id := range members {
			if len(cl.Node(id).Server().CampaignIDs()) == 0 {
				return false
			}
		}
		return true
	}
}

// seedCampaignSet seeds at least n campaigns, each carrying the full
// payload set, and returns the campaign IDs plus index-aligned video
// IDs and payloads for pre-decoding. With covered non-nil it keeps
// seeding past n until covered() reports the placement goal is met,
// failing at max.
func seedCampaignSet(client *http.Client, target, kind string, payloads [][]byte, n int, covered func() bool, max int) ([]string, []string, [][]byte, error) {
	var campaigns, videoIDs []string
	var all [][]byte
	for len(campaigns) < n || (covered != nil && !covered()) {
		if len(campaigns) >= max {
			return nil, nil, nil, fmt.Errorf("campaign placement goal unmet after %d campaigns", len(campaigns))
		}
		c, ids, err := seedCampaign(client, target, kind, payloads)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("campaign %d: %w", len(campaigns), err)
		}
		campaigns = append(campaigns, c)
		videoIDs = append(videoIDs, ids...)
		all = append(all, payloads...)
	}
	return campaigns, videoIDs, all, nil
}

// --- load generation ---

type generator struct {
	client *http.Client
	target string
	// campaigns partition over workers round-robin: worker w drives
	// campaigns[w%len] for its whole run.
	campaigns []string
	kind      string
	binary    bool
	deadline  time.Time
	max       int64

	sessionNo atomic.Int64
	// decoded caches per-video decoded frames + perceptual curves so
	// personas answer from the frames the server actually served
	// without re-decoding on every session.
	decoded sync.Map // video ID -> *decodedVideo
}

type decodedVideo struct {
	v      *video.Video
	curves metrics.PerceptualCurves
}

type workerStats struct {
	sessions  int64
	completed int64
	errors    int64
	// throttled counts admission-control 429s (retried, not errors);
	// badThrottle counts 429s missing the Retry-After header, a
	// protocol violation that fails the run.
	throttled   int64
	badThrottle int64
	lat         map[string][]time.Duration
}

func newWorkerStats() *workerStats {
	return &workerStats{lat: map[string][]time.Duration{}}
}

func (g *generator) run(worker int, personas []*crowd.Participant) *workerStats {
	st := newWorkerStats()
	campaign := g.campaigns[worker%len(g.campaigns)]
	for i := 0; ; i++ {
		if time.Now().After(g.deadline) {
			return st
		}
		n := g.sessionNo.Add(1)
		if g.max > 0 && n > g.max {
			return st
		}
		st.sessions++
		p := personas[i%len(personas)]
		if err := g.session(st, campaign, fmt.Sprintf("lg-w%d-s%d", worker, n), p); err != nil {
			st.errors++
		} else {
			st.completed++
		}
	}
}

// session drives one participant through the full lifecycle against
// one campaign.
func (g *generator) session(st *workerStats, campaign, workerID string, p *crowd.Participant) error {
	joinBody := fmt.Sprintf(
		`{"campaign":%q,"worker":{"id":%q,"gender":%q,"country":%q,"source":"loadgen"},"captcha":"loadgen"}`,
		campaign, workerID, p.Gender, p.Country)
	var jr platform.JoinResponse
	if err := g.call(st, "join", "POST", g.target+"/api/v1/sessions", []byte(joinBody), &jr); err != nil {
		return err
	}
	if err := g.call(st, "tests", "GET", g.target+"/api/v1/sessions/"+jr.Session+"/tests", nil, nil); err != nil {
		return err
	}
	instr := platform.EventBatch{InstructionMs: ms(p.InstructionTime())}
	eventsURL := g.target + "/api/v1/sessions/" + jr.Session + "/events"
	if g.binary {
		// Wire mode mirrors the real client's buffering: every
		// interaction accumulates locally and the whole session flushes
		// as one EYB1 batch before the answers go up.
		recs := platform.AppendWireRecords(nil, instr)
		resps := make([]platform.ResponseBody, 0, len(jr.Tests))
		for _, tt := range jr.Tests {
			dv, err := g.fetchVideo(st, tt.VideoID)
			if err != nil {
				return err
			}
			batch, resp := g.answer(p, tt, dv)
			recs = platform.AppendWireRecords(recs, batch)
			resps = append(resps, resp)
		}
		if err := g.postWire(st, "events", eventsURL, wire.AppendBatch(nil, recs)); err != nil {
			return err
		}
		for _, resp := range resps {
			if err := g.postJSON(st, "response", g.target+"/api/v1/sessions/"+jr.Session+"/responses", resp); err != nil {
				return err
			}
		}
		return nil
	}
	if err := g.postJSON(st, "events", eventsURL, instr); err != nil {
		return err
	}
	for _, tt := range jr.Tests {
		dv, err := g.fetchVideo(st, tt.VideoID)
		if err != nil {
			return err
		}
		batch, resp := g.answer(p, tt, dv)
		if err := g.postJSON(st, "events", eventsURL, batch); err != nil {
			return err
		}
		if err := g.postJSON(st, "response", g.target+"/api/v1/sessions/"+jr.Session+"/responses", resp); err != nil {
			return err
		}
	}
	return nil
}

// answer produces the persona's engagement batch and answer for one
// test. Timeline answers run the full perception model; A/B tests use
// fixed valid choices (the A/B splice is not served per side here).
func (g *generator) answer(p *crowd.Participant, tt platform.AssignedTest, dv *decodedVideo) (platform.EventBatch, platform.ResponseBody) {
	if g.kind == "ab" {
		choice := "left"
		if tt.Control {
			choice = "no difference" // not the delayed side: passes
		}
		return platform.EventBatch{
				VideoID: tt.VideoID, TimeOnVideoMs: 7000, Plays: 1, WatchedFraction: 1,
			}, platform.ResponseBody{
				TestID: tt.TestID, Choice: choice,
			}
	}
	test := &survey.TimelineTest{VideoID: tt.VideoID, Video: dv.v, Control: tt.Control}
	ans := p.AnswerTimeline(test, dv.curves)
	tr := ans.Trace
	batch := platform.EventBatch{
		VideoID:         tt.VideoID,
		LoadMs:          ms(tr.LoadTime),
		TimeOnVideoMs:   ms(tr.TimeOnVideo),
		Plays:           tr.Plays,
		Pauses:          tr.Pauses,
		Seeks:           tr.Seeks,
		WatchedFraction: tr.WatchedFraction,
		OutOfFocusMs:    ms(tr.OutOfFocus),
	}
	resp := platform.ResponseBody{
		TestID:         tt.TestID,
		SliderMs:       ms(ans.Slider),
		HelperMs:       ms(ans.Helper),
		SubmittedMs:    ms(ans.Submitted),
		AcceptedHelper: ans.AcceptedHelper,
		KeptOriginal:   !ans.AcceptedHelper,
	}
	return batch, resp
}

func (g *generator) fetchVideo(st *workerStats, id string) (*decodedVideo, error) {
	// The video endpoint sits behind the same admission cap as every
	// route, so 429s here get the same treatment as in call(): count,
	// back off briefly, retry.
	var raw []byte
	for attempt := 0; ; attempt++ {
		start := time.Now()
		resp, err := g.client.Get(g.target + "/api/v1/videos/" + id)
		if err != nil {
			return nil, err
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		st.lat["video"] = append(st.lat["video"], time.Since(start))
		if rerr != nil {
			return nil, rerr
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			st.throttled++
			if resp.Header.Get("Retry-After") == "" {
				st.badThrottle++
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("video %s: status %d", id, resp.StatusCode)
		}
		raw = body
		break
	}
	if dv, ok := g.decoded.Load(id); ok {
		return dv.(*decodedVideo), nil
	}
	v, err := video.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("video %s: %w", id, err)
	}
	dv := &decodedVideo{v: v, curves: metrics.Curves(v, nil)}
	actual, _ := g.decoded.LoadOrStore(id, dv)
	return actual.(*decodedVideo), nil
}

// call makes one API request, transparently retrying admission-control
// 429s: backpressure is the server working as designed, not a failed
// session. A 429 must carry Retry-After — a missing header is counted
// as a contract violation (badThrottle) and fails the run. The backoff
// is deliberately shorter than the header's advice so a saturated
// selftest keeps pressure on the cap instead of politely idling.
func (g *generator) call(st *workerStats, name, method, url string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		start := time.Now()
		status, hdr, err := doJSON(g.client, method, url, body, out)
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
		if status < 200 || status >= 300 {
			return fmt.Errorf("%s: status %d", name, status)
		}
		return nil
	}
}

func (g *generator) postJSON(st *workerStats, name, url string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return g.call(st, name, "POST", url, body, nil)
}

// postWire POSTs one EYB1 batch, with the same 429 retry contract as
// call().
func (g *generator) postWire(st *workerStats, name, url string, payload []byte) error {
	for attempt := 0; ; attempt++ {
		start := time.Now()
		req, err := http.NewRequest("POST", url, bytes.NewReader(payload))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", wire.ContentType)
		resp, err := g.client.Do(req)
		st.lat[name] = append(st.lat[name], time.Since(start))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			st.throttled++
			if resp.Header.Get("Retry-After") == "" {
				st.badThrottle++
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if resp.StatusCode < 200 || resp.StatusCode >= 300 {
			return fmt.Errorf("%s: status %d (binary batch)", name, resp.StatusCode)
		}
		return nil
	}
}

// --- plumbing ---

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
	if out != nil {
		return resp.StatusCode, resp.Header, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- reporting ---

type aggregate struct {
	sessions, completed, errors int64
	throttled, badThrottle      int64
	requests                    int
	all                         []time.Duration
	byEndpoint                  map[string][]time.Duration
}

func merge(stats []*workerStats) *aggregate {
	agg := &aggregate{byEndpoint: map[string][]time.Duration{}}
	for _, st := range stats {
		if st == nil {
			continue
		}
		agg.sessions += st.sessions
		agg.completed += st.completed
		agg.errors += st.errors
		agg.throttled += st.throttled
		agg.badThrottle += st.badThrottle
		for name, lat := range st.lat {
			agg.byEndpoint[name] = append(agg.byEndpoint[name], lat...)
			agg.all = append(agg.all, lat...)
			agg.requests += len(lat)
		}
	}
	sort.Slice(agg.all, func(i, j int) bool { return agg.all[i] < agg.all[j] })
	for _, lat := range agg.byEndpoint {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	}
	return agg
}

// pct indexes a sorted latency slice at quantile q in [0,1].
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func report(agg *aggregate, elapsed time.Duration) {
	secs := elapsed.Seconds()
	logf("%d sessions (%d completed), %d requests, %d errors, %d throttled in %.2fs",
		agg.sessions, agg.completed, agg.requests, agg.errors, agg.throttled, secs)
	logf("%.1f sessions/s, %.1f req/s", float64(agg.completed)/secs, float64(agg.requests)/secs)
	logf("latency p50=%s p90=%s p99=%s max=%s",
		fms(pct(agg.all, 0.50)), fms(pct(agg.all, 0.90)), fms(pct(agg.all, 0.99)), fms(pct(agg.all, 1.0)))
	names := make([]string, 0, len(agg.byEndpoint))
	for name := range agg.byEndpoint {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lat := agg.byEndpoint[name]
		logf("  %-9s n=%-6d p50=%-9s p99=%s", name, len(lat), fms(pct(lat, 0.50)), fms(pct(lat, 0.99)))
	}
}

func reportResults(client *http.Client, target, campaign string) {
	var res platform.ResultsResponse
	if _, _, err := doJSON(client, "GET", target+"/api/v1/campaigns/"+campaign+"/results", nil, &res); err != nil {
		logf("results: %v", err)
		return
	}
	logf("results: participants=%d kept=%d engagement=%d soft=%d control=%d",
		res.Participants, res.Kept, res.Engagement, res.Soft, res.Control)
}

// fetchAnalytics pulls the campaign's live quality analytics.
func fetchAnalytics(client *http.Client, target, campaign string) (platform.AnalyticsResponse, error) {
	var ar platform.AnalyticsResponse
	status, _, err := doJSON(client, "GET", target+"/api/v1/campaigns/"+campaign+"/analytics", nil, &ar)
	if err != nil {
		return ar, err
	}
	if status != http.StatusOK {
		return ar, fmt.Errorf("status %d", status)
	}
	return ar, nil
}

func analyticsLine(ar platform.AnalyticsResponse) string {
	s := ar.Summary
	line := fmt.Sprintf("sessions=%d completed=%d kept=%d seeks=%d focus=%d soft=%d control=%d videos=%d",
		ar.Sessions, ar.Completed, s.Kept, s.EngagementSeeks, s.EngagementFocus, s.Soft, s.Control, len(ar.PerVideo))
	// Adaptive servers report the stopper's progress: how many videos
	// have resolved to the target half-width, and whether the campaign
	// has closed to new joins.
	if st := ar.Stopping; st != nil {
		line += fmt.Sprintf(" resolved=%d/%d closed=%v", st.Resolved, st.Total, st.Closed)
	}
	return line
}

// watchAnalytics polls the live §4.3 verdicts until stop closes: the
// in-loop quality feedback an operator watches mid-campaign.
func watchAnalytics(client *http.Client, target, campaign string, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			ar, err := fetchAnalytics(client, target, campaign)
			if err != nil {
				logf("watch: %v", err)
				continue
			}
			logf("watch: %s", analyticsLine(ar))
		}
	}
}

func reportAnalytics(client *http.Client, target, campaign string) {
	ar, err := fetchAnalytics(client, target, campaign)
	if err != nil {
		logf("analytics: %v", err)
		return
	}
	logf("analytics: %s", analyticsLine(ar))
}
