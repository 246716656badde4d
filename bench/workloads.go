package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform"
)

const (
	segments       = 5 // measured stretches of equal work; a metric is the median of their values
	requestTimeout = 10 * time.Second
	nClients       = 2 // closed-loop clients, one keep-alive connection each
)

// spec is one workload: what it is, why it exists and how much work a
// measured second of it is. unitsPerSecond was calibrated once on the
// seed commit (2 cores) and is frozen: work per segment is
// unitsPerSecond*seconds/segments, never "whatever fits in the time".
type spec struct {
	name string
	why  string
	// unit of fixed work: a participant session (crowd-*), an
	// experimenter cycle (experimenter-poll), a seven-video viewing
	// session (video-delivery).
	unitsPerSecond float64
	durable        bool // has a data directory
	binary         bool // events travel as EYB1 batches
	poll           bool // client 0 is the experimenter
	delivery       bool // video GETs only
	preload        int  // sessions completed during set-up
	videos         int  // delivery: uploads
	frames         int  // delivery: noise frames per upload
	cacheBytes     int64
}

var specs = []spec{
	{
		name:           "crowd-mem",
		why:            "in-memory full lifecycle with JSON events: all cost is request-path CPU (net/http, JSON, apply, quality fold, telemetry); store and the blob file tier are idle",
		unitsPerSecond: 1600,
	},
	{
		name:           "crowd-durable",
		why:            "same crowd over EYB1 batches with fsync + group commit, file video tier that fits the cache, snapshots and reopen: journal, fsync, snapshot and replay do most of the work",
		unitsPerSecond: 220,
		durable:        true,
		binary:         true,
	},
	{
		name:           "experimenter-poll",
		why:            "reads beside writes: one client re-renders /results and /analytics over 6,000 retained sessions after each completion while the other keeps joining, so render cost and retained-session count dominate",
		unitsPerSecond: 40,
		poll:           true,
		preload:        6000,
	},
	{
		name:           "video-delivery",
		why:            "192 videos of 256 KiB against a 16 MiB byte cache, Zipf popularity, full/conditional/Range mix: the working set larger than the cache; ingest, store and quality are idle",
		unitsPerSecond: 1600,
		durable:        true,
		delivery:       true,
		videos:         192,
		frames:         41,
		cacheBytes:     16 << 20,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// plan is a spec sized for one run.
type plan struct {
	spec
	perSegment int  // units of work in each measured segment
	warmup     int  // units in the unrecorded warm-up segment
	smoke      bool // shrunk for the smoke run
}

// sized fixes the work of a run that should measure for about seconds.
// scale shrinks everything for the smoke run.
func (s spec) sized(seconds, scale float64) plan {
	p := plan{spec: s, smoke: scale < 1}
	p.perSegment = int(math.Max(4, math.Round(s.unitsPerSecond*seconds/segments*scale)))
	p.warmup = (p.perSegment + 1) / 2
	p.preload = int(math.Round(float64(s.preload) * scale))
	if s.delivery && scale < 1 {
		// Keep the working set three times the cache at any scale.
		p.videos, p.frames, p.cacheBytes = 24, 8, 24*8*6500/3
	}
	return p
}

// rig is one set-up instance of a workload: the script, a server on a
// loopback listener and the connected clients.
type rig struct {
	plan    plan
	sc      *script
	opts    platform.Options
	srv     *platform.Server
	hs      *http.Server
	handler *timedHandler // what hs serves
	served  chan error
	dir     string
	clients []*client
	conns   []*sockConn
	// participant numbers the sessions of the whole run, so every
	// session carries a distinct worker; units numbers the work units.
	participant atomic.Int64
	units       int64
	completed   int // sessions the driver completed, preload included
	epoch       time.Time
}

// setUp builds a rig: inputs from the seed, server, campaign, uploads,
// preload, connections. Its wall time is the workload's setup_s sample.
func setUp(p plan, seed int64, dataRoot string, totalUnits int) (*rig, error) {
	r := &rig{plan: p, epoch: time.Now()}
	var err error
	if r.sc, err = generate(p, seed, totalUnits); err != nil {
		return nil, err
	}
	if p.durable {
		if r.dir, err = os.MkdirTemp(dataRoot, p.name+"-"); err != nil {
			return nil, err
		}
		r.opts.DataDir = r.dir
		if p.delivery {
			r.opts.VideoCacheBytes = p.cacheBytes
		} else {
			r.opts.Fsync, r.opts.GroupCommit = true, true
		}
	}
	if r.srv, err = platform.Open(r.opts); err != nil {
		r.tearDown()
		return nil, err
	}
	if err := r.seedCampaign(); err != nil {
		r.tearDown()
		return nil, err
	}
	if p.preload > 0 {
		pre := newClient(newDirect(r.srv.Handler()), r.sc, false, "setup")
		pre.reserve(p.preload)
		for i := 0; i < p.preload; i++ {
			if err := pre.session(r.participant.Add(1) - 1); err != nil {
				r.tearDown()
				return nil, fmt.Errorf("preloading session %d: %w", i, err)
			}
		}
		r.completed += p.preload
	}
	if err := r.listen(r.srv.Handler()); err != nil {
		r.tearDown()
		return nil, err
	}
	return r, nil
}

// generate makes the workload's script from the seed.
func generate(p plan, seed int64, totalUnits int) (*script, error) {
	if p.delivery {
		return genDeliveryScript(seed, p.videos, p.frames, totalUnits*platform.TestsPerSession), nil
	}
	return genCrowdScript(seed)
}

// seedCampaign creates the campaign and uploads the script's videos by
// direct dispatch, then binds the script to the minted IDs.
func (r *rig) seedCampaign() error {
	d := newDirect(r.srv.Handler())
	resp, err := d.do(&request{method: "POST", path: []byte("/api/v1/campaigns"), contentType: "application/json",
		body: []byte(`{"name":"bench","kind":"timeline"}`)})
	if err != nil {
		return err
	}
	var created platform.CreateCampaignResponse
	if resp.status != http.StatusCreated || json.Unmarshal(resp.body, &created) != nil {
		return fmt.Errorf("creating campaign: status %d: %.200s", resp.status, resp.body)
	}
	ids := make([]string, len(r.sc.videos))
	for i := range r.sc.videos {
		resp, err := d.do(&request{method: "POST", path: []byte("/api/v1/campaigns/" + created.ID + "/videos"),
			contentType: "application/octet-stream", body: r.sc.videos[i].payload})
		if err != nil {
			return err
		}
		var added platform.AddVideoResponse
		if resp.status != http.StatusCreated || json.Unmarshal(resp.body, &added) != nil {
			return fmt.Errorf("uploading video %d: status %d: %.200s", i, resp.status, resp.body)
		}
		ids[i] = added.ID
	}
	return r.sc.bind(created.ID, ids)
}

// listen serves h on a fresh loopback port and connects the clients.
func (r *rig) listen(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.handler = &timedHandler{h: h}
	r.hs = &http.Server{Handler: r.handler}
	r.served = make(chan error, 1)
	go func() { r.served <- r.hs.Serve(ln) }()
	r.clients, r.conns = nil, nil
	for i := 0; i < nClients; i++ {
		conn := newSockConn(ln.Addr().String(), requestTimeout)
		if err := conn.dial(); err != nil {
			return err
		}
		r.conns = append(r.conns, conn)
		c := newClient(conn, r.sc, r.plan.binary, "http")
		c.epoch = r.epoch
		r.clients = append(r.clients, c)
	}
	return nil
}

// hangUp closes the connections and stops the HTTP server, waiting for
// its accept loop to end.
func (r *rig) hangUp() {
	for _, c := range r.conns {
		c.close()
	}
	r.conns = nil
	if r.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := r.hs.Shutdown(ctx); err != nil {
			r.hs.Close()
		}
		cancel()
		<-r.served
		r.hs = nil
	}
}

// tearDown releases everything the rig holds, data directory included.
func (r *rig) tearDown() {
	r.hangUp()
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
}

// timedHandler adds up the time spent inside the handler it wraps: the
// server's own share of a request, with the driver, the sockets and
// net/http's parsing left outside.
type timedHandler struct {
	h  http.Handler
	ns atomic.Int64
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.ns.Add(int64(time.Since(t0)))
}

// segment runs n units of the workload's fixed work on the rig's clients
// and returns what they measured.
func (r *rig) segment(n int) *segment {
	work := newSharedWork(r.units, int64(n))
	r.units += int64(n)
	handler0 := r.handler.ns.Load()
	var seg *segment
	switch {
	case r.plan.delivery:
		seg = runSegment(r.clients, func(_ int, c *client) {
			for {
				n, ok := work.take()
				if !ok || c.viewing(n) != nil {
					return
				}
			}
		})
	case r.plan.poll:
		var done atomic.Bool
		seg = runSegment(r.clients, func(i int, c *client) {
			if c.background = i != 0; c.background {
				// The background participant joins until the experimenter
				// has finished its fixed number of cycles.
				for !done.Load() && c.session(r.participant.Add(1)-1) == nil {
				}
				return
			}
			defer done.Store(true)
			var tag []byte
			seen := 0
			for {
				if _, ok := work.take(); !ok {
					return
				}
				var total int
				var err error
				if tag, total, err = c.cycle(r.participant.Add(1)-1, tag); err != nil {
					return
				}
				if total <= seen {
					_ = c.fail(fmt.Errorf("results total went from %d to %d after a completion", seen, total))
					return
				}
				seen = total
			}
		})
	default:
		seg = runSegment(r.clients, func(_ int, c *client) {
			for {
				if _, ok := work.take(); !ok || c.session(r.participant.Add(1)-1) != nil {
					return
				}
			}
		})
	}
	seg.handler = time.Duration(r.handler.ns.Load() - handler0)
	if !r.plan.delivery {
		r.completed += seg.sessions
	}
	return seg
}

// check is one output check and whether it held.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// views fetches the two experimenter views by direct dispatch.
func views(srv *platform.Server, campaign string) (results, analytics []byte, err error) {
	d := newDirect(srv.Handler())
	for i, view := range []string{"results", "analytics"} {
		resp, err := d.do(&request{method: "GET", path: []byte("/api/v1/campaigns/" + campaign + "/" + view)})
		if err != nil {
			return nil, nil, err
		}
		if resp.status != http.StatusOK {
			return nil, nil, fmt.Errorf("%s: status %d", view, resp.status)
		}
		body := append([]byte(nil), resp.body...)
		if i == 0 {
			results = body
		} else {
			analytics = body
		}
	}
	return results, analytics, nil
}

// checkTotals verifies that both views account for exactly the
// sessions the driver completed.
func (r *rig) checkTotals() check {
	ck := check{Name: "results-total-equals-completed"}
	results, analytics, err := views(r.srv, r.sc.campaign)
	if err != nil {
		ck.Detail = err.Error()
		return ck
	}
	var res platform.ResultsResponse
	var an struct {
		Completed int `json:"completed"`
	}
	if err := errors.Join(json.Unmarshal(results, &res), json.Unmarshal(analytics, &an)); err != nil {
		ck.Detail = err.Error()
		return ck
	}
	ck.OK = res.Participants == r.completed && an.Completed == r.completed
	ck.Detail = fmt.Sprintf("results %d, analytics %d, driver %d", res.Participants, an.Completed, r.completed)
	return ck
}

// checkRevalidation demands one undisturbed revalidation: with no
// client running, a conditional GET carrying the current validator must
// be answered 304 with no body.
func (r *rig) checkRevalidation(during int) check {
	ck := check{Name: "conditional-results-304"}
	d := newDirect(r.srv.Handler())
	path := []byte("/api/v1/campaigns/" + r.sc.campaign + "/results")
	resp, err := d.do(&request{method: "GET", path: path})
	if err != nil || resp.status != http.StatusOK || len(resp.etag) == 0 {
		ck.Detail = fmt.Sprintf("results: %v", err)
		return ck
	}
	tag := string(resp.etag)
	resp, err = d.do(&request{method: "GET", path: path, ifNoneMatch: tag})
	if err != nil {
		ck.Detail = err.Error()
		return ck
	}
	ck.OK = resp.status == http.StatusNotModified && len(resp.body) == 0 && string(resp.etag) == tag
	ck.Detail = fmt.Sprintf("quiet revalidation: status %d, %d body bytes; under load %d were 304 and every other one carried a new validator", resp.status, len(resp.body), during)
	return ck
}

// reopen closes the durable server, reopens its directory n times and
// demands byte-identical views each time. It returns the seconds each
// platform.Open took.
func (r *rig) reopen(n int) (check, []float64) {
	ck := check{Name: "views-byte-identical-across-reopen"}
	wantResults, wantAnalytics, err := views(r.srv, r.sc.campaign)
	if err != nil {
		ck.Detail = err.Error()
		return ck, nil
	}
	r.hangUp()
	if err := r.srv.Close(); err != nil {
		ck.Detail = "close: " + err.Error()
		return ck, nil
	}
	r.srv = nil
	var took []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		srv, err := platform.Open(r.opts)
		if err != nil {
			ck.Detail = fmt.Sprintf("reopen %d: %v", i, err)
			return ck, nil
		}
		took = append(took, time.Since(t0).Seconds())
		gotResults, gotAnalytics, err := views(srv, r.sc.campaign)
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			ck.Detail = fmt.Sprintf("reopen %d: %v", i, err)
			return ck, nil
		}
		if !bytes.Equal(gotResults, wantResults) || !bytes.Equal(gotAnalytics, wantAnalytics) {
			ck.Detail = fmt.Sprintf("reopen %d: views differ (results %d vs %d bytes, analytics %d vs %d bytes)",
				i, len(gotResults), len(wantResults), len(gotAnalytics), len(wantAnalytics))
			return ck, nil
		}
	}
	ck.OK = true
	ck.Detail = fmt.Sprintf("%d reopens, results %d bytes, analytics %d bytes", n, len(wantResults), len(wantAnalytics))
	return ck, took
}

// scrapeMetrics renders the server's registry, as GET /metrics would.
func (r *rig) scrapeMetrics() scrape {
	reg := r.srv.Metrics()
	if reg == nil {
		return scrape{}
	}
	var buf bytes.Buffer
	reg.Render(&buf)
	s, _ := parseScrape(&buf)
	return s
}

// dataRoot makes the per-process directory all rigs put their data in.
func dataRoot(home string) (string, error) {
	base := filepath.Join(home, ".data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
