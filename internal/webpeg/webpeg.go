// Package webpeg is the video-capture tool of §3.1: it loads each page
// several times under controlled conditions, keeps the load with the
// median onload time, and renders its browsersim paint timeline
// (Render) into the video participants will judge. Faithfully to the
// paper it performs an initial primer load so the resolver cache is warm
// before the first measured trial, uses a fresh browser state for every
// load, and records a configurable number of seconds beyond onload
// ("since there is no automatic way for webpeg to know when the page has
// finished loading — if there were, Eyeorg would be unnecessary!").
//
// This is where the simulator meets the platform: what webpeg produces
// is a video.Video, whose EYV1 encoding the platform accepts without
// linking any of the browser underneath.
package webpeg

import (
	"fmt"
	"sort"
	"time"

	"github.com/eyeorg/eyeorg/internal/adblock"
	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/parallel"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpage"
)

// Config controls a capture run.
type Config struct {
	// Profile is the emulated network (default netem.Lab).
	Profile netem.Profile
	// Protocol selects HTTP/1.1 or HTTP/2 (default HTTP/2).
	Protocol httpsim.Protocol
	// Blocker optionally installs an ad-blocking extension.
	Blocker *adblock.Blocker
	// Push enables HTTP/2 server push.
	Push bool
	// Loads is the number of measured loads per site (default 5; the
	// paper keeps the one with the median onload).
	Loads int
	// RecordAfterOnLoad is how long the recording continues past onload
	// (default 5s).
	RecordAfterOnLoad time.Duration
	// FPS is the capture frame rate (default video.DefaultFPS).
	FPS int
	// Seed roots the per-capture randomness (network loss, DNS jitter).
	Seed int64
	// Workers bounds the concurrency of corpus-level captures
	// (0 = runtime.NumCPU()). Captures are deterministic per page — each
	// site's randomness forks from Seed by URL — so any worker count
	// produces identical output.
	Workers int
	// SkipPrimer disables the primer load (ablation only).
	SkipPrimer bool
	// TLSRTTs overrides the TLS handshake round trips (0 = TLS 1.2's 2;
	// 1 = TLS 1.3), for the §6 extension experiments.
	TLSRTTs int
}

func (c *Config) fillDefaults() {
	if c.Profile.Name == "" {
		c.Profile = netem.Lab
	}
	if c.Protocol == 0 {
		c.Protocol = httpsim.HTTP2
	}
	if c.Loads <= 0 {
		c.Loads = 5
	}
	if c.RecordAfterOnLoad <= 0 {
		c.RecordAfterOnLoad = 5 * time.Second
	}
	if c.FPS <= 0 {
		c.FPS = video.DefaultFPS
	}
}

// Capture is the output for one site: the selected (median-onload) load,
// its video, and the onload times of every trial.
type Capture struct {
	Page     *webpage.Page
	Selected *browsersim.Result
	Video    *video.Video
	// OnLoads holds each measured trial's onload, in trial order.
	OnLoads []time.Duration
	// MedianIndex is the index into OnLoads of the selected trial.
	MedianIndex int
}

// SiteRTTSigma is the log-normal spread of per-site round-trip times.
// Real origins sit at very different network distances (CDN edge vs
// cross-continent), which is the dominant common factor behind every
// load-time metric of a site; the per-site multiplier applies to RTT and
// resolver latency identically for every variant of the site, so paired
// A/B comparisons stay paired.
const SiteRTTSigma = 0.5

// CaptureSite records one site under cfg.
func CaptureSite(page *webpage.Page, cfg Config) (*Capture, error) {
	cfg.fillDefaults()
	src := rng.New(cfg.Seed).Fork("capture-" + page.URL)
	profile := cfg.Profile
	rttScale := rng.LogNormal(src.Stream("site-rtt"), 1, SiteRTTSigma)
	profile.RTT = time.Duration(float64(profile.RTT) * rttScale)
	profile.DNSLatency = time.Duration(float64(profile.DNSLatency) * rttScale)
	session := browsersim.NewSession(profile, src)
	opts := browsersim.Options{
		Protocol: cfg.Protocol,
		Push:     cfg.Push,
		Blocker:  cfg.Blocker,
		TLSRTTs:  cfg.TLSRTTs,
	}

	// Primer load: warms the resolver cache so a DNS miss cannot skew the
	// first measured trial. Its result is discarded.
	if !cfg.SkipPrimer {
		if _, err := session.Load(page, opts); err != nil {
			return nil, fmt.Errorf("webpeg: primer load of %s: %w", page.URL, err)
		}
	}

	results := make([]*browsersim.Result, 0, cfg.Loads)
	onloads := make([]time.Duration, 0, cfg.Loads)
	for i := 0; i < cfg.Loads; i++ {
		res, err := session.Load(page, opts)
		if err != nil {
			return nil, fmt.Errorf("webpeg: load %d of %s: %w", i+1, page.URL, err)
		}
		results = append(results, res)
		onloads = append(onloads, res.OnLoad)
	}

	idx := medianIndex(onloads)
	sel := results[idx]
	return &Capture{
		Page:        page,
		Selected:    sel,
		Video:       Render(sel.Paints, sel.OnLoad+cfg.RecordAfterOnLoad, cfg.FPS),
		OnLoads:     onloads,
		MedianIndex: idx,
	}, nil
}

// Render records a paint timeline as a video of duration d at fps
// (0 = video.DefaultFPS; d ≤ 0 records one second). Paints after d are
// dropped — exactly like stopping the screen recorder N seconds after
// onload.
func Render(paints []browsersim.PaintEvent, d time.Duration, fps int) *video.Video {
	if fps <= 0 {
		fps = video.DefaultFPS
	}
	if d <= 0 {
		d = time.Second
	}
	frameDur := time.Second / time.Duration(fps)
	n := int(d/frameDur) + 1
	v := &video.Video{FPS: fps, Frames: make([]*vision.Frame, n)}
	cur := vision.NewFrame()
	pi := 0
	for i := 0; i < n; i++ {
		t := time.Duration(i) * frameDur
		for pi < len(paints) && paints[pi].T <= t {
			cur.Paint(paints[pi].Rect, paints[pi].Value)
			pi++
		}
		v.Frames[i] = cur.Clone()
	}
	return v
}

// CaptureCorpus records every page concurrently (cfg.Workers bounds the
// pool; 0 = NumCPU), returning captures in page order. Each page's
// randomness is a named fork of cfg.Seed, so the result is identical to
// capturing the corpus serially.
func CaptureCorpus(pages []*webpage.Page, cfg Config) ([]*Capture, error) {
	if len(pages) == 0 {
		return make([]*Capture, 0), nil
	}
	return parallel.Map(cfg.Workers, len(pages), func(i int) (*Capture, error) {
		return CaptureSite(pages[i], cfg)
	})
}

// medianIndex returns the index of the median element (lower median for
// even counts) without reordering the input.
func medianIndex(ds []time.Duration) int {
	if len(ds) == 0 {
		return 0
	}
	order := make([]int, len(ds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ds[order[a]] < ds[order[b]] })
	return order[(len(order)-1)/2]
}
