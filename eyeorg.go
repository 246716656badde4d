// Package eyeorg is the public API of this reproduction of "EYEORG: A
// Platform For Crowdsourcing Web Quality Of Experience Measurements"
// (Varvello et al., CoNEXT 2016).
//
// The package ties the pipeline together end to end:
//
//	corpus := eyeorg.GenerateCorpus(2016, 100, 0.65)     // synthetic sites
//	cap, _ := eyeorg.CaptureSite(corpus[0], eyeorg.CaptureConfig{Seed: 1})
//	plt := eyeorg.ComputePLT(cap.Video, cap.Selected.OnLoad)
//
//	campaign, _ := eyeorg.BuildTimelineCampaign("demo", corpus[:20],
//	    eyeorg.CaptureConfig{Seed: 1})
//	run, _ := eyeorg.RunCampaign(campaign, eyeorg.CrowdFlower, 100)
//	uplt := eyeorg.WisdomOfCrowd(eyeorg.TimelineByVideo(run.KeptRecords()))
//
// For the paper's full evaluation, NewExperimentSuite exposes one method
// per table and figure of the evaluation (Table1, Figure1, Figure4a …
// Figure9), plus the §6 extension studies.
package eyeorg

import (
	"io"
	"net/http"
	"time"

	"github.com/eyeorg/eyeorg/internal/adblock"
	"github.com/eyeorg/eyeorg/internal/core"
	"github.com/eyeorg/eyeorg/internal/experiments"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/recruit"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/viz"
	"github.com/eyeorg/eyeorg/internal/webpage"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// --- page corpus ---

// Page models one website's structure (objects, layout, blocking
// semantics).
type Page = webpage.Page

// GenerateCorpus synthesises n sites with the given ad-supported share;
// deterministic per seed. It stands in for the paper's Alexa sample.
func GenerateCorpus(seed int64, n int, adShare float64) []*Page {
	return sitegen.Generate(sitegen.Config{Seed: seed, Sites: n, AdShare: adShare})
}

// GenerateAdCorpus synthesises n sites that all display ads (the §5.4
// workload).
func GenerateAdCorpus(seed int64, n int) []*Page {
	return sitegen.GenerateAdCorpus(seed, n)
}

// --- capture (webpeg) ---

// CaptureConfig configures webpeg video capture. Its Workers field
// bounds corpus- and campaign-level capture concurrency (0 = NumCPU);
// every worker count produces identical output for the same Seed.
type CaptureConfig = webpeg.Config

// Capture is one site's capture output: selected (median-onload) load and
// its video.
type Capture = webpeg.Capture

// CaptureSite records one page under cfg: a primer load, cfg.Loads trials,
// median-onload selection, and video rendering.
func CaptureSite(page *Page, cfg CaptureConfig) (*Capture, error) {
	return webpeg.CaptureSite(page, cfg)
}

// Captures records every page under cfg, concurrently, in page order.
func Captures(pages []*Page, cfg CaptureConfig) ([]*Capture, error) {
	return webpeg.CaptureCorpus(pages, cfg)
}

// Protocols selectable for capture.
const (
	HTTP1 = httpsim.HTTP1
	HTTP2 = httpsim.HTTP2
)

// ProfileByName looks up a capture network profile (Chrome-devtools-style
// emulation: lab, fiber, cable, dsl, lte, 3g).
var ProfileByName = netem.ProfileByName

// --- metrics ---

// PLT bundles OnLoad, SpeedIndex, FirstVisualChange and LastVisualChange.
type PLT = metrics.PLT

// Video is a captured page-load video.
type Video = video.Video

// ComputePLT derives the paper's four metrics from a captured video.
func ComputePLT(v *Video, onload time.Duration) PLT {
	return metrics.Compute(v, onload)
}

// EncodeVideo and DecodeVideo implement the platform's video payload
// format.
var (
	EncodeVideo = video.Encode
	DecodeVideo = video.Decode
)

// --- ad blockers ---

// Blocker is an ad-blocking extension profile.
type Blocker = adblock.Blocker

// The three blockers the paper compares.
var (
	AdBlock      = adblock.AdBlock
	Ghostery     = adblock.Ghostery
	UBlock       = adblock.UBlock
	BlockerNamed = adblock.ByName
)

// --- campaigns ---

// Campaign is a built experiment (timeline or A/B).
type Campaign = core.Campaign

// RunResult is a completed campaign with filtering applied.
type RunResult = core.RunResult

// CrowdFlower is the paid recruitment service of the paper's campaigns.
var CrowdFlower = recruit.CrowdFlower

// BuildTimelineCampaign captures pages and assembles a timeline campaign.
func BuildTimelineCampaign(name string, pages []*Page, cfg CaptureConfig) (*Campaign, error) {
	return core.BuildTimelineCampaign(name, pages, cfg)
}

// BuildABCampaign captures pages under two configurations and assembles an
// A/B campaign (variant A vs variant B).
func BuildABCampaign(name string, pages []*Page, cfgA, cfgB CaptureConfig) (*Campaign, error) {
	return core.BuildABCampaign(name, pages, cfgA, cfgB)
}

// RunCampaign recruits n participants and collects their responses.
// Sessions run concurrently on NumCPU workers; the result is identical
// to a serial run for the same campaign seed.
func RunCampaign(c *Campaign, svc *recruit.Service, n int) (*RunResult, error) {
	return core.RunCampaign(c, svc, n, 0)
}

// RunCampaignWorkers is RunCampaign with an explicit bound on session
// concurrency (0 = NumCPU; 1 = serial). Any worker count produces the
// same RunResult for the same seed — the determinism contract of
// internal/parallel.
func RunCampaignWorkers(c *Campaign, svc *recruit.Service, n, workers int) (*RunResult, error) {
	return core.RunCampaignWorkers(c, svc, n, 0, workers)
}

// --- filtering & analysis ---

// TimelineByVideo groups kept timeline answers (seconds) per video.
var TimelineByVideo = filtering.TimelineByVideo

// WisdomOfCrowd applies the 25th–75th percentile filter per video.
var WisdomOfCrowd = filtering.WisdomOfCrowd

// ABByVideo tallies kept A/B votes per video.
var ABByVideo = filtering.ABByVideo

// --- experiments ---

// ExperimentConfig scales the paper reproduction.
type ExperimentConfig = experiments.Config

// ExperimentSuite reproduces every table and figure of the paper, one
// lazily-evaluated method per artefact.
type ExperimentSuite = experiments.Suite

// PaperScale returns the paper's sample sizes (100 sites, 1000
// participants); QuickScale returns a fast configuration with the same
// shapes.
var (
	PaperScale = experiments.PaperConfig
	QuickScale = experiments.QuickConfig
)

// NewExperimentSuite builds a (lazily evaluated) experiment suite.
func NewExperimentSuite(cfg ExperimentConfig) *ExperimentSuite {
	return experiments.NewSuite(cfg)
}

// RenderAllExperimentsParallel evaluates independent artefacts
// concurrently (workers bounds the pool; 0 = NumCPU) while writing
// output in paper order.
func RenderAllExperimentsParallel(s *ExperimentSuite, w io.Writer, workers int) error {
	return s.RenderAllParallel(w, workers)
}

// --- platform service ---

// PlatformOptions configures the platform's storage and operations
// subsystems: DataDir enables the write-ahead journal + snapshots
// (crash recovery rebuilds byte-identical /results), and Fsync makes
// every mutation durable on disk before its ack; concurrent mutations
// share one journal flush (and, with Fsync, one fdatasync) per window. MaxInFlight, WorkerRate and
// MaxBodyBytes put the API behind admission control (429 + Retry-After
// / 413 under pressure; binary event batches charge the worker's bucket
// per decoded record, see internal/wire). Adaptive enables sequential
// campaigns (internal/adaptive): per-video confidence sequences steer
// each new assignment at the under-sampled videos and close the
// campaign — new joins get 409 — once every video resolves: a timeline
// video when its sequence shrinks to CIHalfWidth seconds, an A/B video
// when its sequence names a preference or rules one out. The server
// binary opens internal/platform directly.
type PlatformOptions = platform.Options

// NewPlatformHandler returns an in-memory Eyeorg web service handler.
func NewPlatformHandler() http.Handler {
	return platform.NewServer().Handler()
}

// --- visualization ---

// Series is a named value set for text plots.
type Series = viz.Series

// CDFPlot renders empirical CDFs as text (the paper's dominant figure
// style).
var CDFPlot = viz.CDFPlot

// ResponseTimeline renders the Figure 1 visualization.
var ResponseTimeline = viz.ResponseTimeline
