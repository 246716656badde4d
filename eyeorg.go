// Package eyeorg is the public API of this reproduction of "EYEORG: A
// Platform For Crowdsourcing Web Quality Of Experience Measurements"
// (Varvello et al., CoNEXT 2016).
//
// The package ties the pipeline together end to end:
//
//	corpus := eyeorg.GenerateCorpus(2016, 100, 0.65)     // synthetic sites
//	cap, _ := eyeorg.Capture(corpus[0], eyeorg.CaptureConfig{Seed: 1})
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
	"github.com/eyeorg/eyeorg/internal/cluster"
	"github.com/eyeorg/eyeorg/internal/core"
	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/experiments"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/recruit"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/telemetry"
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
	return sitegen.Generate(sitegen.Config{Seed: seed, Sites: n, AdShare: adShare, ComplexityScale: 1})
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

// Capture is a short alias of CaptureSite.
func Captures(pages []*Page, cfg CaptureConfig) ([]*Capture, error) {
	return webpeg.CaptureCorpus(pages, cfg)
}

// Protocols selectable for capture.
const (
	HTTP1 = httpsim.HTTP1
	HTTP2 = httpsim.HTTP2
)

// Network profiles for capture (Chrome-devtools-style emulation).
var (
	ProfileLab    = netem.Lab
	ProfileCable  = netem.Cable
	ProfileDSL    = netem.DSL
	ProfileLTE    = netem.LTE
	Profile3G     = netem.ThreeG
	ProfileByName = netem.ProfileByName
)

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

// CampaignStats is a Table-1 row.
type CampaignStats = core.CampaignStats

// Recruitment services.
var (
	CrowdFlower    = recruit.CrowdFlower
	Microworkers   = recruit.Microworkers
	TrustedInvites = recruit.TrustedInvites
)

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

// SessionRecord is one participant's full session.
type SessionRecord = filtering.SessionRecord

// TimelineByVideo groups kept timeline answers (seconds) per video.
var TimelineByVideo = filtering.TimelineByVideo

// WisdomOfCrowd applies the 25th–75th percentile filter per video.
var WisdomOfCrowd = filtering.WisdomOfCrowd

// ABByVideo tallies kept A/B votes per video.
var ABByVideo = filtering.ABByVideo

// Participant is a simulated respondent.
type Participant = crowd.Participant

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

// RenderAllExperiments reproduces every artefact in paper order to w.
func RenderAllExperiments(s *ExperimentSuite, w io.Writer) error {
	return s.RenderAll(w)
}

// RenderAllExperimentsParallel evaluates independent artefacts
// concurrently (workers bounds the pool; 0 = NumCPU) while writing
// output in paper order.
func RenderAllExperimentsParallel(s *ExperimentSuite, w io.Writer, workers int) error {
	return s.RenderAllParallel(w, workers)
}

// --- platform service ---

// PlatformServer is the Eyeorg web service: sharded in-memory indexes
// over an optional durable event journal (internal/store).
type PlatformServer = platform.Server

// PlatformOptions configures the platform's storage and operations
// subsystems: DataDir enables the write-ahead journal + snapshots
// (crash recovery rebuilds byte-identical /results), Shards sets the
// per-index shard count, Fsync makes every mutation durable before its
// ack, and GroupCommit coalesces concurrent mutations into one journal
// flush + fsync per window — the durable configuration for heavy
// ingest. MaxInFlight, WorkerRate and MaxBodyBytes put the API behind
// admission control (429 + Retry-After / 413 under pressure; binary
// event batches charge the worker's bucket per decoded record, see
// internal/wire). The server always maintains the GET /metrics
// registry PlatformServer.Metrics returns. Adaptive enables sequential
// campaigns (internal/adaptive): per-video confidence intervals steer
// each new assignment at the under-sampled videos and close the
// campaign — new joins get 409 — once every interval shrinks to
// CIHalfWidth.
type PlatformOptions = platform.Options

// TelemetryRegistry collects the platform's runtime metrics — lock-free
// counters, gauges and latency histograms — and renders them in the
// Prometheus text exposition format. PlatformServer.Metrics returns the
// server's registry so embedders can add instruments of their own or
// mount the exposition elsewhere.
type TelemetryRegistry = telemetry.Registry

// NewPlatformServer opens a platform server with the given storage
// options. Close it to flush the journal when persistence is enabled;
// StartDrain before closing to refuse new sessions while participants
// mid-assignment finish (see cmd/eyeorg-server for the full sequence).
func NewPlatformServer(opts PlatformOptions) (*PlatformServer, error) {
	return platform.Open(opts)
}

// NewPlatformHandler returns an in-memory Eyeorg web service handler.
func NewPlatformHandler() http.Handler {
	return platform.NewServer().Handler()
}

// --- cluster ---

// Cluster partitions campaigns across several platform nodes by
// consistent hashing, routes every request to the owning node, and
// moves a campaign between nodes under load with a journaled ownership
// fence (Cluster.MoveCampaign). It does not replicate: a node's
// campaigns live in that node's data directory only, and are
// unavailable while it is down. See internal/cluster and
// docs/ARCHITECTURE.md.
type Cluster = cluster.Cluster

// ClusterConfig describes an in-process cluster: node IDs, data
// directory, router mode, and Node, the PlatformOptions every node's
// server is opened from (DataDir, IDTag and Replicate are set per node).
type ClusterConfig = cluster.Config

// ClusterRouter is the thin entry point in front of a cluster: it
// resolves every request to the campaign's owning node and proxies or
// redirects.
type ClusterRouter = cluster.Router

// ClusterRing is the consistent-hash ring mapping campaign IDs to
// nodes; membership changes move only ~1/N of campaigns.
type ClusterRing = cluster.Ring

// ClusterNode is one cluster member: a platform server wrapped in the
// ownership middleware that fences handed-off campaigns with 307s.
type ClusterNode = cluster.Node

// NewCluster brings up an in-process cluster: one durable platform
// node per ID under cfg.Dir and a router in front. Drive it through
// Cluster.Handler().
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewClusterRing builds a consistent-hash ring over node IDs
// (vnodes ≤ 0 selects the default virtual-node count).
func NewClusterRing(nodes []string, vnodes int) *ClusterRing { return cluster.NewRing(nodes, vnodes) }

// NewRemoteClusterRouter builds a router over out-of-process nodes by
// their advertised base URLs — the standalone eyeorg-router binary.
func NewRemoteClusterRouter(mode string, ring *ClusterRing, members map[string]string) (*ClusterRouter, error) {
	return cluster.NewRemoteRouter(mode, ring, members)
}

// NewStandaloneClusterNode wraps a platform server in the cluster
// ownership middleware for multi-process deployments (eyeorg-server
// -node-id): fenced campaigns 307 to the peer the directory resolves.
func NewStandaloneClusterNode(id, base string, srv *PlatformServer, directory func(nodeID string) (string, bool)) *ClusterNode {
	return cluster.NewStandaloneNode(id, base, srv, directory)
}

// --- live quality analytics ---

// AnalyticsResponse is the live quality-analytics payload of
// GET /api/v1/campaigns/{id}/analytics: per-participant §4.3 filter
// verdicts (final for completed sessions, provisional for in-flight
// ones), kept/dropped counts per rule, and the current wisdom-of-the-
// crowd percentile band per video. The platform maintains it
// incrementally on every mutation (internal/quality); its verdicts are
// contractually equal to running the offline batch filter on the same
// sessions.
type AnalyticsResponse = platform.AnalyticsResponse

// AnalyticsSummary is the per-rule kept/dropped histogram of the live
// analytics.
type AnalyticsSummary = platform.AnalyticsSummary

// ParticipantVerdict is one session's current standing against the
// §4.3 filters.
type ParticipantVerdict = platform.ParticipantVerdict

// VideoAnalytics is one video's live aggregate: the timeline percentile
// band or the A/B vote tallies over kept sessions.
type VideoAnalytics = platform.VideoAnalytics

// StoppingAnalytics is the adaptive stopper's campaign-level view in
// the analytics payload: per-video confidence intervals, resolution
// state, and whether the campaign has closed to new joins. Present
// only when the server runs with PlatformOptions.Adaptive.
type StoppingAnalytics = platform.StoppingAnalytics

// VideoStopping is one video's adaptive stopping state.
type VideoStopping = platform.VideoStopping

// --- visualization ---

// Series is a named value set for text plots.
type Series = viz.Series

// CDFPlot renders empirical CDFs as text (the paper's dominant figure
// style).
var CDFPlot = viz.CDFPlot

// ResponseTimeline renders the Figure 1 visualization.
var ResponseTimeline = viz.ResponseTimeline
