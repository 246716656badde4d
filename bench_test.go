// Benchmarks regenerating every table and figure of the paper, ablation
// benches for the pipeline's design decisions, and micro-benchmarks of
// the hot substrate paths. The platform's serving costs are measured by
// bench/ (the repo benchmark) and internal/platform's render benches.
//
// The figure benches share one lazily-built QuickScale suite: campaign
// construction (capture + crowd simulation) happens once outside the
// timed region, so the numbers reflect the analysis cost of each
// artefact. BenchmarkBuildSuite times the full pipeline itself.
package eyeorg

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/adblock"
	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/core"
	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/experiments"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/recruit"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpage"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

var (
	suiteOnce  sync.Once
	benchSuite *experiments.Suite
)

// sharedSuite returns the memoized QuickScale suite with all campaigns
// pre-run, so individual figure benches time only the analysis.
func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		benchSuite = experiments.NewSuite(experiments.QuickConfig())
		if _, err := benchSuite.Table1(); err != nil {
			b.Fatalf("building suite: %v", err)
		}
	})
	return benchSuite
}

// requireNoErr collapses the per-iteration error check.
func requireNoErr(b *testing.B, err error) {
	if err != nil {
		b.Fatal(err)
	}
}

// --- one bench per paper artefact (T1, F1, F4a..F9) ---

func BenchmarkTable1(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Table1()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure1(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure1()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure4a(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure4a()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure4b(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure4b()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure4c(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure4c()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure5(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure5()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure6a(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure6a()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure6b(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure6b()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure6c(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure6c()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure7a(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure7a()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure7b(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure7b()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure7c(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure7c()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure8a(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure8a()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure8b(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure8b()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure8c(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := s.AdsFinal()
		requireNoErr(b, err)
		_, err = s.Figure8c()
		requireNoErr(b, err)
	}
}

func BenchmarkFigure9(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.Figure9()
		requireNoErr(b, err)
	}
}

// BenchmarkRenderAll times the full text rendering of every artefact.
func BenchmarkRenderAll(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requireNoErr(b, s.RenderAll(io.Discard))
	}
}

// BenchmarkBuildSuite times the entire pipeline — capture, campaigns,
// crowd, filtering — at a reduced scale (this is the expensive path the
// other benches deliberately exclude).
func BenchmarkBuildSuite(b *testing.B) {
	cfg := experiments.QuickConfig()
	cfg.FinalSites = 8
	cfg.FinalParticipants = 60
	cfg.ValidationSites = 4
	cfg.ValidationParticipants = 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		s := experiments.NewSuite(cfg)
		_, err := s.Table1()
		requireNoErr(b, err)
	}
}

// --- extension benches (§6 future-work studies) ---

func BenchmarkExtensionPush(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.ExtensionPush()
		requireNoErr(b, err)
	}
}

func BenchmarkExtensionTLS13(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := s.ExtensionTLS13()
		requireNoErr(b, err)
	}
}

// --- ablation benches (pipeline design decisions) ---

func BenchmarkAblationLossModel(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.AblationLossModel()
		requireNoErr(b, err)
		// The H2-vs-H1 ordering must not hinge on the loss model.
		if (res.H2WinRateWithLoss > 0.5) != (res.H2WinRateWithoutLoss > 0.5) {
			b.Fatalf("loss model flips the protocol conclusion: %+v", res)
		}
	}
}

func BenchmarkAblationCaptureFPS(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.AblationCaptureFPS()
		requireNoErr(b, err)
		if res.MaxShiftSec > 0.5 {
			b.Fatalf("SpeedIndex unstable across capture rates: %+v", res)
		}
	}
}

func BenchmarkAblationMedianSelection(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.AblationMedianSelection()
		requireNoErr(b, err)
		if res.MedianStdevSec > res.FirstStdevSec*1.5 {
			b.Fatalf("median selection noisier than first-load: %+v", res)
		}
	}
}

func BenchmarkAblationPerception(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.AblationPerception()
		requireNoErr(b, err)
		if res.MultiModalWithSplit <= res.MultiModalWithoutSplit {
			b.Fatalf("ad-waiting split does not produce multi-modality: %+v", res)
		}
	}
}

func BenchmarkAblationBlockerOverhead(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.AblationBlockerOverhead()
		requireNoErr(b, err)
		if res.MeanOverheadMs["ghostery"] > res.MeanOverheadMs["adblock"] {
			b.Fatalf("blocker overhead ordering inverted: %+v", res)
		}
	}
}

// --- parallel engine benches (serial vs parallel, same output) ---

// benchWorkerCounts compares the serial path against 4 workers (the
// acceptance floor) and the machine's full width. Outputs are identical
// at every count; only wall-clock changes.
func benchWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkCaptureCorpus measures webpeg capture throughput across
// worker counts.
func BenchmarkCaptureCorpus(b *testing.B) {
	pages := sitegen.Generate(sitegen.Config{Seed: 17, Sites: 16, AdShare: 0.65, ComplexityScale: 1})
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := webpeg.Config{Seed: 17, Loads: 3, Workers: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := webpeg.CaptureCorpus(pages, cfg)
				requireNoErr(b, err)
			}
		})
	}
}

// BenchmarkBuildTimelineCampaign measures campaign construction (capture
// + metrics) across worker counts.
func BenchmarkBuildTimelineCampaign(b *testing.B) {
	pages := sitegen.Generate(sitegen.Config{Seed: 19, Sites: 12, AdShare: 0.65, ComplexityScale: 1})
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := webpeg.Config{Seed: 19, Loads: 3, Workers: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := core.BuildTimelineCampaign("bench-parallel", pages, cfg)
				requireNoErr(b, err)
			}
		})
	}
}

// BenchmarkRunCampaign measures crowd-session throughput across worker
// counts; BENCH_*.json snapshots track the workers=1 vs workers=N gap.
func BenchmarkRunCampaign(b *testing.B) {
	pages := sitegen.Generate(sitegen.Config{Seed: 21, Sites: 8, AdShare: 0.65, ComplexityScale: 1})
	campaign, err := core.BuildTimelineCampaign("bench-run", pages, webpeg.Config{Seed: 21, Loads: 3})
	requireNoErr(b, err)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := core.RunCampaignWorkers(campaign, recruit.CrowdFlower, 200, 0, w)
				requireNoErr(b, err)
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func benchPage() *webpage.Page {
	return sitegen.Generate(sitegen.Config{Seed: 5, Sites: 1, AdShare: 1, ComplexityScale: 1})[0]
}

func BenchmarkPageLoadHTTP1(b *testing.B) {
	page := benchPage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := browsersim.NewSession(netem.Lab, rng.New(int64(i)))
		_, err := s.Load(page, browsersim.Options{Protocol: httpsim.HTTP1})
		requireNoErr(b, err)
	}
}

func BenchmarkPageLoadHTTP2(b *testing.B) {
	page := benchPage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := browsersim.NewSession(netem.Lab, rng.New(int64(i)))
		_, err := s.Load(page, browsersim.Options{Protocol: httpsim.HTTP2})
		requireNoErr(b, err)
	}
}

func BenchmarkWebpegCaptureSite(b *testing.B) {
	page := benchPage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := webpeg.CaptureSite(page, webpeg.Config{Seed: int64(i), Loads: 5})
		requireNoErr(b, err)
	}
}

func benchVideo(b *testing.B) *video.Video {
	b.Helper()
	cap, err := webpeg.CaptureSite(benchPage(), webpeg.Config{Seed: 9, Loads: 3})
	requireNoErr(b, err)
	return cap.Video
}

func BenchmarkVideoEncode(b *testing.B) {
	v := benchVideo(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		video.Encode(v)
	}
}

func BenchmarkVideoDecode(b *testing.B) {
	data := video.Encode(benchVideo(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := video.Decode(data)
		requireNoErr(b, err)
	}
}

func BenchmarkSpeedIndex(b *testing.B) {
	v := benchVideo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.SpeedIndex(v)
	}
}

func BenchmarkFrameDiff(b *testing.B) {
	v := benchVideo(b)
	a, z := v.Frames[0], v.FinalFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.Diff(a, z)
	}
}

func BenchmarkRewindSearch(b *testing.B) {
	v := benchVideo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vision.EarliestSimilar(v.Frames, len(v.Frames)-1, 0.01)
	}
}

func BenchmarkCrowdTimelineAnswers(b *testing.B) {
	v := benchVideo(b)
	pc := metrics.Curves(v, nil)
	pop := crowd.NewPopulation(rng.New(3), crowd.PopulationConfig{Class: crowd.Paid, N: 100})
	test := &survey.TimelineTest{VideoID: "bench", Video: v}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pop[i%len(pop)]
		p.AnswerTimeline(test, pc)
	}
}

func BenchmarkFilteringClean(b *testing.B) {
	// Build a realistic record set once.
	pages := sitegen.Generate(sitegen.Config{Seed: 13, Sites: 4, AdShare: 0.5, ComplexityScale: 1})
	campaign, err := core.BuildTimelineCampaign("bench", pages, webpeg.Config{Seed: 13, Loads: 3})
	requireNoErr(b, err)
	run, err := core.RunCampaign(campaign, recruit.CrowdFlower, 200, 0)
	requireNoErr(b, err)
	records := run.Records
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filtering.Clean(records, 0)
	}
}

func BenchmarkAdblockMatch(b *testing.B) {
	blocker := adblock.Ghostery()
	obj := &webpage.Object{Host: sitegen.AdHost(3), Path: "/creative/banner-1-2.html"}
	clean := &webpage.Object{Host: "cdn.site-1.example", Path: "/img/hero.jpg"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocker.ShouldBlock(obj)
		blocker.ShouldBlock(clean)
	}
}

func BenchmarkSideBySideSplice(b *testing.B) {
	v := benchVideo(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := video.SideBySide(v, v)
		requireNoErr(b, err)
	}
}

func BenchmarkSiteGeneration(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sitegen.Generate(sitegen.Config{Seed: int64(i), Sites: 10, AdShare: 0.65, ComplexityScale: 1})
	}
}

var _ = time.Second
