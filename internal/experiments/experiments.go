// Package experiments reproduces every table and figure of the paper's
// evaluation (§4–§5). A Suite owns the shared expensive artefacts — the
// site corpus, the captured videos, the validation and final campaign
// runs — and exposes one method per paper artefact that returns exactly
// the rows/series the paper reports. DESIGN.md §3 maps each method to its
// table/figure.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"github.com/eyeorg/eyeorg/internal/adblock"
	"github.com/eyeorg/eyeorg/internal/core"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/recruit"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/stats"
	"github.com/eyeorg/eyeorg/internal/viz"
	"github.com/eyeorg/eyeorg/internal/webpage"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// Config scales the reproduction.
type Config struct {
	Seed int64
	// FinalSites and FinalParticipants size the three §5 campaigns
	// (paper: 100 sites, 1000 participants).
	FinalSites        int
	FinalParticipants int
	// ValidationSites and ValidationParticipants size the §4 campaigns
	// (paper: 20 sites, 100 paid + 100 trusted).
	ValidationSites        int
	ValidationParticipants int
	// Loads is webpeg's trials per capture (paper: 5).
	Loads int
	// Workers bounds the concurrency of every parallel stage — page
	// captures, crowd sessions, and figure rendering (0 = NumCPU).
	// Results are identical for any value; see internal/parallel.
	Workers int
}

// PaperConfig reproduces the paper's scale.
func PaperConfig() Config {
	return Config{
		Seed:                   2016,
		FinalSites:             100,
		FinalParticipants:      1000,
		ValidationSites:        20,
		ValidationParticipants: 100,
		Loads:                  5,
	}
}

// QuickConfig is a scaled-down configuration for tests and iterative
// development; shapes hold, absolute sample sizes shrink.
func QuickConfig() Config {
	return Config{
		Seed:                   2016,
		FinalSites:             24,
		FinalParticipants:      240,
		ValidationSites:        8,
		ValidationParticipants: 80,
		Loads:                  3,
	}
}

// memo guards one lazily built campaign group: the first caller runs
// build, every later caller shares its outcome, and once do returns the
// group's fields are read-only. This is what lets independent artefacts
// build and render concurrently (RenderAllParallel) while each campaign
// still builds exactly once.
type memo struct {
	once sync.Once
	err  error
}

func (m *memo) do(build func() error) error {
	m.once.Do(func() { m.err = build() })
	return m.err
}

// Suite owns and memoizes the expensive shared state; each memoized
// group has its own memo guard.
type Suite struct {
	Cfg Config

	corpusOnce sync.Once
	corpus     []*webpage.Page

	adCorpusOnce sync.Once
	adCorpus     []*webpage.Page

	tlVal        memo
	tlValidation *core.Campaign
	tlValPaid    *core.RunResult
	tlValTrusted *core.RunResult

	abVal        memo
	abValidation *core.Campaign
	abValPaid    *core.RunResult
	abValTrusted *core.RunResult

	tlFinalMemo memo
	tlFinalRun  *core.RunResult
	tlFinal     *core.Campaign

	abH1H2Memo memo
	abH1H2     *core.Campaign
	abH1H2Run  *core.RunResult

	adsMemo    memo
	adsFinal   *core.Campaign
	adsRun     *core.RunResult
	adsBlocker []string // blocker name per pair index
}

// NewSuite creates a suite; campaigns build lazily on first use.
func NewSuite(cfg Config) *Suite {
	if cfg.FinalSites <= 0 || cfg.ValidationSites <= 0 {
		cfg = PaperConfig()
	}
	return &Suite{Cfg: cfg}
}

// Corpus returns the final site sample (built once).
func (s *Suite) Corpus() []*webpage.Page {
	s.corpusOnce.Do(func() {
		s.corpus = sitegen.Generate(sitegen.Config{
			Seed:            s.Cfg.Seed,
			Sites:           s.Cfg.FinalSites,
			AdShare:         0.65,
			ComplexityScale: 1,
		})
	})
	return s.corpus
}

// AdCorpus returns the ad-displaying site sample.
func (s *Suite) AdCorpus() []*webpage.Page {
	s.adCorpusOnce.Do(func() {
		s.adCorpus = sitegen.GenerateAdCorpus(s.Cfg.Seed+1, s.Cfg.FinalSites)
	})
	return s.adCorpus
}

func (s *Suite) captureCfg(protocol httpsim.Protocol, blocker *adblock.Blocker) webpeg.Config {
	return webpeg.Config{
		Seed:     s.Cfg.Seed,
		Loads:    s.Cfg.Loads,
		Protocol: protocol,
		Blocker:  blocker,
		Workers:  s.Cfg.Workers,
	}
}

// --- campaign builders (memoized) ---

// runCampaign runs a campaign with the suite's worker bound.
func (s *Suite) runCampaign(c *core.Campaign, svc *recruit.Service, n int) (*core.RunResult, error) {
	return core.RunCampaignWorkers(c, svc, n, 0, s.Cfg.Workers)
}

// TimelineValidation returns the paid and trusted runs of the §4.1
// validation timeline campaign.
func (s *Suite) TimelineValidation() (paid, trusted *core.RunResult, err error) {
	if err := s.tlVal.do(s.buildTimelineValidation); err != nil {
		return nil, nil, err
	}
	return s.tlValPaid, s.tlValTrusted, nil
}

func (s *Suite) buildTimelineValidation() error {
	pages := s.Corpus()[:s.Cfg.ValidationSites]
	var err error
	s.tlValidation, err = core.BuildTimelineCampaign("val-timeline", pages, s.captureCfg(httpsim.HTTP2, nil))
	if err != nil {
		return err
	}
	s.tlValPaid, err = s.runCampaign(s.tlValidation, recruit.CrowdFlower, s.Cfg.ValidationParticipants)
	if err != nil {
		return err
	}
	s.tlValTrusted, err = s.runCampaign(s.tlValidation, recruit.TrustedInvites, s.Cfg.ValidationParticipants)
	if err != nil {
		return err
	}
	s.tlValidation.ReleaseVideos()
	return nil
}

// ABValidation returns the paid and trusted runs of the §4.1 validation
// HTTP/1.1-vs-HTTP/2 A/B campaign.
func (s *Suite) ABValidation() (paid, trusted *core.RunResult, err error) {
	if err := s.abVal.do(s.buildABValidation); err != nil {
		return nil, nil, err
	}
	return s.abValPaid, s.abValTrusted, nil
}

func (s *Suite) buildABValidation() error {
	pages := s.Corpus()[:s.Cfg.ValidationSites]
	var err error
	s.abValidation, err = core.BuildABCampaign("val-h1h2",
		pages, s.captureCfg(httpsim.HTTP1, nil), s.captureCfg(httpsim.HTTP2, nil))
	if err != nil {
		return err
	}
	s.abValPaid, err = s.runCampaign(s.abValidation, recruit.CrowdFlower, s.Cfg.ValidationParticipants)
	if err != nil {
		return err
	}
	s.abValTrusted, err = s.runCampaign(s.abValidation, recruit.TrustedInvites, s.Cfg.ValidationParticipants)
	if err != nil {
		return err
	}
	s.abValidation.ReleaseVideos()
	return nil
}

// TimelineFinal returns the §5 timeline campaign run (UserPerceivedPLT vs
// metrics).
func (s *Suite) TimelineFinal() (*core.RunResult, error) {
	if err := s.tlFinalMemo.do(s.buildTimelineFinal); err != nil {
		return nil, err
	}
	return s.tlFinalRun, nil
}

func (s *Suite) buildTimelineFinal() error {
	var err error
	s.tlFinal, err = core.BuildTimelineCampaign("final-timeline", s.Corpus(), s.captureCfg(httpsim.HTTP2, nil))
	if err != nil {
		return err
	}
	s.tlFinalRun, err = s.runCampaign(s.tlFinal, recruit.CrowdFlower, s.Cfg.FinalParticipants)
	if err != nil {
		return err
	}
	s.tlFinal.ReleaseVideos()
	return nil
}

// ABH1H2Final returns the §5.3 HTTP/1.1 vs HTTP/2 campaign run.
func (s *Suite) ABH1H2Final() (*core.RunResult, error) {
	if err := s.abH1H2Memo.do(s.buildABH1H2Final); err != nil {
		return nil, err
	}
	return s.abH1H2Run, nil
}

func (s *Suite) buildABH1H2Final() error {
	var err error
	s.abH1H2, err = core.BuildABCampaign("final-h1h2",
		s.Corpus(), s.captureCfg(httpsim.HTTP1, nil), s.captureCfg(httpsim.HTTP2, nil))
	if err != nil {
		return err
	}
	s.abH1H2Run, err = s.runCampaign(s.abH1H2, recruit.CrowdFlower, s.Cfg.FinalParticipants)
	if err != nil {
		return err
	}
	s.abH1H2.ReleaseVideos()
	return nil
}

// AdsFinal returns the §5.4 ad-blocker campaign run: variant A is the
// original (ads) load, variant B the ad-blocked load; sites cycle through
// the three blockers.
func (s *Suite) AdsFinal() (*core.RunResult, []string, error) {
	if err := s.adsMemo.do(s.buildAdsFinal); err != nil {
		return nil, nil, err
	}
	return s.adsRun, s.adsBlocker, nil
}

func (s *Suite) buildAdsFinal() error {
	blockers := adblock.All()
	s.adsBlocker = make([]string, len(s.AdCorpus()))
	var err error
	s.adsFinal, err = core.BuildABCampaignFunc("final-ads", s.AdCorpus(), s.Cfg.Seed, s.Cfg.Workers,
		func(i int, _ *webpage.Page) (webpeg.Config, webpeg.Config) {
			b := blockers[i%len(blockers)]
			s.adsBlocker[i] = b.Name
			// The ad-blocker campaign does not pin the protocol:
			// Chrome defaults to H2 where supported (§3.2).
			return s.captureCfg(httpsim.HTTP2, nil), s.captureCfg(httpsim.HTTP2, b)
		})
	if err != nil {
		return err
	}
	s.adsRun, err = s.runCampaign(s.adsFinal, recruit.CrowdFlower, s.Cfg.FinalParticipants)
	if err != nil {
		return err
	}
	s.adsFinal.ReleaseVideos()
	return nil
}

// --- Table 1 ---

// Table1 returns the seven campaign rows of Table 1.
func (s *Suite) Table1() ([]core.CampaignStats, error) {
	tlPaid, tlTrusted, err := s.TimelineValidation()
	if err != nil {
		return nil, err
	}
	abPaid, abTrusted, err := s.ABValidation()
	if err != nil {
		return nil, err
	}
	tlFinal, err := s.TimelineFinal()
	if err != nil {
		return nil, err
	}
	h1h2, err := s.ABH1H2Final()
	if err != nil {
		return nil, err
	}
	ads, _, err := s.AdsFinal()
	if err != nil {
		return nil, err
	}
	rows := make([]core.CampaignStats, 0, 7)
	for _, r := range []*core.RunResult{tlPaid, tlTrusted, abPaid, abTrusted, tlFinal, h1h2, ads} {
		rows = append(rows, r.Stats())
	}
	return rows, nil
}

// --- §4.2 validation figures ---

// validationRuns returns the four validation runs keyed by
// "<kind>/<class>".
func (s *Suite) validationRuns() (map[string]*core.RunResult, error) {
	tlPaid, tlTrusted, err := s.TimelineValidation()
	if err != nil {
		return nil, err
	}
	abPaid, abTrusted, err := s.ABValidation()
	if err != nil {
		return nil, err
	}
	return map[string]*core.RunResult{
		"timeline/paid":    tlPaid,
		"timeline/trusted": tlTrusted,
		"ab/paid":          abPaid,
		"ab/trusted":       abTrusted,
	}, nil
}

// Figure4a returns time-on-site (minutes) per participant for each
// validation series.
func (s *Suite) Figure4a() (map[string][]float64, error) {
	runs, err := s.validationRuns()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(runs))
	for key, run := range runs {
		for _, rec := range run.Records {
			out[key] = append(out[key], rec.Trace.TotalTime().Minutes())
		}
	}
	return out, nil
}

// Figure4b returns total video actions per participant for each series.
func (s *Suite) Figure4b() (map[string][]float64, error) {
	runs, err := s.validationRuns()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(runs))
	for key, run := range runs {
		for _, rec := range run.Records {
			out[key] = append(out[key], float64(rec.Trace.TotalActions()))
		}
	}
	return out, nil
}

// Figure4c returns the percentage of correct control answers per series.
func (s *Suite) Figure4c() (map[string]float64, error) {
	runs, err := s.validationRuns()
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(runs))
	for key, run := range runs {
		total, passed := 0, 0
		for _, rec := range run.Records {
			tt, pp := rec.ControlResults()
			total += tt
			passed += pp
		}
		if total > 0 {
			out[key] = 100 * float64(passed) / float64(total)
		}
	}
	return out, nil
}

// Figure5 returns per-participant out-of-focus seconds, bucketed by video
// load time L for the paid timeline series, plus the paid A/B and trusted
// timeline references.
func (s *Suite) Figure5() (map[string][]float64, error) {
	runs, err := s.validationRuns()
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, rec := range runs["timeline/paid"].Records {
		maxLoad := time.Duration(0)
		for _, v := range rec.Trace.Videos {
			if v.LoadTime > maxLoad {
				maxLoad = v.LoadTime
			}
		}
		oof := rec.Trace.TotalOutOfFocus().Seconds()
		switch {
		case maxLoad <= 2*time.Second:
			out["timeline L<=2s"] = append(out["timeline L<=2s"], oof)
		case maxLoad <= 10*time.Second:
			out["timeline L<=10s"] = append(out["timeline L<=10s"], oof)
		default:
			out["timeline L<=100s"] = append(out["timeline L<=100s"], oof)
		}
	}
	for _, rec := range runs["ab/paid"].Records {
		out["ab paid"] = append(out["ab paid"], rec.Trace.TotalOutOfFocus().Seconds())
	}
	for _, rec := range runs["timeline/trusted"].Records {
		out["timeline trusted"] = append(out["timeline trusted"], rec.Trace.TotalOutOfFocus().Seconds())
	}
	return out, nil
}

// Figure6a returns raw kept UPLT responses (seconds) for four
// representative videos of the paid validation timeline campaign.
func (s *Suite) Figure6a() (map[string][]float64, error) {
	paid, _, err := s.TimelineValidation()
	if err != nil {
		return nil, err
	}
	byVideo := filtering.TimelineByVideo(paid.KeptRecords())
	out := map[string][]float64{}
	for i := 0; i < 4 && i < len(s.tlValidation.Timeline); i++ {
		id := s.tlValidation.Timeline[i].ID
		out[fmt.Sprintf("video-%d", i+1)] = byVideo[id]
	}
	return out, nil
}

// Figure6b returns the per-video UPLT standard deviations (seconds) under
// progressively tighter wisdom-of-the-crowd filtering.
func (s *Suite) Figure6b() (map[string][]float64, error) {
	paid, trusted, err := s.TimelineValidation()
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	add := func(label string, run *core.RunResult, lo, hi float64) {
		byVideo := filtering.TimelineByVideo(run.KeptRecords())
		for _, vals := range byVideo {
			sm := stats.Sample(vals)
			if lo > 0 || hi < 100 {
				sm = sm.IQRFilter(lo, hi)
			}
			out[label] = append(out[label], sm.Stdev())
		}
	}
	add("paid all", paid, 0, 100)
	add("paid 10-90th", paid, 10, 90)
	add("paid 25-75th", paid, 25, 75)
	add("trusted all", trusted, 0, 100)
	add("trusted 25-75th", trusted, 25, 75)
	return out, nil
}

// Figure6c returns per-video agreement percentages for the validation A/B
// campaign, paid vs trusted.
func (s *Suite) Figure6c() (map[string][]float64, error) {
	paid, trusted, err := s.ABValidation()
	if err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for label, run := range map[string]*core.RunResult{"paid": paid, "trusted": trusted} {
		for _, votes := range filtering.ABByVideo(run.KeptRecords()) {
			out[label] = append(out[label], 100*votes.Agreement())
		}
	}
	return out, nil
}

// --- §5.2 timeline figures ---

// Fig7aRow compares the three stages of one video's answers.
type Fig7aRow struct {
	VideoIndex int
	Submitted  float64 // mean submitted UPLT (s)
	Helper     float64 // mean frame-helper proposal (s)
	Slider     float64 // mean original slider choice (s)
}

// Figure7a returns per-video means of submitted vs helper vs slider values
// for the validation videos.
func (s *Suite) Figure7a() ([]Fig7aRow, error) {
	paid, _, err := s.TimelineValidation()
	if err != nil {
		return nil, err
	}
	type acc struct {
		sub, help, slide float64
		n                int
	}
	accs := map[string]*acc{}
	for _, rec := range paid.KeptRecords() {
		for _, resp := range rec.Timeline {
			if resp.Control {
				continue
			}
			a := accs[resp.VideoID]
			if a == nil {
				a = &acc{}
				accs[resp.VideoID] = a
			}
			a.sub += resp.Submitted.Seconds()
			a.help += resp.Helper.Seconds()
			a.slide += resp.Slider.Seconds()
			a.n++
		}
	}
	rows := make([]Fig7aRow, 0, len(s.tlValidation.Timeline))
	for i, u := range s.tlValidation.Timeline {
		a := accs[u.ID]
		if a == nil || a.n == 0 {
			continue
		}
		rows = append(rows, Fig7aRow{
			VideoIndex: i + 1,
			Submitted:  a.sub / float64(a.n),
			Helper:     a.help / float64(a.n),
			Slider:     a.slide / float64(a.n),
		})
	}
	return rows, nil
}

// upltByVideo returns the mean wisdom-filtered UserPerceivedPLT (seconds)
// per video of a timeline run.
func upltByVideo(run *core.RunResult) map[string]float64 {
	filtered := filtering.WisdomOfCrowd(filtering.TimelineByVideo(run.KeptRecords()))
	out := make(map[string]float64, len(filtered))
	for id, vals := range filtered {
		if len(vals) > 0 {
			out[id] = stats.Sample(vals).Mean()
		}
	}
	return out
}

// Fig7bResult is the scatter-plot data and correlations of Figure 7(b).
type Fig7bResult struct {
	// Points maps metric name to (metric seconds, UPLT seconds) pairs.
	Points map[string][]stats.Point
	// Correlation maps metric name to its Pearson correlation with UPLT.
	Correlation map[string]float64
}

// Figure7b correlates UserPerceivedPLT with the four machine metrics over
// the final timeline campaign.
func (s *Suite) Figure7b() (*Fig7bResult, error) {
	run, err := s.TimelineFinal()
	if err != nil {
		return nil, err
	}
	uplt := upltByVideo(run)
	res := &Fig7bResult{
		Points:      map[string][]stats.Point{},
		Correlation: map[string]float64{},
	}
	for _, m := range metrics.Names {
		var xs, ys []float64
		for _, u := range s.tlFinal.Timeline {
			v, ok := uplt[u.ID]
			if !ok {
				continue
			}
			x := u.PLT.ByName(m).Seconds()
			res.Points[m] = append(res.Points[m], stats.Point{X: x, Y: v})
			xs = append(xs, x)
			ys = append(ys, v)
		}
		r, err := stats.Pearson(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 7b %s: %w", m, err)
		}
		res.Correlation[m] = r
	}
	return res, nil
}

// Figure7c returns the per-video differences UPLT − metric (seconds) for
// each metric.
func (s *Suite) Figure7c() (map[string][]float64, error) {
	run, err := s.TimelineFinal()
	if err != nil {
		return nil, err
	}
	uplt := upltByVideo(run)
	out := map[string][]float64{}
	for _, m := range metrics.Names {
		for _, u := range s.tlFinal.Timeline {
			v, ok := uplt[u.ID]
			if !ok {
				continue
			}
			out[m] = append(out[m], v-u.PLT.ByName(m).Seconds())
		}
	}
	return out, nil
}

// --- §5.3 / §5.4 A/B figures ---

// Fig8aResult holds median agreement per metric-∆ bucket.
type Fig8aResult struct {
	// BucketsMs are the bucket upper bounds in milliseconds.
	BucketsMs []int
	// MedianAgreement maps metric name to median agreement (%) per bucket
	// (NaN-free; buckets with no pairs hold 0).
	MedianAgreement map[string][]float64
}

// Figure8a computes agreement as a function of each metric's ∆ over the
// H1-vs-H2 campaign.
func (s *Suite) Figure8a() (*Fig8aResult, error) {
	run, err := s.ABH1H2Final()
	if err != nil {
		return nil, err
	}
	votes := filtering.ABByVideo(run.KeptRecords())
	res := &Fig8aResult{MedianAgreement: map[string][]float64{}}
	for b := 100; b <= 1700; b += 200 {
		res.BucketsMs = append(res.BucketsMs, b)
	}
	for _, m := range metrics.Names {
		groups := make([][]float64, len(res.BucketsMs))
		for _, u := range s.abH1H2.AB {
			v, ok := votes[u.ID]
			if !ok || v.Total() == 0 {
				continue
			}
			deltaMs := u.PLTA.ByName(m) - u.PLTB.ByName(m)
			if deltaMs < 0 {
				deltaMs = -deltaMs
			}
			ms := int(deltaMs / time.Millisecond)
			for bi, bound := range res.BucketsMs {
				if ms <= bound || bi == len(res.BucketsMs)-1 {
					groups[bi] = append(groups[bi], 100*v.Agreement())
					break
				}
			}
		}
		med := make([]float64, len(groups))
		for i, g := range groups {
			if len(g) > 0 {
				med[i] = stats.Sample(g).Median()
			}
		}
		res.MedianAgreement[m] = med
	}
	return res, nil
}

// Fig8bResult holds per-site H1-vs-H2 scores (0 = H1 faster, 1 = H2
// faster) for all sites and the small/large SpeedIndex-∆ subsets.
type Fig8bResult struct {
	All        []float64
	SmallDelta []float64 // ∆ <= 100 ms
	LargeDelta []float64 // ∆ >= 800 ms
}

// Figure8b computes the H1-vs-H2 score CDFs of §5.3.
func (s *Suite) Figure8b() (*Fig8bResult, error) {
	run, err := s.ABH1H2Final()
	if err != nil {
		return nil, err
	}
	votes := filtering.ABByVideo(run.KeptRecords())
	res := &Fig8bResult{}
	for _, u := range s.abH1H2.AB {
		v, ok := votes[u.ID]
		if !ok {
			continue
		}
		score, ok := v.Score()
		if !ok {
			continue
		}
		res.All = append(res.All, score)
		delta := u.PLTA.SpeedIndex - u.PLTB.SpeedIndex
		if delta < 0 {
			delta = -delta
		}
		if delta <= 100*time.Millisecond {
			res.SmallDelta = append(res.SmallDelta, score)
		}
		if delta >= 800*time.Millisecond {
			res.LargeDelta = append(res.LargeDelta, score)
		}
	}
	return res, nil
}

// Figure8c returns per-site scores (0 = original faster, 1 = ad-blocked
// faster) grouped by blocker.
func (s *Suite) Figure8c() (map[string][]float64, error) {
	run, names, err := s.AdsFinal()
	if err != nil {
		return nil, err
	}
	votes := filtering.ABByVideo(run.KeptRecords())
	out := map[string][]float64{}
	for i, u := range s.adsFinal.AB {
		v, ok := votes[u.ID]
		if !ok {
			continue
		}
		score, ok := v.Score()
		if !ok {
			continue
		}
		out[names[i]] = append(out[names[i]], score)
	}
	return out, nil
}

// --- Figure 1 & Figure 9 ---

// Fig1Result is the data behind the response-timeline visualization.
type Fig1Result struct {
	VideoID   string
	Responses []float64 // kept UPLT responses (s)
	Markers   []viz.Marker
	Duration  float64 // video duration (s)
	Modes     []float64
}

// Figure1 picks the most clearly multi-modal video of the final timeline
// campaign — a site where some participants answer after the main content
// and others after the ads (Figure 1(b)).
func (s *Suite) Figure1() (*Fig1Result, error) {
	run, err := s.TimelineFinal()
	if err != nil {
		return nil, err
	}
	byVideo := filtering.TimelineByVideo(run.KeptRecords())
	var best *core.TimelineUnit
	var bestResponses []float64
	var bestSpread float64
	for _, u := range s.tlFinal.Timeline {
		vals := byVideo[u.ID]
		if len(vals) < 8 {
			continue
		}
		modes := stats.Modes(vals, 0)
		if len(modes) < 2 {
			continue
		}
		spread := modes[len(modes)-1] - modes[0]
		if spread > bestSpread {
			bestSpread = spread
			best = u
			bestResponses = vals
		}
	}
	if best == nil {
		// Fall back to the widest unimodal distribution.
		for _, u := range s.tlFinal.Timeline {
			vals := byVideo[u.ID]
			if len(vals) < 8 {
				continue
			}
			if sd := stats.Sample(vals).Stdev(); sd > bestSpread {
				bestSpread = sd
				best = u
				bestResponses = vals
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("experiments: no video with enough responses for figure 1")
	}
	return &Fig1Result{
		VideoID:   best.ID,
		Responses: bestResponses,
		Markers: []viz.Marker{
			{Name: "onload", At: best.PLT.OnLoad.Seconds()},
			{Name: "speedindex", At: best.PLT.SpeedIndex.Seconds()},
			{Name: "firstvisual", At: best.PLT.FirstVisualChange.Seconds()},
			{Name: "lastvisual", At: best.PLT.LastVisualChange.Seconds()},
		},
		Duration: best.Duration.Seconds(),
		Modes:    stats.Modes(bestResponses, 0),
	}, nil
}

// Fig9Class labels a UserPerceivedPLT distribution shape.
type Fig9Class string

// The three shapes of Figure 9.
const (
	ShapeTight Fig9Class = "tight"
	ShapeWide  Fig9Class = "wide"
	ShapeMulti Fig9Class = "multi-modal"
)

// Fig9Result is the distribution taxonomy over the final timeline videos.
type Fig9Result struct {
	Counts map[Fig9Class]int
	// Examples holds up to three response sets per class for histograms.
	Examples map[Fig9Class][][]float64
}

// Figure9 classifies every final-campaign video's UPLT distribution.
func (s *Suite) Figure9() (*Fig9Result, error) {
	run, err := s.TimelineFinal()
	if err != nil {
		return nil, err
	}
	byVideo := filtering.TimelineByVideo(run.KeptRecords())
	res := &Fig9Result{
		Counts:   map[Fig9Class]int{},
		Examples: map[Fig9Class][][]float64{},
	}
	for _, u := range s.tlFinal.Timeline {
		vals := byVideo[u.ID]
		if len(vals) < 5 {
			continue
		}
		var class Fig9Class
		modes := stats.Modes(vals, 0)
		sd := stats.Sample(vals).Stdev()
		switch {
		case len(modes) >= 2:
			class = ShapeMulti
		case sd <= 1.0:
			class = ShapeTight
		default:
			class = ShapeWide
		}
		res.Counts[class]++
		if len(res.Examples[class]) < 3 {
			res.Examples[class] = append(res.Examples[class], vals)
		}
	}
	return res, nil
}

// ParticipantSummary aggregates demographic counts across the final
// campaigns (the §5.1 narrative: 70/30 gender split, 76 countries,
// Venezuela most common).
type ParticipantSummary struct {
	Male, Female int
	Countries    map[string]int
}

// Participants summarises final-campaign demographics.
func (s *Suite) Participants() (*ParticipantSummary, error) {
	tl, err := s.TimelineFinal()
	if err != nil {
		return nil, err
	}
	h1h2, err := s.ABH1H2Final()
	if err != nil {
		return nil, err
	}
	ads, _, err := s.AdsFinal()
	if err != nil {
		return nil, err
	}
	sum := &ParticipantSummary{Countries: map[string]int{}}
	for _, run := range []*core.RunResult{tl, h1h2, ads} {
		for _, p := range run.Recruitment.Participants {
			switch p.Gender {
			case "m":
				sum.Male++
			case "f":
				sum.Female++
			}
			sum.Countries[p.Country]++
		}
	}
	return sum, nil
}
