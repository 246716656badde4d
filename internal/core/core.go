// Package core is the Eyeorg platform itself: it turns captured page-load
// videos into experiment campaigns, recruits participants, serves each of
// them their assignment of tests plus control questions, collects
// responses with full engagement instrumentation, and hands the result to
// the filtering pipeline — the end-to-end loop of §3.
package core

import (
	"fmt"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/parallel"
	"github.com/eyeorg/eyeorg/internal/recruit"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpage"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// Kind is the experiment type of a campaign.
type Kind int

// Campaign kinds (§3.2).
const (
	TimelineKind Kind = iota
	ABKind
)

// String returns the kind label.
func (k Kind) String() string {
	if k == TimelineKind {
		return "timeline"
	}
	return "a/b"
}

// VideosPerParticipant is how many (non-control) tests each participant
// answers (§4.1: "we asked each participant to watch six videos").
const VideosPerParticipant = 6

// TimelineUnit is one video of a timeline campaign, with everything needed
// to both ask humans about it and compute machine metrics for it.
type TimelineUnit struct {
	ID     string
	Video  *video.Video
	Curves metrics.PerceptualCurves
	PLT    metrics.PLT
	// Duration survives ReleaseVideos for post-run visualization.
	Duration time.Duration
}

// ABUnit is one side-by-side pair of an A/B campaign.
type ABUnit struct {
	ID   string
	Test *survey.ABTest
	// RawA is variant A's standalone video (used to build control
	// questions).
	RawA *video.Video
	// CurvesA/B drive per-participant perception of each side.
	CurvesA, CurvesB metrics.PerceptualCurves
	// PLTA/B are the machine metrics of each side.
	PLTA, PLTB metrics.PLT

	control *survey.ABTest // lazily built control question
}

// Campaign is a fully built experiment ready to run.
type Campaign struct {
	Name     string
	Kind     Kind
	Timeline []*TimelineUnit
	AB       []*ABUnit
	Seed     int64
}

// Units returns the number of experiment units.
func (c *Campaign) Units() int {
	if c.Kind == TimelineKind {
		return len(c.Timeline)
	}
	return len(c.AB)
}

// AuxTiles returns the raster values of a page's auxiliary (ad/widget)
// content — the tiles ad-indifferent participants ignore when judging
// readiness.
func AuxTiles(p *webpage.Page) map[vision.Tile]bool {
	aux := make(map[vision.Tile]bool)
	for i, o := range p.Objects {
		if o.Aux && o.Visible() {
			aux[webpage.TileValue(i)] = true
		}
	}
	return aux
}

// BuildTimelineCampaign captures every page under cfg and assembles the
// timeline campaign of §3.2. Pages capture concurrently (cfg.Workers
// bounds the pool; 0 = NumCPU) and units are assembled in page order, so
// the campaign is identical for any worker count.
func BuildTimelineCampaign(name string, pages []*webpage.Page, cfg webpeg.Config) (*Campaign, error) {
	c := &Campaign{Name: name, Kind: TimelineKind, Seed: cfg.Seed}
	units, err := parallel.Map(cfg.Workers, len(pages), func(i int) (*TimelineUnit, error) {
		page := pages[i]
		cap, err := webpeg.CaptureSite(page, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: building %s: %w", name, err)
		}
		aux := AuxTiles(page)
		return &TimelineUnit{
			ID:       fmt.Sprintf("%s/video-%03d", name, i),
			Video:    cap.Video,
			Curves:   metrics.Curves(cap.Video, aux),
			PLT:      metrics.Compute(cap.Video, cap.Selected.OnLoad),
			Duration: cap.Video.Duration(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	c.Timeline = units
	return c, nil
}

// BuildABCampaign captures every page under two configurations (variant A
// and variant B) and assembles the A/B campaign. Sides are placed in
// random (seeded) order, as the paper randomizes A's screen side.
// Like the campaign seed, the concurrency bound comes from variant A's
// config: cfgA.Workers governs the build, cfgB.Workers is ignored.
func BuildABCampaign(name string, pages []*webpage.Page, cfgA, cfgB webpeg.Config) (*Campaign, error) {
	return BuildABCampaignFunc(name, pages, cfgA.Seed, cfgA.Workers,
		func(int, *webpage.Page) (webpeg.Config, webpeg.Config) { return cfgA, cfgB })
}

// BuildABCampaignFunc is the general A/B builder: choose returns the two
// capture configurations for each page, so campaigns can vary treatment
// per site (the ad-blocker campaign assigns a different extension to each
// site, §3.2). Pages capture concurrently (workers bounds the pool;
// 0 = NumCPU). The seeded screen-side randomization is drawn for every
// page up front, in page order, so the campaign is byte-identical to a
// serial build. choose may be called concurrently for distinct indexes.
func BuildABCampaignFunc(name string, pages []*webpage.Page, seed int64, workers int, choose func(i int, p *webpage.Page) (webpeg.Config, webpeg.Config)) (*Campaign, error) {
	c := &Campaign{Name: name, Kind: ABKind, Seed: seed}
	sideRng := rng.New(seed).Fork("ab-sides-" + name).Stream("side")
	aOnLeft := make([]bool, len(pages))
	for i := range aOnLeft {
		aOnLeft[i] = sideRng.Intn(2) == 0
	}
	units, err := parallel.Map(workers, len(pages), func(i int) (*ABUnit, error) {
		page := pages[i]
		cfgA, cfgB := choose(i, page)
		capA, err := webpeg.CaptureSite(page, cfgA)
		if err != nil {
			return nil, fmt.Errorf("core: building %s variant A: %w", name, err)
		}
		capB, err := webpeg.CaptureSite(page, cfgB)
		if err != nil {
			return nil, fmt.Errorf("core: building %s variant B: %w", name, err)
		}
		id := fmt.Sprintf("%s/pair-%03d", name, i)
		test, err := survey.MakeAB(id, capA.Video, capB.Video, aOnLeft[i])
		if err != nil {
			return nil, err
		}
		aux := AuxTiles(page)
		return &ABUnit{
			ID:      id,
			Test:    test,
			RawA:    capA.Video,
			CurvesA: metrics.Curves(capA.Video, aux),
			CurvesB: metrics.Curves(capB.Video, aux),
			PLTA:    metrics.Compute(capA.Video, capA.Selected.OnLoad),
			PLTB:    metrics.Compute(capB.Video, capB.Selected.OnLoad),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	c.AB = units
	return c, nil
}

// ReleaseVideos frees the campaign's frame data once all runs over it are
// complete. Metrics, curves and durations survive; serving the campaign
// again (or through the platform API) requires rebuilding it.
func (c *Campaign) ReleaseVideos() {
	for _, u := range c.Timeline {
		u.Video = nil
	}
	for _, u := range c.AB {
		if u.Test != nil {
			u.Test.Spliced = nil
		}
		u.RawA = nil
		u.control = nil
	}
}

// controlTest returns the unit's cached A/B control question.
func (u *ABUnit) controlTest(delayRight bool) (*survey.ABTest, error) {
	if u.control == nil {
		t, err := survey.MakeABControl(u.ID, u.RawA, delayRight)
		if err != nil {
			return nil, err
		}
		u.control = t
	}
	return u.control, nil
}

// RunResult is a completed campaign: raw records, recruitment accounting,
// and the cleaned outcome.
type RunResult struct {
	Campaign    *Campaign
	Recruitment *recruit.Recruitment
	Records     []*filtering.SessionRecord
	Outcome     *filtering.Outcome
}

// KeptRecords returns the records that survived filtering.
func (r *RunResult) KeptRecords() []*filtering.SessionRecord { return r.Outcome.Kept }

// RunCampaign recruits n participants through svc and collects their
// responses: each participant answers VideosPerParticipant tests assigned
// round-robin (so units get even coverage) plus one control question.
// maxTrustedActions feeds the engagement filter; pass 0 for the published
// constant. Sessions run concurrently on runtime.NumCPU() workers; see
// RunCampaignWorkers for the determinism contract and an explicit bound.
func RunCampaign(c *Campaign, svc *recruit.Service, n, maxTrustedActions int) (*RunResult, error) {
	return RunCampaignWorkers(c, svc, n, maxTrustedActions, 0)
}

// RunCampaignWorkers is RunCampaign with an explicit session concurrency
// bound (0 = runtime.NumCPU()).
//
// Parallel runs are byte-identical to serial runs for the same seed: each
// participant's randomness lives in their own pre-seeded stream (forked
// per participant at recruitment), and the only campaign-level draws —
// the per-participant control-side decisions — are drawn up front, in
// participant order, from the same "controls" stream the serial loop
// consumed. A/B control questions, which the serial path built lazily on
// first use, are pre-built in unit order with the delay side of the first
// participant that reaches each unit (participant j is the first to use
// unit j as control), then served read-only to every session. Records are
// assembled in participant order.
func RunCampaignWorkers(c *Campaign, svc *recruit.Service, n, maxTrustedActions, workers int) (*RunResult, error) {
	if c.Units() == 0 {
		return nil, fmt.Errorf("core: campaign %s has no units", c.Name)
	}
	src := rng.New(c.Seed).Fork("run-" + c.Name)
	recr := svc.Recruit(src.Fork("recruit"), n)
	ctrlRng := src.Stream("controls")

	delayRight := make([]bool, len(recr.Participants))
	for i := range delayRight {
		delayRight[i] = ctrlRng.Intn(2) == 0
	}
	if c.Kind == ABKind {
		for j := 0; j < c.Units() && j < len(delayRight); j++ {
			if _, err := c.AB[j].controlTest(delayRight[j]); err != nil {
				return nil, err
			}
		}
	}

	records, err := parallel.Map(workers, len(recr.Participants), func(pi int) (*filtering.SessionRecord, error) {
		return runSession(c, recr.Participants[pi], pi, delayRight[pi])
	})
	if err != nil {
		return nil, err
	}
	if records == nil {
		records = make([]*filtering.SessionRecord, 0, n)
	}
	out := &RunResult{
		Campaign:    c,
		Recruitment: recr,
		Records:     records,
		Outcome:     filtering.Clean(records, maxTrustedActions),
	}
	return out, nil
}

// runSession serves participant pi their assignment and collects responses.
func runSession(c *Campaign, p *crowd.Participant, pi int, delayRight bool) (*filtering.SessionRecord, error) {
	rec := &filtering.SessionRecord{
		Participant: p,
		Trace:       &survey.SessionTrace{InstructionTime: p.InstructionTime()},
	}
	units := c.Units()
	for k := 0; k < VideosPerParticipant; k++ {
		idx := (pi*VideosPerParticipant + k) % units
		switch c.Kind {
		case TimelineKind:
			u := c.Timeline[idx]
			test := &survey.TimelineTest{VideoID: u.ID, Video: u.Video}
			resp := p.AnswerTimeline(test, u.Curves)
			rec.Timeline = append(rec.Timeline, resp)
			rec.Trace.Videos = append(rec.Trace.Videos, resp.Trace)
		case ABKind:
			u := c.AB[idx]
			// A/B asks which side *loaded* faster: perception follows the
			// integrated visual-progress lead between the two sides.
			resp := p.AnswerAB(u.Test, p.PerceivedLoadDelta(u.CurvesA, u.CurvesB))
			rec.AB = append(rec.AB, resp)
			rec.Trace.Videos = append(rec.Trace.Videos, resp.Trace)
		}
	}

	// One control question per participant, built from one of their units.
	ctrlIdx := pi % units
	switch c.Kind {
	case TimelineKind:
		u := c.Timeline[ctrlIdx]
		test := &survey.TimelineTest{VideoID: u.ID + "#control", Video: u.Video, Control: true}
		resp := p.AnswerTimeline(test, u.Curves)
		rec.Timeline = append(rec.Timeline, resp)
		rec.Trace.Videos = append(rec.Trace.Videos, resp.Trace)
	case ABKind:
		u := c.AB[ctrlIdx]
		test, err := u.controlTest(delayRight)
		if err != nil {
			return nil, err
		}
		// Both sides show the same load; the delayed side is obviously
		// late, which AnswerAB's control branch handles.
		resp := p.AnswerAB(test, 0)
		rec.AB = append(rec.AB, resp)
		rec.Trace.Videos = append(rec.Trace.Videos, resp.Trace)
	}
	return rec, nil
}

// CampaignStats summarises a run for Table 1.
type CampaignStats struct {
	Name         string
	Kind         Kind
	Class        crowd.Class
	Participants int
	Male, Female int
	Countries    int
	Duration     time.Duration
	CostDollars  float64
	Sites        int
	Filtered     filtering.Summary
}

// Stats derives the Table 1 row for a run.
func (r *RunResult) Stats() CampaignStats {
	cs := CampaignStats{
		Name:         r.Campaign.Name,
		Kind:         r.Campaign.Kind,
		Class:        r.Recruitment.Service.Class,
		Participants: len(r.Records),
		Duration:     r.Recruitment.Duration,
		CostDollars:  r.Recruitment.Cost,
		Sites:        r.Campaign.Units(),
		Filtered:     r.Outcome.Summary,
	}
	countries := map[string]bool{}
	// Records[i] is Recruitment.Participants[i]'s session.
	for _, p := range r.Recruitment.Participants {
		// Count only explicit genders; unknown/other values belong in
		// neither Table-1 column.
		switch p.Gender {
		case "m":
			cs.Male++
		case "f":
			cs.Female++
		}
		countries[p.Country] = true
	}
	cs.Countries = len(countries)
	return cs
}
