// Package crowd simulates Eyeorg's participants. The paper's validation
// section (§4) is a study of *people*: trusted volunteers versus paid
// crowd workers, and within the paid pool the diligent majority versus the
// distracted, the random clickers, the skippers, and the occasional
// frenetic outlier performing hundreds of seeks. crowd models exactly
// those documented behaviour classes, plus the perceptual machinery behind
// the answers:
//
//   - readiness: a participant considers the page "ready to use" when the
//     visual completeness of the content they care about crosses a
//     personal threshold. Ad-indifferent participants watch only main
//     content; ad-waiters watch everything — one mechanism that yields
//     the multi-modal UserPerceivedPLT distributions of Figures 1(b)/9;
//   - slider mechanics: overshoot bias and noise, then the frame-helper
//     interaction (accept the rewind frame, or keep the original);
//   - A/B discrimination: a psychometric choice driven by the perceived
//     per-side readiness gap relative to a personal just-noticeable
//     difference, with a "no difference" band.
package crowd

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/video"
)

// Class separates recruitment pools.
type Class int

// Participant classes (§4.1).
const (
	Trusted Class = iota
	Paid
)

// String returns the class label used in figures.
func (c Class) String() string {
	if c == Trusted {
		return "trusted"
	}
	return "paid"
}

// Behavior is a participant's dominant behavioural class.
type Behavior int

// Behaviour classes observed in the paper's data.
const (
	// Diligent participants do the task conscientiously.
	Diligent Behavior = iota
	// Distracted participants leave the Eyeorg tab for long stretches
	// (the engagement filter's main catch).
	Distracted
	// RandomClicker answers without judgement to finish fast (caught by
	// control questions).
	RandomClicker
	// Skipper submits without interacting with some videos (caught by the
	// soft rule).
	Skipper
	// Frenetic performs implausibly many seek actions — the paper saw
	// 714–1931 seeks and conjectured a browser extension.
	Frenetic
)

var behaviorNames = [...]string{"diligent", "distracted", "random", "skipper", "frenetic"}

// String returns the behaviour label.
func (b Behavior) String() string {
	if int(b) < len(behaviorNames) {
		return behaviorNames[b]
	}
	return fmt.Sprintf("behavior(%d)", int(b))
}

// Participant is one simulated respondent.
type Participant struct {
	ID       string
	Class    Class
	Behavior Behavior
	Country  string
	Gender   string // "m" / "f", for Table 1 demographics

	// ReadyThreshold is the visual-completeness fraction at which the
	// participant considers their watched content ready.
	ReadyThreshold float64
	// WaitsForAds marks participants who include auxiliary content in
	// their notion of "ready".
	WaitsForAds bool
	// JND is the just-noticeable per-side difference in A/B tests.
	JND time.Duration
	// NoDiffBand is the gap below which the participant answers
	// "no difference".
	NoDiffBand time.Duration
	// Overshoot is the median slider overshoot past the perceived instant.
	Overshoot time.Duration
	// NoiseSigma scales response noise.
	NoiseSigma float64
	// BandwidthBps is the participant's downstream bandwidth, which sets
	// video load times (Figure 5's L).
	BandwidthBps float64

	r *rand.Rand
}

// ParticipantID returns the ID a filtering.SessionRecord files the
// participant's session under.
func (p *Participant) ParticipantID() string { return p.ID }

// PopulationConfig controls population synthesis.
type PopulationConfig struct {
	Class Class
	N     int
	// Overrides for behaviour shares (defaults depend on Class).
	Shares *BehaviorShares
}

// BehaviorShares are the mixture weights of the behaviour classes.
type BehaviorShares struct {
	Distracted    float64
	RandomClicker float64
	Skipper       float64
	Frenetic      float64
}

// defaultShares reflects §4's findings: roughly 20% of paid participants
// end up filtered (10–15% engagement, 2–5% soft, 2–8% control), while
// trusted participants are nearly all diligent (a handful distracted, one
// control failure per campaign).
func defaultShares(c Class) BehaviorShares {
	if c == Trusted {
		return BehaviorShares{Distracted: 0.06, RandomClicker: 0.012, Skipper: 0.01, Frenetic: 0}
	}
	return BehaviorShares{Distracted: 0.13, RandomClicker: 0.055, Skipper: 0.035, Frenetic: 0.004}
}

// paidCountries approximates the 30-country paid pool, Venezuela first
// (§4.1); trustedCountries the 12-country trusted pool, US first.
var paidCountries = []string{
	"VE", "IN", "BD", "EG", "RS", "PK", "ID", "PH", "NG", "BR",
	"RO", "MA", "TR", "UA", "MX", "CO", "PE", "VN", "TH", "KE",
	"TN", "AL", "MK", "BO", "LK", "NP", "DZ", "GH", "MD", "AR",
}
var trustedCountries = []string{
	"US", "ES", "GB", "IT", "DE", "FR", "GR", "PT", "NL", "CA", "IE", "CH",
}

// NewPopulation synthesises a participant pool. Participants are
// deterministic functions of (src, cfg): element i is stable across runs.
func NewPopulation(src *rng.Source, cfg PopulationConfig) []*Participant {
	shares := defaultShares(cfg.Class)
	if cfg.Shares != nil {
		shares = *cfg.Shares
	}
	out := make([]*Participant, cfg.N)
	for i := range out {
		out[i] = newParticipant(src.Fork(fmt.Sprintf("%s-%d", cfg.Class, i)), cfg.Class, i, shares)
	}
	return out
}

func newParticipant(src *rng.Source, class Class, idx int, shares BehaviorShares) *Participant {
	r := src.Stream("behavior")
	p := &Participant{
		ID:    fmt.Sprintf("%s-%04d", class, idx),
		Class: class,
		r:     src.Stream("responses"),
	}

	// Behaviour class.
	x := r.Float64()
	switch {
	case x < shares.Frenetic:
		p.Behavior = Frenetic
	case x < shares.Frenetic+shares.RandomClicker:
		p.Behavior = RandomClicker
	case x < shares.Frenetic+shares.RandomClicker+shares.Skipper:
		p.Behavior = Skipper
	case x < shares.Frenetic+shares.RandomClicker+shares.Skipper+shares.Distracted:
		p.Behavior = Distracted
	default:
		p.Behavior = Diligent
	}

	// Demographics: ~72% male pools in both classes (Table 1).
	if r.Float64() < 0.72 {
		p.Gender = "m"
	} else {
		p.Gender = "f"
	}
	countries := paidCountries
	if class == Trusted {
		countries = trustedCountries
	}
	// Zipf-ish country draw: earlier entries more likely.
	ci := int(math.Floor(float64(len(countries)) * math.Pow(r.Float64(), 1.8)))
	if ci >= len(countries) {
		ci = len(countries) - 1
	}
	p.Country = countries[ci]

	// Perception parameters.
	p.ReadyThreshold = rng.Clamp(0.93+r.NormFloat64()*0.05, 0.72, 1.0)
	p.WaitsForAds = r.Float64() < 0.42
	// Side-by-side synchronized videos make small leads visible; JND here
	// is the gap at which the faster side becomes reliably identifiable.
	p.JND = time.Duration(rng.LogNormal(r, float64(160*time.Millisecond), 0.45))
	p.NoDiffBand = time.Duration(rng.LogNormal(r, float64(80*time.Millisecond), 0.5))
	p.Overshoot = time.Duration(rng.LogNormal(r, float64(220*time.Millisecond), 0.7))
	p.NoiseSigma = rng.Clamp(0.12+r.NormFloat64()*0.05, 0.03, 0.4)

	// Connectivity: trusted participants skew faster (friends/colleagues
	// of the researchers); paid workers have a heavy slow tail that
	// produces Figure 5's up-to-100s video load times.
	if class == Trusted {
		p.BandwidthBps = rng.LogNormal(r, 1_500_000, 0.8) // ~12 Mbps median
	} else {
		p.BandwidthBps = rng.LogNormal(r, 500_000, 1.25) // ~4 Mbps median
	}
	if p.BandwidthBps < 8_000 {
		p.BandwidthBps = 8_000
	}

	// Sloppier sub-populations.
	if p.Behavior == RandomClicker {
		p.NoiseSigma *= 3
	}
	return p
}

// PerceivedReady returns when this participant perceives the page as ready
// to use, given the perceptual progress curves of the load.
func (p *Participant) PerceivedReady(pc metrics.PerceptualCurves) time.Duration {
	curve := pc.Main
	if p.WaitsForAds {
		curve = pc.All
	}
	t, ok := metrics.CrossTime(pc.T, curve, p.ReadyThreshold)
	if !ok {
		// Content never settles within the recording; "ready" defaults to
		// the last frame.
		if n := len(pc.T); n > 0 {
			return pc.T[n-1]
		}
		return 0
	}
	return t
}

// PerceivedLoadDelta returns this participant's perceived speed gap
// between two side-by-side loads: positive means variant A felt slower.
// Watching two videos at once, people judge which side's content is
// consistently ahead — the integrated visual-progress lead — rather than
// pinpointing single completion instants. Ad-waiters integrate over all
// content; ad-indifferent participants over main content only, which is
// why A/B pairs whose ad content differs (the blocker campaigns) draw
// more "no difference" answers (§5.4).
func (p *Participant) PerceivedLoadDelta(a, b metrics.PerceptualCurves) time.Duration {
	curveA, curveB := a.Main, b.Main
	if p.WaitsForAds {
		curveA, curveB = a.All, b.All
	}
	return metrics.AreaAbove(a.T, curveA) - metrics.AreaAbove(b.T, curveB)
}

// AnswerTimeline produces this participant's response to a timeline test.
func (p *Participant) AnswerTimeline(test *survey.TimelineTest, pc metrics.PerceptualCurves) *survey.TimelineResponse {
	dur := test.Video.Duration()
	var slider time.Duration
	switch p.Behavior {
	case RandomClicker:
		// Scrolls to an arbitrary point — often the very start or end in a
		// rush to finish (the long heads/tails of Figure 6(a)).
		switch p.r.Intn(3) {
		case 0:
			slider = time.Duration(float64(dur) * 0.02 * p.r.Float64())
		case 1:
			slider = dur - time.Duration(float64(dur)*0.05*p.r.Float64())
		default:
			slider = time.Duration(p.r.Float64() * float64(dur))
		}
	default:
		perceived := p.PerceivedReady(pc)
		noise := time.Duration(p.r.NormFloat64() * p.NoiseSigma * float64(time.Second))
		overshoot := time.Duration(rng.LogNormal(p.r, float64(p.Overshoot), 0.6))
		slider = perceived + overshoot + noise
	}
	if slider < 0 {
		slider = 0
	}
	if slider > dur {
		slider = dur
	}
	// Slider positions land on frame boundaries.
	slider = test.Video.FrameTime(test.Video.FrameIndexAt(slider))

	resp := &survey.TimelineResponse{
		VideoID: test.VideoID,
		Slider:  slider,
		Control: test.Control,
	}

	if test.Control {
		// The helper proposes a drastically different (near-blank) frame.
		// Conscientious participants keep their own choice; random
		// clickers blindly accept half the time.
		resp.Helper = 0
		acceptBlind := 0.02
		if p.Behavior == RandomClicker {
			acceptBlind = 0.55
		}
		if p.r.Float64() < acceptBlind {
			resp.AcceptedHelper = true
			resp.Submitted = resp.Helper
			resp.ControlPassed = false
		} else {
			resp.AcceptedHelper = false
			resp.Submitted = slider
			resp.ControlPassed = true
		}
	} else {
		rewind := test.ProposeRewind(slider)
		resp.Helper = rewind
		// Figure 7(a): most submitted values match the helper suggestion;
		// the average slider-vs-submitted gap is ~300ms.
		accept := 0.85
		if p.Behavior == RandomClicker {
			accept = 0.5
		}
		if rewind < slider && p.r.Float64() < accept {
			resp.AcceptedHelper = true
			resp.Submitted = rewind
		} else {
			resp.Submitted = slider
		}
		resp.ControlPassed = true
	}
	resp.Trace = p.timelineTrace(test)
	return resp
}

// AnswerAB produces this participant's response to an A/B test. delta is
// the participant's perceived speed gap (PerceivedLoadDelta): positive
// means variant A felt slower.
func (p *Participant) AnswerAB(test *survey.ABTest, delta time.Duration) *survey.ABResponse {
	resp := &survey.ABResponse{
		VideoID: test.VideoID,
		AOnLeft: test.AOnLeft,
		Control: test.Control,
	}

	var choice survey.ABChoice
	switch {
	case p.Behavior == RandomClicker:
		choice = survey.ABChoice(p.r.Intn(3))
	case test.Control:
		// One side is identical but delayed 3s: obvious to anyone paying
		// attention. A small lapse rate remains (one trusted participant
		// failed per campaign in the paper).
		if p.r.Float64() < 0.015 {
			choice = test.DelayedSide
		} else if p.r.Float64() < 0.05 {
			choice = survey.ChoiceNoDifference
		} else {
			if test.DelayedSide == survey.ChoiceLeft {
				choice = survey.ChoiceRight
			} else {
				choice = survey.ChoiceLeft
			}
		}
	default:
		choice = p.abDecision(test, delta)
	}

	resp.Choice = choice
	resp.ControlPassed = test.ControlPassed(choice)
	resp.Trace = p.abTrace(test)
	return resp
}

// abDecision implements the psychometric choice.
func (p *Participant) abDecision(test *survey.ABTest, delta time.Duration) survey.ABChoice {
	mag := delta
	if mag < 0 {
		mag = -mag
	}
	// Inside the personal no-difference band, mostly answer accordingly.
	if mag <= p.NoDiffBand {
		x := p.r.Float64()
		switch {
		case x < 0.62:
			return survey.ChoiceNoDifference
		case x < 0.81:
			return p.sideChoice(test, true)
		default:
			return p.sideChoice(test, false)
		}
	}
	// Outside the band: probability of picking the truly faster side grows
	// with the gap relative to the personal JND.
	pCorrect := 1 - 0.5*math.Exp(-float64(mag)/float64(p.JND))
	const lapse = 0.03
	pCorrect = pCorrect*(1-lapse) + lapse*0.5
	aFaster := delta < 0
	if p.r.Float64() < pCorrect {
		return p.sideChoice(test, aFaster)
	}
	// Errors split between the wrong side and "no difference".
	if p.r.Float64() < 0.45 {
		return survey.ChoiceNoDifference
	}
	return p.sideChoice(test, !aFaster)
}

// sideChoice maps "variant A (or B) is faster" to a screen side.
func (p *Participant) sideChoice(test *survey.ABTest, pickA bool) survey.ABChoice {
	if pickA == test.AOnLeft {
		return survey.ChoiceLeft
	}
	return survey.ChoiceRight
}

// --- engagement traces ---

// timelineTrace synthesises the instrumentation record for a timeline test.
// Timeline tests preload the whole video before the slider unlocks, so the
// video load time contributes to time-on-site and drives distraction
// (Figure 5).
func (p *Participant) timelineTrace(test *survey.TimelineTest) survey.VideoTrace {
	loadTime := time.Duration(float64(videoBytes(test.Video)) / p.BandwidthBps * float64(time.Second))
	tr := survey.VideoTrace{
		VideoID:  test.VideoID,
		LoadTime: loadTime,
	}
	switch p.Behavior {
	case Skipper:
		if p.r.Float64() < 0.5 {
			// Submits without touching the slider on some videos.
			tr.TimeOnVideo = loadTime + time.Duration(rng.LogNormal(p.r, float64(2*time.Second), 0.4))
			tr.WatchedFraction = 0
			return tr
		}
		fallthrough
	case Diligent, Distracted, RandomClicker:
		tr.Seeks = 6 + p.r.Intn(40)
		tr.Plays = p.r.Intn(2)
		tr.Pauses = p.r.Intn(2)
		tr.WatchedFraction = 0.5 + p.r.Float64()*0.5
		task := time.Duration(rng.LogNormal(p.r, float64(16*time.Second), 0.45))
		if p.Behavior == RandomClicker {
			tr.Seeks = 1 + p.r.Intn(4)
			task = time.Duration(rng.LogNormal(p.r, float64(4*time.Second), 0.4))
			tr.WatchedFraction = 0.05 + p.r.Float64()*0.3
		}
		tr.TimeOnVideo = loadTime + task
	case Frenetic:
		tr.Seeks = 120 + p.r.Intn(210)
		tr.Plays = p.r.Intn(3)
		tr.WatchedFraction = 1
		tr.TimeOnVideo = loadTime + time.Duration(rng.LogNormal(p.r, float64(12*time.Second), 0.3))
	}
	tr.OutOfFocus = p.outOfFocus(loadTime)
	return tr
}

// abTrace synthesises the record for an A/B test: playback starts
// immediately (streaming), so load time does not gate the task.
func (p *Participant) abTrace(test *survey.ABTest) survey.VideoTrace {
	loadTime := time.Duration(float64(videoBytes(test.Spliced)) / p.BandwidthBps * float64(time.Second) / 4)
	tr := survey.VideoTrace{
		VideoID:  test.VideoID,
		LoadTime: loadTime,
	}
	switch p.Behavior {
	case Skipper:
		if p.r.Float64() < 0.5 {
			tr.TimeOnVideo = time.Duration(rng.LogNormal(p.r, float64(1500*time.Millisecond), 0.4))
			return tr
		}
		fallthrough
	case Diligent, Distracted:
		tr.Plays = 1 + p.r.Intn(2)
		tr.Seeks = p.r.Intn(3)
		tr.WatchedFraction = 0.7 + p.r.Float64()*0.3
		tr.TimeOnVideo = time.Duration(rng.LogNormal(p.r, float64(6*time.Second), 0.4))
	case RandomClicker:
		tr.Plays = 1
		tr.WatchedFraction = 0.05 + p.r.Float64()*0.25
		tr.TimeOnVideo = time.Duration(rng.LogNormal(p.r, float64(2500*time.Millisecond), 0.4))
	case Frenetic:
		tr.Plays = 1
		tr.Seeks = 90 + p.r.Intn(160)
		tr.WatchedFraction = 1
		tr.TimeOnVideo = time.Duration(rng.LogNormal(p.r, float64(5*time.Second), 0.3))
	}
	// A/B participants are only as distracted as timeline participants
	// with fast video loads (§4.2, Figure 5).
	tr.OutOfFocus = p.outOfFocus(0)
	return tr
}

// videoBytes returns the transfer size of a video, with a typical default
// when the caller provided only timing information (no frames).
func videoBytes(v *video.Video) int64 {
	if v == nil || len(v.Frames) == 0 {
		return 600_000
	}
	return v.WebmBytes()
}

// outOfFocus models tab-switching: longer video loads make everyone more
// likely to wander off; Distracted participants wander regardless.
func (p *Participant) outOfFocus(loadTime time.Duration) time.Duration {
	if p.Behavior == Distracted {
		return time.Duration(rng.LogNormal(p.r, float64(25*time.Second), 0.7))
	}
	pSwitch := 0.06
	if loadTime > 2*time.Second {
		pSwitch = 0.1
	}
	if loadTime > 10*time.Second {
		pSwitch = 0.16
	}
	if loadTime > 40*time.Second {
		pSwitch = 0.25
	}
	if p.r.Float64() > pSwitch {
		return 0
	}
	base := float64(1200 * time.Millisecond)
	if loadTime > 0 {
		// Distraction scales with the wait but stays mostly under the
		// 10s filter when the wait explains it.
		base = float64(loadTime) * 0.35
	}
	return time.Duration(rng.LogNormal(p.r, base, 0.8))
}

// InstructionTime models time spent reading the instructions.
func (p *Participant) InstructionTime() time.Duration {
	median := 28 * time.Second
	if p.Class == Paid {
		median = 22 * time.Second
	}
	if p.Behavior == RandomClicker {
		median = 5 * time.Second
	}
	return time.Duration(rng.LogNormal(p.r, float64(median), 0.5))
}
