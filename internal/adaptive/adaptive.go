package adaptive

import (
	"math"
	"slices"
	"sort"

	"github.com/eyeorg/eyeorg/internal/filtering"
)

const (
	// DefaultHalfWidth is the default target half-width, in seconds of
	// user-perceived load time, a timeline video's interval must reach.
	DefaultHalfWidth = 0.5
	// alphaSide is the error allowed on each side of every interval:
	// two sides make the 95% level.
	alphaSide = 0.025
	// noPreferenceMargin is how far from an even split an A/B video's
	// score may lie and still read as no preference: 0.1 is a 60/40
	// split of decisive votes. An interval this narrow needs about 400
	// kept votes when the crowd is split evenly; halving the margin
	// needs about 1,660, more than the 1,000 participants the paper pays
	// for a whole campaign.
	noPreferenceMargin = 0.1
)

// Config parameterizes stopping. The zero value selects every default.
type Config struct {
	// HalfWidth is the half-width, in seconds, a timeline video's
	// interval must reach to resolve (0 = DefaultHalfWidth). A/B videos
	// resolve by verdict and ignore it.
	HalfWidth float64
	// Deprecated: intervals are a pure function of the kept values, so
	// there is nothing to seed. Seed is ignored.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.HalfWidth <= 0 {
		c.HalfWidth = DefaultHalfWidth
	}
	return c
}

// State is one video's stopping state.
type State string

const (
	StateCollecting State = "collecting"
	StateResolved   State = "resolved"
)

// Verdict is the decision a resolved A/B video stopped on.
type Verdict string

const (
	VerdictA    Verdict = "a"
	VerdictB    Verdict = "b"
	VerdictNone Verdict = "none"
)

// Interval is one video's current 95% confidence sequence. Lo is -Inf
// and Hi +Inf while a side is still unbounded.
type Interval struct {
	N      int
	Lo, Hi float64
}

// boundary is the stitched boundary u(n) of Howard, Ramdas, McAuliffe
// & Sekhon (Ann. Statist. 2021) for a sum of n ¼-sub-Gaussian terms,
// with alphaSide per side. It holds at every n at once, so checking
// after each completion is safe. Below n = 4 it is +Inf.
func boundary(n int) float64 {
	v := float64(n) / 4
	if v < 1 {
		return math.Inf(1)
	}
	return 1.7 * math.Sqrt(v*(math.Log(math.Log(2*v))+0.72*math.Log(5.2/alphaSide)))
}

// Estimator holds one video's kept samples, sorted, and their sum.
type Estimator struct {
	values []float64
	sum    float64
}

// Add folds one kept sample.
func (e *Estimator) Add(v float64) {
	i, _ := slices.BinarySearch(e.values, v)
	e.values = slices.Insert(e.values, i, v)
	e.sum += v
}

// Interval computes the current confidence sequence for a campaign of
// the given kind. An A/B score lies in [0,1], so its sum is
// ¼-sub-Gaussian and the sequence is mean ± u(n)/n. A timeline sample
// has no known bound, so the sequence is for the median: the order
// statistics x₍⌈n/2−u(n)⌉₎ and x₍⌊n/2+u(n)⌋+1₎ (Howard & Ramdas,
// Bernoulli 2022).
func (e *Estimator) Interval(kind string) Interval {
	n := len(e.values)
	iv := Interval{N: n, Lo: math.Inf(-1), Hi: math.Inf(1)}
	u := boundary(n)
	if math.IsInf(u, 1) {
		return iv
	}
	if kind == "ab" {
		mean := e.sum / float64(n)
		iv.Lo, iv.Hi = math.Max(0, mean-u/float64(n)), math.Min(1, mean+u/float64(n))
		return iv
	}
	if lo := int(math.Ceil(float64(n)/2 - u)); lo >= 1 {
		iv.Lo = e.values[lo-1]
	}
	if hi := int(math.Floor(float64(n)/2+u)) + 1; hi <= n {
		iv.Hi = e.values[hi-1]
	}
	return iv
}

// VideoStatus is one video's stopping state for rendering.
type VideoStatus struct {
	Video   string
	State   State
	Pending int
	// Verdict is set on a resolved A/B video.
	Verdict Verdict
	Interval
}

// Campaign is one campaign's adaptive state: estimators, stopping
// verdicts, and the in-flight assignment counts the allocator steers by.
type Campaign struct {
	cfg    Config
	kind   string // "timeline" | "ab"
	videos []string
	est    map[string]*Estimator
	// pending counts journaled-but-not-completed assignment entries per
	// video; maintained verdict-agnostically (see the package comment on
	// provisional DropSoft).
	pending map[string]int
	// resolved holds each resolved video's verdict ("" on timeline).
	resolved map[string]Verdict
}

// New starts empty adaptive state for a campaign of the given kind.
func New(kind string, cfg Config) *Campaign {
	return &Campaign{
		cfg:      cfg.withDefaults(),
		kind:     kind,
		est:      map[string]*Estimator{},
		pending:  map[string]int{},
		resolved: map[string]Verdict{},
	}
}

// Config returns the effective (defaults-applied) configuration.
func (a *Campaign) Config() Config { return a.cfg }

// AddVideo registers one video in the assignment universe. A new
// comparison is by definition unresolved, so a closed campaign reopens.
func (a *Campaign) AddVideo(id string) {
	a.videos = append(a.videos, id)
}

// RemoveVideo takes a banned video out of the assignment universe: no
// participant is assigned it again, so it must not hold the campaign
// open.
func (a *Campaign) RemoveVideo(id string) {
	a.videos = slices.DeleteFunc(a.videos, func(v string) bool { return v == id })
}

// NoteJoin records one journaled session's assignment: each entry
// (control included) is an expected sample the allocator must not
// re-solicit. Called once per session, in journal order.
func (a *Campaign) NoteJoin(videos []string) {
	for _, v := range videos {
		a.pending[v]++
	}
}

// Complete folds one completed session: releases its pending
// assignment entries and, for a kept session, feeds the estimators and
// refreshes the stopping state. Calls must arrive in completion order —
// the order the journal produced — so the stopping decisions replay
// bit-identically.
func (a *Campaign) Complete(rec *filtering.SessionRecord, verdict filtering.Reason) {
	kept := verdict == filtering.Kept
	for _, r := range rec.Timeline {
		a.pending[r.VideoID]--
		if kept && !r.Control {
			a.observe(r.VideoID, r.Submitted.Seconds())
		}
	}
	for _, r := range rec.AB {
		a.pending[r.VideoID]--
		if kept && !r.Control {
			switch {
			case r.PickedA():
				a.observe(r.VideoID, 1)
			case r.PickedB():
				a.observe(r.VideoID, 0)
			default:
				a.observe(r.VideoID, 0.5)
			}
		}
	}
	a.refresh()
}

func (a *Campaign) observe(video string, v float64) {
	e := a.est[video]
	if e == nil {
		e = &Estimator{}
		a.est[video] = e
	}
	e.Add(v)
}

func (a *Campaign) interval(video string) Interval {
	if e := a.est[video]; e != nil {
		return e.Interval(a.kind)
	}
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// refresh re-evaluates stopping after a completion; resolution is
// sticky per video.
func (a *Campaign) refresh() {
	for _, v := range a.videos {
		if _, done := a.resolved[v]; !done {
			if verdict, ok := a.stop(a.interval(v)); ok {
				a.resolved[v] = verdict
			}
		}
	}
}

// stop is the stopping rule. A timeline video stops once half its
// interval's width is at most HalfWidth. An A/B video stops once its
// interval excludes an even split (a preference for A or B) or fits
// within noPreferenceMargin of it (no preference).
func (a *Campaign) stop(iv Interval) (Verdict, bool) {
	if a.kind != "ab" {
		return "", (iv.Hi-iv.Lo)/2 <= a.cfg.HalfWidth
	}
	switch {
	case iv.Lo > 0.5:
		return VerdictA, true
	case iv.Hi < 0.5:
		return VerdictB, true
	case iv.Lo >= 0.5-noPreferenceMargin && iv.Hi <= 0.5+noPreferenceMargin:
		return VerdictNone, true
	}
	return "", false
}

// Closed reports whether every registered video has resolved; the
// platform 409s joins on a closed campaign.
func (a *Campaign) Closed() bool {
	resolved, total := a.Resolved()
	return total > 0 && resolved == total
}

// Assign returns the allocation pool for the next session's assignment:
// the unresolved subset of live (the campaign's unbanned videos),
// most-needed first — or all of live when everything has resolved (the
// close/join race window). Callers cycle the pool to fill the
// assignment. Pure function of the campaign state and live's order, so
// identical journal state yields identical assignments on any worker
// count and across crash+replay.
func (a *Campaign) Assign(live []string) []string {
	pool := make([]string, 0, len(live))
	for _, v := range live {
		if _, done := a.resolved[v]; !done {
			pool = append(pool, v)
		}
	}
	if len(pool) == 0 {
		pool = append(pool, live...)
	}
	type need struct {
		video    string
		expected int // kept + in-flight: samples already bought
		width    float64
		order    int
	}
	needs := make([]need, len(pool))
	for i, v := range pool {
		iv := a.interval(v)
		needs[i] = need{video: v, expected: a.pending[v] + iv.N, width: iv.Hi - iv.Lo, order: i}
	}
	sort.SliceStable(needs, func(i, j int) bool {
		if needs[i].expected != needs[j].expected {
			return needs[i].expected < needs[j].expected
		}
		if needs[i].width != needs[j].width {
			return needs[i].width > needs[j].width
		}
		return needs[i].order < needs[j].order
	})
	for i, n := range needs {
		pool[i] = n.video
	}
	return pool
}

// Status appends every registered video's stopping state to dst, in
// registration order, and returns it.
func (a *Campaign) Status(dst []VideoStatus) []VideoStatus {
	for _, v := range a.videos {
		st := VideoStatus{Video: v, State: StateCollecting, Pending: a.pending[v], Interval: a.interval(v)}
		if verdict, done := a.resolved[v]; done {
			st.State, st.Verdict = StateResolved, verdict
		}
		dst = append(dst, st)
	}
	return dst
}

// Resolved returns how many registered videos have resolved, and the
// total registered.
func (a *Campaign) Resolved() (resolved, total int) {
	for _, v := range a.videos {
		if _, done := a.resolved[v]; done {
			resolved++
		}
	}
	return resolved, len(a.videos)
}
