package adaptive

import (
	"hash/fnv"
	"math"
	"sort"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/stats"
)

// Defaults for Config's zero fields.
const (
	// DefaultHalfWidth is the target 95% half-width: 0.5 seconds of
	// user-perceived load time (timeline) or 0.5 of preference score
	// (A/B — effectively "any consistent majority").
	DefaultHalfWidth = 0.5
	// DefaultMinKept is the fewest kept samples a video may resolve on;
	// below it no interval, however tight, stops collection.
	DefaultMinKept = 5
	// DefaultBootstrapBelow is the sample count under which the seeded
	// bootstrap replaces the normal approximation.
	DefaultBootstrapBelow = 30
	// DefaultResamples is the bootstrap resample count.
	DefaultResamples = 200
	// z95 is the two-sided 95% normal quantile.
	z95 = 1.959963984540054
)

// Config parameterizes estimation and stopping. The zero value selects
// every default.
type Config struct {
	// HalfWidth is the confidence-interval half-width a video must reach
	// to resolve (0 = DefaultHalfWidth).
	HalfWidth float64
	// MinKept is the minimum kept samples before a video may resolve
	// (0 = DefaultMinKept).
	MinKept int
	// BootstrapBelow switches small samples to the seeded bootstrap
	// (0 = DefaultBootstrapBelow).
	BootstrapBelow int
	// Resamples is the bootstrap resample count (0 = DefaultResamples).
	Resamples int
	// Seed keys the bootstrap PRNG: same seed + same journal = same
	// stopping decisions, the crash-replay determinism contract.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.HalfWidth <= 0 {
		c.HalfWidth = DefaultHalfWidth
	}
	if c.MinKept <= 0 {
		c.MinKept = DefaultMinKept
	}
	if c.BootstrapBelow <= 0 {
		c.BootstrapBelow = DefaultBootstrapBelow
	}
	if c.Resamples <= 0 {
		c.Resamples = DefaultResamples
	}
	return c
}

// State is one video's stopping state.
type State string

const (
	StateCollecting State = "collecting"
	StateResolved   State = "resolved"
)

// Interval is one video's current confidence interval.
type Interval struct {
	N    int
	Mean float64
	// HalfWidth is the 95% half-width; valid only when Method is
	// non-empty (two or more samples).
	HalfWidth float64
	// Method names the estimator that produced HalfWidth: "normal",
	// "bootstrap", or "" when no interval is computable yet.
	Method string
}

// Estimator accumulates one video's kept samples in completion order
// and answers interval queries.
type Estimator struct {
	values []float64
	sum    float64
	sumsq  float64
}

// Add appends one kept sample.
func (e *Estimator) Add(v float64) {
	e.values = append(e.values, v)
	e.sum += v
	e.sumsq += v * v
}

// N returns the kept sample count.
func (e *Estimator) N() int { return len(e.values) }

// Interval computes the current 95% interval under cfg. key
// disambiguates the bootstrap stream per video, so two videos with
// identical samples still draw independent resample schedules.
func (e *Estimator) Interval(cfg Config, key string) Interval {
	cfg = cfg.withDefaults()
	n := len(e.values)
	if n == 0 {
		return Interval{}
	}
	mean := e.sum / float64(n)
	if n == 1 {
		return Interval{N: 1, Mean: mean}
	}
	if n < cfg.BootstrapBelow {
		return Interval{N: n, Mean: mean, HalfWidth: e.bootstrapHalfWidth(cfg, key), Method: "bootstrap"}
	}
	// Sample stdev via the running sums; clamp the cancellation error an
	// all-equal stream can leave slightly negative.
	variance := (e.sumsq - e.sum*e.sum/float64(n)) / float64(n-1)
	if variance < 0 {
		variance = 0
	}
	return Interval{
		N: n, Mean: mean,
		HalfWidth: z95 * math.Sqrt(variance/float64(n)),
		Method:    "normal",
	}
}

// bootstrapHalfWidth is the small-sample fallback: half the central 95%
// spread of Resamples resampled means, drawn from a deterministic
// stream keyed by (seed, video, n). Keying on n means each new sample
// re-draws the schedule — the estimate is a pure function of the value
// multiset and the key, independent of when it is asked.
func (e *Estimator) bootstrapHalfWidth(cfg Config, key string) float64 {
	n := len(e.values)
	// The SplitMix64 stream from the seed: stable across platforms and Go
	// versions, which math/rand's generator is not contractually.
	state := bootstrapSeed(cfg.Seed, key, n)
	means := make([]float64, cfg.Resamples)
	for b := range means {
		var sum float64
		for i := 0; i < n; i++ {
			sum += e.values[rng.SplitMix64(state)%uint64(n)]
			state += goldenGamma
		}
		means[b] = sum / float64(n)
	}
	sort.Float64s(means)
	lo := stats.Sample(means).Percentile(2.5)
	hi := stats.Sample(means).Percentile(97.5)
	return (hi - lo) / 2
}

func bootstrapSeed(seed int64, key string, n int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return uint64(seed) ^ h.Sum64() ^ (uint64(n) * goldenGamma)
}

// goldenGamma is SplitMix64's state increment.
const goldenGamma = 0x9e3779b97f4a7c15

// VideoStatus is one video's stopping state for rendering.
type VideoStatus struct {
	Video   string
	State   State
	Kept    int
	Pending int
	Interval
}

// Campaign is one campaign's adaptive state: estimators, stopping
// flags, and the in-flight assignment counts the allocator steers by.
type Campaign struct {
	cfg    Config
	kind   string // "timeline" | "ab"
	videos []string
	est    map[string]*Estimator
	// pending counts journaled-but-not-completed assignment entries per
	// video; maintained verdict-agnostically (see the package comment on
	// provisional DropSoft).
	pending  map[string]int
	resolved map[string]bool
	closed   bool
}

// New starts empty adaptive state for a campaign of the given kind.
func New(kind string, cfg Config) *Campaign {
	return &Campaign{
		cfg:      cfg.withDefaults(),
		kind:     kind,
		est:      map[string]*Estimator{},
		pending:  map[string]int{},
		resolved: map[string]bool{},
	}
}

// Config returns the effective (defaults-applied) configuration.
func (a *Campaign) Config() Config { return a.cfg }

// AddVideo registers one video in the assignment universe. A new
// comparison is by definition unresolved, so a closed campaign reopens.
func (a *Campaign) AddVideo(id string) {
	a.videos = append(a.videos, id)
	a.closed = false
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
// the order the journal produced — so the estimator folds and therefore
// the stopping decisions replay bit-identically.
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

// refresh re-evaluates stopping after a completion: resolution is
// sticky per video, and the campaign closes once every registered video
// has resolved.
func (a *Campaign) refresh() {
	allResolved := len(a.videos) > 0
	for _, v := range a.videos {
		if a.resolved[v] {
			continue
		}
		if e := a.est[v]; e != nil && e.N() >= a.cfg.MinKept {
			if iv := e.Interval(a.cfg, v); iv.Method != "" && iv.HalfWidth <= a.cfg.HalfWidth {
				a.resolved[v] = true
				continue
			}
		}
		allResolved = false
	}
	if allResolved {
		a.closed = true
	}
}

// Closed reports whether every comparison has resolved; the platform
// 409s joins on a closed campaign.
func (a *Campaign) Closed() bool { return a.closed }

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
		if !a.resolved[v] {
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
		n := need{video: v, expected: a.pending[v], width: math.Inf(1), order: i}
		if e := a.est[v]; e != nil {
			n.expected += e.N()
			if iv := e.Interval(a.cfg, v); iv.Method != "" {
				n.width = iv.HalfWidth
			}
		}
		needs[i] = n
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

// Status reports every registered video's stopping state in
// registration order.
func (a *Campaign) Status() []VideoStatus {
	out := make([]VideoStatus, 0, len(a.videos))
	for _, v := range a.videos {
		st := VideoStatus{Video: v, State: StateCollecting, Pending: a.pending[v]}
		if a.resolved[v] {
			st.State = StateResolved
		}
		if e := a.est[v]; e != nil {
			st.Kept = e.N()
			st.Interval = e.Interval(a.cfg, v)
		}
		out = append(out, st)
	}
	return out
}

// Resolved returns how many registered videos have resolved, and the
// total registered.
func (a *Campaign) Resolved() (resolved, total int) {
	for _, v := range a.videos {
		if a.resolved[v] {
			resolved++
		}
	}
	return resolved, len(a.videos)
}
