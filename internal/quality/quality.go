// Package quality is the platform server's §4.3 response-cleaning
// implementation: an incremental fold, updated on every engagement batch
// and answer, that both GET /results and GET /analytics render from. The
// server never replays sessions through the batch pipeline
// (internal/filtering) and does not keep what that would need: once a
// session completes it folds into its Campaign and its Tracker, traces
// included, is released.
//
// # The §4.3 rules, in application order
//
// A participant's session is classified by the first rule that fires:
//
//  1. Engagement (seek count): total player interactions above
//     filtering.SeekFactor times the trusted ceiling.
//  2. Engagement (focus): any video whose out-of-focus time exceeds
//     filtering.FocusLimit without a longer video delivery excusing it.
//  3. Soft rule: any assigned video never played nor scrubbed.
//  4. Control: any control question answered wrong.
//
// Surviving timeline responses then pass the wisdom-of-the-crowd band:
// per video, only submissions between the 25th and 75th percentiles are
// kept.
//
// # The incremental-equivalence contract
//
// The package maintains two layers of state. A Tracker follows one
// session: per-video engagement counters (weighted by how many
// assignment entries share the video), a focus-violation count, an
// interacted-video count for the soft rule, and control outcomes —
// updated as batches and answers arrive, replacement batches included.
// A Campaign aggregates completed sessions: the Summary histogram,
// per-video sketches of the timeline submissions (each distinct value
// kept once, with its count) for the band, and
// per-video A/B vote tallies; a participant's verdict stays with the
// session, as the frozen Snapshot the platform renders /analytics from.
//
// The contract that makes this safe as the only source of verdicts is
// equivalence with the offline batch: after any interleaving of events
// and responses — including a crash and journal replay in between — a
// Tracker's Verdict on a completed session equals filtering.Classify on
// the session's materialized record, and a Campaign's aggregates equal
// filtering.Clean plus filtering.WisdomOfCrowd / filtering.ABByVideo
// over the same records in the same completion order. internal/filtering
// is that reference (and internal/core's offline pipeline), not a second
// path in the server. The property suites in this package and in
// internal/platform enforce the contract over randomized schedules,
// worker counts and crash points, building the reference's records from
// what the test clients sent; every float is computed by the same code
// path as the batch (a sketch's percentiles interpolate through
// stats.PercentileOf, as stats.Sample.Percentile does, and its in-band
// sum adds the same values in the same order), so equality is exact,
// not approximate.
//
// A render does not re-add every kept answer. Each sketch memoizes, in
// one slot, its last band's in-band count and sum, and the distinct
// values on either side of each bound. While the next render's bounds
// fall between the same neighbours, no answer already summed has
// crossed a bound, so it adds only the answers filed since, in the same
// order the full sum would; when a bound crosses a distinct value, or a
// poll of a custom band takes the slot, that render sums every answer
// once more. The cost of a render is therefore per video, plus per
// distinct value, plus the answers filed since the last render.
package quality

import (
	"math"
	"slices"
	"sync"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/response"
	"github.com/eyeorg/eyeorg/internal/stats"
)

// Tracker follows one session's standing against the per-participant
// §4.3 rules, updated per engagement batch and per answer. It is not
// goroutine-safe: the platform mutates it under the session's shard
// lock.
type Tracker struct {
	// videos holds one entry per distinct assigned video, in the order
	// the assignment first names it. A session is assigned a handful of
	// videos, so a scan finds an entry sooner than a hash would.
	videos []videoEntry

	totalActions   int
	focusBad       int // assigned videos currently violating the focus rule
	interacted     int // assigned videos currently interacted-with
	controls       int
	controlsFailed int
	answered       int
	completed      bool
}

// videoEntry is one distinct assigned video: its ID is trace.VideoID,
// set from the assignment and kept by every replacement. mult counts the
// assignment entries naming the video: the materialized record repeats a
// shared trace once per entry, so engagement totals weight the video's
// counters by it. trace is the latest batch once seen is set, and zero
// before.
type videoEntry struct {
	trace response.VideoTrace
	mult  int
	seen  bool
}

// NewTracker starts a tracker for a session assigned the given videos,
// one entry per assigned test (repeats included).
func NewTracker(assignedVideos []string) *Tracker {
	return &Tracker{videos: entriesOf(assignedVideos)}
}

func entriesOf(assignedVideos []string) []videoEntry {
	videos := make([]videoEntry, 0, len(assignedVideos))
	for _, v := range assignedVideos {
		if i := indexOf(videos, v); i >= 0 {
			videos[i].mult++
		} else {
			videos = append(videos, videoEntry{trace: response.VideoTrace{VideoID: v}, mult: 1})
		}
	}
	return videos
}

func indexOf(videos []videoEntry, id string) int {
	for i := range videos {
		if videos[i].trace.VideoID == id {
			return i
		}
	}
	return -1
}

// focusViolated mirrors rule 2 of filtering.Classify: a long absence
// counts only once the video was delivered within the absence window.
func focusViolated(tr response.VideoTrace) bool {
	return tr.OutOfFocus > filtering.FocusLimit && tr.LoadTime <= tr.OutOfFocus
}

// Observe ingests the latest engagement batch for one video, replacing
// any earlier batch for the same video — exactly as the platform's
// session state keeps only the newest trace. Batches for videos outside
// the assignment never reach the materialized record and are ignored.
func (t *Tracker) Observe(tr response.VideoTrace) {
	i := indexOf(t.videos, tr.VideoID)
	if i < 0 {
		return
	}
	e := &t.videos[i]
	old, had := e.trace, e.seen
	t.totalActions += e.mult * (tr.Actions() - old.Actions())
	if had && focusViolated(old) {
		t.focusBad--
	}
	if focusViolated(tr) {
		t.focusBad++
	}
	if had && old.Interacted() {
		t.interacted--
	}
	if tr.Interacted() {
		t.interacted++
	}
	tr.VideoID = old.VideoID // the assignment's string, not the batch's
	e.trace, e.seen = tr, true
}

// Traces returns the latest engagement batch per assigned video, nil
// when none arrived. The tracker keeps them in its entries, the only
// place an in-flight session keeps them; the map is built per call, for
// snapshots, which serialize it and re-feed a restored tracker through
// Observe.
func (t *Tracker) Traces() map[string]response.VideoTrace {
	var out map[string]response.VideoTrace
	for i := range t.videos {
		if e := &t.videos[i]; e.seen {
			if out == nil {
				out = make(map[string]response.VideoTrace, len(t.videos))
			}
			out[e.trace.VideoID] = e.trace
		}
	}
	return out
}

// AddTimeline ingests one stored timeline answer.
func (t *Tracker) AddTimeline(r *response.TimelineResponse) {
	t.answered++
	if r.Control {
		t.controls++
		if !r.ControlPassed {
			t.controlsFailed++
		}
	}
}

// AddAB ingests one stored A/B answer.
func (t *Tracker) AddAB(r *response.ABResponse) {
	t.answered++
	if r.Control {
		t.controls++
		if !r.ControlPassed {
			t.controlsFailed++
		}
	}
}

// SetCompleted freezes the tracker: the session answered its full
// assignment, so the verdict is final from here on.
func (t *Tracker) SetCompleted() { t.completed = true }

// Verdict classifies the session from the maintained counters, applying
// the rules in §4.3 order. For a completed session it equals
// filtering.Classify on the materialized record with the same ceiling;
// for an in-flight session it is the provisional verdict the operator
// sees live (the soft rule holds until every assigned video has been
// interacted with). maxTrustedActions <= 0 selects the
// filtering.TrustedMaxSeeks fallback, matching Classify.
func (t *Tracker) Verdict(maxTrustedActions int) filtering.Reason {
	if maxTrustedActions <= 0 {
		maxTrustedActions = filtering.TrustedMaxSeeks
	}
	if float64(t.totalActions) > filtering.SeekFactor*float64(maxTrustedActions) {
		return filtering.DropEngagementSeeks
	}
	if t.focusBad > 0 {
		return filtering.DropEngagementFocus
	}
	if t.interacted < len(t.videos) {
		return filtering.DropSoft
	}
	if t.controlsFailed > 0 {
		return filtering.DropControl
	}
	return filtering.Kept
}

// Snapshot is a point-in-time copy of a tracker's observable counters.
// It splits the verdict in two so consumers cannot confuse the live
// reading with a settled one: an in-flight session's Provisional
// verdict almost always reads DropSoft (the soft rule holds until every
// assigned video has been interacted with), so anything that spends
// budget — the adaptive allocator above all — must consult Final and
// treat !Completed sessions as pending, never as dropped. The platform
// takes a session's last Snapshot when it releases the Tracker, and
// stores its counters in the session's frozen record.
type Snapshot struct {
	// Provisional is the first §4.3 rule currently firing; it can still
	// change while the session is in flight.
	Provisional filtering.Reason
	// Final is the frozen verdict of a completed session; meaningful
	// only when Completed is true.
	Final          filtering.Reason
	Completed      bool
	Answered       int
	Actions        int
	Controls       int
	ControlsFailed int
}

// Current returns the verdict to display: Final once the session
// completed, Provisional before.
func (s Snapshot) Current() filtering.Reason {
	if s.Completed {
		return s.Final
	}
	return s.Provisional
}

// FinalVerdict returns the settled verdict and true for a completed
// session, or (0, false) while the verdict can still change.
func (s Snapshot) FinalVerdict() (filtering.Reason, bool) {
	return s.Final, s.Completed
}

// Snapshot captures the tracker's current standing under the default
// trusted ceiling.
func (t *Tracker) Snapshot() Snapshot {
	snap := Snapshot{
		Provisional:    t.Verdict(0),
		Completed:      t.completed,
		Answered:       t.answered,
		Actions:        t.totalActions,
		Controls:       t.controls,
		ControlsFailed: t.controlsFailed,
	}
	if t.completed {
		snap.Final = snap.Provisional
	}
	return snap
}

// Sketch is one video's wisdom-of-the-crowd state: the kept sessions'
// timeline submissions (seconds) as a counted multiset. A submission is
// a frame picked on the video's timeline, so a video's submissions
// repeat a few hundred distinct values at most: each distinct value is
// stored once, with its count, and each submission is one code naming
// its value, kept in completion order for the order-sensitive in-band
// sum. That is 4 bytes per submission plus 16 per distinct value (20 per
// submission if none repeated). Adding a value already seen is a binary
// search and a count increment, and a band's percentiles are one walk
// over the counts; only a new value shifts the distinct values'
// ascending order. The sketch is exact — the
// wisdom-of-the-crowd contract demands equality with the batch filter,
// not an approximation — and its percentiles interpolate through
// stats.PercentileOf, as stats.Sample.Percentile does.
//
// A render resumes the last one. The sketch remembers, in one slot, the
// in-band count and sum over the codes it last summed and, as a
// certificate, the distinct values then nearest each bound: below and
// first around the lower bound (below < lv <= first), last and above
// around the upper (last <= hv < above). No value those codes name lies
// strictly inside either gap, so when the next band's bounds stay
// inside both gaps, each of those codes is in the band exactly when it
// was, and the render adds only the codes filed since. A value seen for
// the first time can only be among those. Otherwise — a bound crossed a
// distinct value — the render sums from the first code. Either way it
// adds the same values in the same order as a sum over Filtered, so the
// mean is bit-exact; and it re-certifies around its own bounds over the
// distinct values as they stand. The slot is keyed by those values, not
// by the percentiles asked for, so a poll of a custom band takes it:
// unless its bounds fall in the same gaps, that poll and the next
// default render each sum from the first code once.
type Sketch struct {
	codes  []uint32  // one per submission, in completion order: an index into vals
	vals   []float64 // the distinct values, in first-seen order
	order  []uint32  // the distinct values' codes, in ascending value order
	counts []uint32  // submissions per distinct value, aligned with order

	// mu guards memo: renders read a sketch under a shared campaign lock.
	// It is a leaf lock, taken under the campaign shard lock and held
	// over no other.
	mu   sync.Mutex
	memo bandMemo
}

// bandMemo is a sketch's last band: the in-band count n and sum over
// codes[:upto], and the certificate that lets the next band resume them.
// The zero memo sums from the first code.
type bandMemo struct {
	upto, n                   int
	sum                       float64
	below, first, last, above float64
}

// Add inserts one submission. Values equal under == share a code, so 0
// and -0 are one value; submissions are durations, which have no -0.
func (sk *Sketch) Add(v float64) {
	i := sk.search(v)
	if i < len(sk.order) && sk.vals[sk.order[i]] == v {
		sk.counts[i]++
		sk.codes = append(sk.codes, sk.order[i])
		return
	}
	code := uint32(len(sk.vals))
	sk.vals = append(sk.vals, v)
	sk.order = slices.Insert(sk.order, i, code)
	sk.counts = slices.Insert(sk.counts, i, 1)
	sk.codes = append(sk.codes, code)
}

// search returns the first ascending position whose value is not below
// v.
func (sk *Sketch) search(v float64) int {
	vals, order := sk.vals, sk.order
	i, j := 0, len(order)
	for i < j {
		m := int(uint(i+j) >> 1)
		if vals[order[m]] < v {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// neighbours returns the distinct values on either side of x: the
// largest below it and the smallest not below it or, when past is set,
// the largest at or below it and the smallest above it. A side with no
// value reads -Inf or +Inf.
func (sk *Sketch) neighbours(x float64, past bool) (lower, upper float64) {
	lower, upper = math.Inf(-1), math.Inf(1)
	i := sk.search(x)
	if past && i < len(sk.order) && sk.vals[sk.order[i]] == x {
		i++ // distinct values: at most one equals x
	}
	if i > 0 {
		lower = sk.vals[sk.order[i-1]]
	}
	if i < len(sk.order) {
		upper = sk.vals[sk.order[i]]
	}
	return lower, upper
}

// Len returns the number of submissions sketched.
func (sk *Sketch) Len() int { return len(sk.codes) }

// Band returns the lo-th and hi-th percentile bounds: exactly
// stats.Sample.Percentile over the same values. The lower bound's order
// statistics are found walking up from the smallest value and the
// upper's walking down from the largest, so the wisdom band reads half
// the counts.
func (sk *Sketch) Band(lo, hi float64) (lv, hv float64) {
	n := len(sk.codes)
	up, down := ranks{sk: sk}, ranks{sk: sk, pos: len(sk.counts), below: n}
	return stats.PercentileOf(n, lo, up.at), stats.PercentileOf(n, hi, down.at)
}

// ranks finds a sketch's order statistics by walking its counts, down
// or up, from where the last lookup stopped.
type ranks struct {
	sk         *Sketch
	pos, below int // an ascending position, and the submissions below it
}

// at returns the k-th smallest submission, from 0.
func (r *ranks) at(k int) float64 {
	counts := r.sk.counts
	for k < r.below {
		r.pos--
		r.below -= int(counts[r.pos])
	}
	for k >= r.below+int(counts[r.pos]) {
		r.below += int(counts[r.pos])
		r.pos++
	}
	return r.sk.vals[r.sk.order[r.pos]]
}

// Filtered returns the submissions inside the [lo, hi] percentile band
// in insertion order: exactly stats.Sample.IQRFilter over the same
// values. The slice is the caller's.
func (sk *Sketch) Filtered(lo, hi float64) []float64 {
	if len(sk.codes) == 0 {
		return nil
	}
	lv, hv := sk.Band(lo, hi)
	out := make([]float64, 0, len(sk.codes))
	for _, c := range sk.codes {
		if v := sk.vals[c]; v >= lv && v <= hv {
			out = append(out, v)
		}
	}
	return out
}

// Band summarises one video's wisdom-of-the-crowd state.
type Band struct {
	// Total counts kept submissions before the band; InBand counts the
	// survivors.
	Total, InBand int
	// Lo and Hi are the percentile bounds in seconds.
	Lo, Hi float64
	// Mean is the mean of the in-band submissions, accumulated in
	// completion order (float addition is order-sensitive).
	Mean float64
}

// Campaign aggregates completed sessions of one campaign incrementally.
// The platform mutates it under the campaign's shard lock, held
// exclusively, and reads it under the same lock, held shared by renders
// that may run at once; TimelineBands, the one read that writes (each
// sketch's memo), takes the sketch's own mutex.
type Campaign struct {
	summary  filtering.Summary
	timeline map[string]*Sketch
	ab       map[string]*filtering.ABVotes
	// timelineIDs and abIDs list the two maps' keys in ascending order,
	// the order a JSON object's keys are rendered in.
	timelineIDs, abIDs []string
}

// NewCampaign starts empty analytics for a campaign. A campaign of
// either kind ("timeline" or "ab") folds through the same aggregates, so
// the kind selects nothing here.
func NewCampaign(kind string) *Campaign {
	return &Campaign{
		timeline: make(map[string]*Sketch),
		ab:       make(map[string]*filtering.ABVotes),
	}
}

// Complete folds one freshly completed session into the aggregates.
// Callers pass the materialized record and the verdict the session's
// tracker reached; calls must arrive in record (completion) order — the
// same order filtering.Clean walks — so the sketches' float accumulation
// matches the batch exactly.
func (c *Campaign) Complete(rec *filtering.SessionRecord, verdict filtering.Reason) {
	c.summary.Total++
	switch verdict {
	case filtering.Kept:
		c.summary.Kept++
	case filtering.DropEngagementSeeks:
		c.summary.EngagementSeeks++
	case filtering.DropEngagementFocus:
		c.summary.EngagementFocus++
	case filtering.DropSoft:
		c.summary.Soft++
	case filtering.DropControl:
		c.summary.Control++
	}
	if verdict != filtering.Kept {
		return
	}
	for _, r := range rec.Timeline {
		if r.Control {
			continue
		}
		c.sketch(r.VideoID).Add(r.Submitted.Seconds())
	}
	for _, r := range rec.AB {
		if r.Control {
			continue
		}
		v := c.ab[r.VideoID]
		if v == nil {
			v = &filtering.ABVotes{}
			c.ab[r.VideoID] = v
			c.abIDs = insertSorted(c.abIDs, r.VideoID)
		}
		switch {
		case r.PickedA():
			v.A++
		case r.PickedB():
			v.B++
		default:
			v.NoDiff++
		}
	}
}

// sketch returns video id's sketch, made at its first kept answer.
func (c *Campaign) sketch(id string) *Sketch {
	sk := c.timeline[id]
	if sk == nil {
		sk = &Sketch{}
		c.timeline[id] = sk
		c.timelineIDs = insertSorted(c.timelineIDs, id)
	}
	return sk
}

// Summary returns the per-rule kept/dropped histogram over completed
// sessions — live what filtering.Clean's Summary reports offline.
func (c *Campaign) Summary() filtering.Summary { return c.summary }

// TimelineFiltered returns, per video, the kept sessions' non-control
// submissions inside the [lo, hi] percentile band in completion order:
// live what filtering.WisdomOfCrowd(filtering.TimelineByVideo(kept))
// computes offline.
func (c *Campaign) TimelineFiltered(lo, hi float64) map[string][]float64 {
	out := make(map[string][]float64, len(c.timeline))
	for id, sk := range c.timeline {
		out[id] = sk.Filtered(lo, hi)
	}
	return out
}

// TimelineBands summarises each video's band: total and in-band counts,
// the percentile bounds, and the in-band mean. The mean is
// stats.Sample.Mean over Filtered — a sum in insertion order, divided
// once — taken without building the slice, and resumed from the last
// render where its certificate allows (see Sketch). Renders may call it
// concurrently under a shared campaign lock.
func (c *Campaign) TimelineBands(lo, hi float64) map[string]Band {
	out := make(map[string]Band, len(c.timeline))
	c.EachBand(lo, hi, func(id string, b Band) { out[id] = b })
	return out
}

// EachBand calls fn with each video's Band, as TimelineBands computes
// it, in ascending video-ID order, and builds nothing.
func (c *Campaign) EachBand(lo, hi float64, fn func(id string, b Band)) {
	for _, id := range c.timelineIDs {
		fn(id, c.timeline[id].band(lo, hi))
	}
}

// insertSorted inserts id, which ids does not hold, into ascending ids.
func insertSorted(ids []string, id string) []string {
	at, _ := slices.BinarySearch(ids, id)
	return slices.Insert(ids, at, id)
}

// band is one sketch's Band, resumed from the memo when the new bounds
// stay inside its certificate's gaps.
func (sk *Sketch) band(lo, hi float64) Band {
	b := Band{Total: len(sk.codes)}
	b.Lo, b.Hi = sk.Band(lo, hi)
	// Locals, not fields, so the loop keeps them in registers.
	lv, hv, vals := b.Lo, b.Hi, sk.vals
	sk.mu.Lock()
	m := &sk.memo
	if !(m.below < lv && lv <= m.first && m.last <= hv && hv < m.above) {
		*m = bandMemo{}
	}
	n, sum := m.n, m.sum
	for _, c := range sk.codes[m.upto:] {
		if v := vals[c]; v >= lv && v <= hv {
			n++
			sum += v
		}
	}
	m.upto, m.n, m.sum = len(sk.codes), n, sum
	m.below, m.first = sk.neighbours(lv, false)
	m.last, m.above = sk.neighbours(hv, true)
	sk.mu.Unlock()
	b.InBand = n
	if n > 0 {
		b.Mean = sum / float64(n)
	}
	return b
}

// EachVotes calls fn with each video's A/B tally over kept sessions —
// live what filtering.ABByVideo computes offline — in ascending video-ID
// order. The tally is the campaign's own: fn reads it under the
// campaign shard lock and neither keeps nor changes it.
func (c *Campaign) EachVotes(fn func(id string, v *filtering.ABVotes)) {
	for _, id := range c.abIDs {
		fn(id, c.ab[id])
	}
}
