package quality

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/stats"
	"github.com/eyeorg/eyeorg/internal/survey"
)

// randTrace draws one engagement batch, biased so every §4.3 rule fires
// across a run: occasional seek storms, long absences (sometimes excused
// by slow deliveries), and skipped videos.
func randTrace(r *rand.Rand, videoID string) survey.VideoTrace {
	tr := survey.VideoTrace{
		VideoID:     videoID,
		LoadTime:    time.Duration(r.Intn(3000)) * time.Millisecond,
		TimeOnVideo: time.Duration(r.Intn(30000)) * time.Millisecond,
	}
	switch r.Intn(6) {
	case 0: // seek storm
		tr.Plays, tr.Seeks = 1, 100+r.Intn(600)
	case 1: // long absence
		tr.OutOfFocus = filtering.FocusLimit + time.Duration(1+r.Intn(20000))*time.Millisecond
		if r.Intn(2) == 0 { // excused: delivery outlasted the absence
			tr.LoadTime = tr.OutOfFocus + time.Duration(1+r.Intn(5000))*time.Millisecond
		}
		tr.Plays = r.Intn(2)
	case 2: // skipped
	default: // diligent
		tr.Plays = 1 + r.Intn(3)
		tr.Pauses = r.Intn(3)
		tr.Seeks = r.Intn(20)
		tr.WatchedFraction = r.Float64()
	}
	return tr
}

// session is a randomized scripted session: a platform-shaped assignment
// plus interleaved observes and answers.
type session struct {
	tracker  *Tracker
	assigned []string // video per assignment entry
	controls []bool
	traces   map[string]*survey.VideoTrace
	timeline []*survey.TimelineResponse
	ab       []*survey.ABResponse
}

func newRandSession(r *rand.Rand, kind string) *session {
	nvids := 1 + r.Intn(4)
	entries := 1 + r.Intn(7)
	s := &session{traces: map[string]*survey.VideoTrace{}}
	for i := 0; i < entries; i++ {
		s.assigned = append(s.assigned, fmt.Sprintf("v%d", r.Intn(nvids)))
		s.controls = append(s.controls, r.Intn(5) == 0)
	}
	s.tracker = NewTracker(s.assigned)
	steps := r.Intn(4 * entries)
	answered := 0
	for i := 0; i < steps; i++ {
		if r.Intn(3) == 0 && answered < entries {
			s.answer(r, kind, answered)
			answered++
			continue
		}
		vid := fmt.Sprintf("v%d", r.Intn(nvids+2)) // sometimes unassigned
		tr := randTrace(r, vid)
		s.traces[vid] = &tr
		s.tracker.Observe(tr)
	}
	return s
}

func (s *session) answer(r *rand.Rand, kind string, idx int) {
	vid := s.assigned[idx]
	control := s.controls[idx]
	if kind == "ab" {
		choices := []survey.ABChoice{survey.ChoiceLeft, survey.ChoiceRight, survey.ChoiceNoDifference}
		choice := choices[r.Intn(3)]
		resp := &survey.ABResponse{
			VideoID:       vid,
			Choice:        choice,
			AOnLeft:       true,
			Control:       control,
			ControlPassed: !control || choice != survey.ChoiceRight,
		}
		s.ab = append(s.ab, resp)
		s.tracker.AddAB(resp)
		return
	}
	resp := &survey.TimelineResponse{
		VideoID:       vid,
		Submitted:     time.Duration(r.Intn(10000)) * time.Millisecond,
		Control:       control,
		ControlPassed: !control || r.Intn(3) > 0,
	}
	s.timeline = append(s.timeline, resp)
	s.tracker.AddTimeline(resp)
}

// record materializes the session exactly as the platform's
// sessionState.record does: one trace entry per assignment item, zero
// traces for unobserved videos.
func (s *session) record(worker string) *filtering.SessionRecord {
	rec := &filtering.SessionRecord{
		Participant: &crowd.Participant{ID: worker},
		Trace:       &survey.SessionTrace{},
		Timeline:    s.timeline,
		AB:          s.ab,
	}
	for _, vid := range s.assigned {
		if tr, ok := s.traces[vid]; ok {
			rec.Trace.Videos = append(rec.Trace.Videos, *tr)
		} else {
			rec.Trace.Videos = append(rec.Trace.Videos, survey.VideoTrace{VideoID: vid})
		}
	}
	return rec
}

// The per-session contract: after any randomized schedule of observes
// (replacements and unassigned videos included) and answers, the
// tracker's verdict equals filtering.Classify on the materialized
// record, for default and explicit trusted ceilings.
func TestPropertyTrackerVerdictMatchesClassify(t *testing.T) {
	for _, sc := range trackerCases() {
		t.Run(sc.name, func(t *testing.T) {
			s := &session{traces: map[string]*survey.VideoTrace{}, assigned: sc.assigned, controls: make([]bool, len(sc.assigned))}
			s.tracker = NewTracker(s.assigned)
			for _, tr := range sc.batches {
				tr := tr
				s.traces[tr.VideoID] = &tr
				s.tracker.Observe(tr)
			}
			checkTracker(t, s.tracker, s.record("w"), sc.ceiling)
			// What a snapshot keeps of the tracker: the latest batch per
			// assigned video, and nothing for any other.
			traces := s.tracker.Traces()
			for _, vid := range s.assigned {
				if want, ok := s.traces[vid]; ok != (traces[vid] != survey.VideoTrace{}) || ok && traces[vid] != *want {
					t.Fatalf("Traces()[%s] = %+v, want the latest batch %+v", vid, traces[vid], want)
				}
			}
			for vid := range traces {
				if !slices.Contains(s.assigned, vid) {
					t.Fatalf("Traces() keeps %s, which is not assigned", vid)
				}
			}
			// A tracker re-fed those traces, as a snapshot load re-feeds
			// one, stands where this one does.
			restored := NewTracker(s.assigned)
			for _, tr := range traces {
				restored.Observe(tr)
			}
			if got, want := restored.Snapshot(), s.tracker.Snapshot(); got != want {
				t.Fatalf("restored from Traces(): %+v, want %+v", got, want)
			}
			checkTracker(t, restored, s.record("w"), sc.ceiling)
		})
	}
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			kind := "timeline"
			if r.Intn(2) == 0 {
				kind = "ab"
			}
			s := newRandSession(r, kind)
			rec := s.record("w")
			for _, ceiling := range []int{0, 1 + r.Intn(800)} {
				got := s.tracker.Verdict(ceiling)
				want := filtering.Classify(rec, ceiling)
				if got != want {
					t.Fatalf("seed %d case %d ceiling %d: tracker=%v classify=%v\nrecord: %+v",
						seed, i, ceiling, got, want, rec.Trace.Videos)
				}
			}
		}
	}
}

// trackerCase is a scripted session: an assignment, the engagement
// batches sent for it in order, and the trusted ceiling it is judged by.
type trackerCase struct {
	name     string
	assigned []string
	batches  []survey.VideoTrace
	ceiling  int
}

// trackerCases are the schedules whose verdict turns on how the tracker
// carries multiplicity: the record repeats a video's trace once per
// assignment entry, so a video assigned twice counts its actions twice.
// Each ceiling puts the seek threshold between the actions counted once
// and twice.
func trackerCases() []trackerCase {
	storm := survey.VideoTrace{VideoID: "v1", Plays: 1, Seeks: 300}
	return []trackerCase{
		{
			name:     "video assigned twice",
			assigned: []string{"v1", "v2", "v1"},
			batches:  []survey.VideoTrace{storm, {VideoID: "v2", Plays: 1}},
			ceiling:  300, // 450 actions allowed: 302 counted once, 603 twice
		},
		{
			name:     "batch for an unassigned video",
			assigned: []string{"v1", "v1", "v2"},
			batches:  []survey.VideoTrace{{VideoID: "v3", Plays: 1, Seeks: 5000}, {VideoID: "v1", Plays: 1, Seeks: 100}, {VideoID: "v2", Plays: 1}},
			ceiling:  100, // 150 allowed: 102 counted once, 203 twice
		},
		{
			name:     "replacement batch",
			assigned: []string{"v1", "v1", "v2", "v1"},
			batches: []survey.VideoTrace{
				storm, {VideoID: "v2", Plays: 1, OutOfFocus: 20 * time.Second},
				{VideoID: "v1", Plays: 1, Seeks: 60}, {VideoID: "v2", Plays: 1, LoadTime: time.Second},
			},
			ceiling: 100, // 150 allowed: 62 counted once, 184 three times
		},
	}
}

// checkTracker fails t unless tr's verdict equals filtering.Classify on
// rec at ceiling and at the default.
func checkTracker(t *testing.T, tr *Tracker, rec *filtering.SessionRecord, ceiling int) {
	t.Helper()
	for _, c := range []int{0, ceiling} {
		if got, want := tr.Verdict(c), filtering.Classify(rec, c); got != want {
			t.Fatalf("ceiling %d: tracker=%v classify=%v\nrecord: %+v", c, got, want, rec.Trace.Videos)
		}
	}
}

// Replacement batches must be able to clear a violation, not just set
// one: the newest trace is authoritative.
func TestTrackerReplacementClearsViolation(t *testing.T) {
	tr := NewTracker([]string{"v1", "v1", "v2"})
	bad := survey.VideoTrace{VideoID: "v1", OutOfFocus: 20 * time.Second, Plays: 1, Seeks: 500}
	tr.Observe(bad)
	if got := tr.Verdict(0); got != filtering.DropEngagementSeeks {
		t.Fatalf("verdict after seek storm = %v", got)
	}
	// 500 seeks + 1 play over two entries = 1002 actions; the replacement
	// drops to 2 actions per entry and stays in focus.
	good := survey.VideoTrace{VideoID: "v1", Plays: 1, Seeks: 1}
	tr.Observe(good)
	tr.Observe(survey.VideoTrace{VideoID: "v2", Plays: 1})
	if got := tr.Verdict(0); got != filtering.Kept {
		t.Fatalf("verdict after clean replacement = %v, want kept", got)
	}
}

func TestTrackerIgnoresUnassignedVideos(t *testing.T) {
	tr := NewTracker([]string{"v1"})
	tr.Observe(survey.VideoTrace{VideoID: "ghost", Plays: 1, Seeks: 10_000})
	tr.Observe(survey.VideoTrace{VideoID: "v1", Plays: 1})
	if got := tr.Verdict(0); got != filtering.Kept {
		t.Fatalf("unassigned video influenced verdict: %v", got)
	}
}

// The campaign contract: folding completed records one at a time equals
// filtering.Clean plus the batch wisdom-of-the-crowd / vote tallies over
// the same records in the same order.
func TestPropertyCampaignMatchesClean(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed + 100))
		for _, kind := range []string{"timeline", "ab"} {
			camp := NewCampaign(kind)
			var records []*filtering.SessionRecord
			// The campaign keeps no verdict per participant; the verdicts
			// handed to Complete are what the platform freezes, so they
			// are what must equal the batch's ReasonFor.
			verdicts := map[string]filtering.Reason{}
			n := 3 + r.Intn(30)
			for i := 0; i < n; i++ {
				s := newRandSession(r, kind)
				worker := fmt.Sprintf("w%d", r.Intn(n)) // collisions on purpose
				rec := s.record(worker)
				records = append(records, rec)
				verdicts[worker] = s.tracker.Verdict(0)
				camp.Complete(rec, verdicts[worker])
				if kind == "timeline" {
					// Render between completions, mostly at the default
					// band, so TimelineBands resumes its last sum.
					lo, hi := filtering.WisdomLo, filtering.WisdomHi
					if i%3 == 2 {
						lo, hi = 10, 90
					}
					checkBands(t, fmt.Sprintf("seed %d after %d completions", seed, i+1), camp, records, lo, hi)
				}
			}
			offline := filtering.Clean(records, 0)
			if camp.Summary() != offline.Summary {
				t.Fatalf("seed %d %s: summary %+v != %+v", seed, kind, camp.Summary(), offline.Summary)
			}
			if !reflect.DeepEqual(verdicts, offline.ReasonFor) {
				t.Fatalf("seed %d %s: reasons diverge\nlive:    %v\noffline: %v",
					seed, kind, verdicts, offline.ReasonFor)
			}
			if kind == "timeline" {
				want := filtering.WisdomOfCrowd(filtering.TimelineByVideo(offline.Kept))
				got := camp.TimelineFiltered(filtering.WisdomLo, filtering.WisdomHi)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: bands diverge\nlive:    %v\noffline: %v", seed, got, want)
				}
			} else {
				want := filtering.ABByVideo(offline.Kept)
				if got := votesOf(t, camp); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: votes diverge\nlive:    %v\noffline: %v", seed, got, want)
				}
			}
		}
	}
}

// votesOf collects c's EachVotes into a map of copies, failing t unless
// the videos come in ascending order.
func votesOf(t *testing.T, c *Campaign) map[string]*filtering.ABVotes {
	t.Helper()
	out := map[string]*filtering.ABVotes{}
	last := ""
	c.EachVotes(func(id string, v *filtering.ABVotes) {
		if len(out) > 0 && id <= last {
			t.Fatalf("EachVotes named %q after %q", id, last)
		}
		cp := *v
		out[id], last = &cp, id
	})
	return out
}

func TestSketchFilteredMatchesIQRFilter(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		var sk Sketch
		n := r.Intn(40)
		vals := make([]float64, 0, n)
		for j := 0; j < n; j++ {
			v := r.Float64() * 10
			vals = append(vals, v)
			sk.Add(v)
		}
		if n == 0 {
			if sk.Filtered(25, 75) != nil {
				t.Fatal("empty sketch filtered non-nil")
			}
			continue
		}
		want := append([]float64(nil), vals...)
		got := sk.Filtered(filtering.WisdomLo, filtering.WisdomHi)
		wantFiltered := []float64{}
		lv, hv := sk.Band(filtering.WisdomLo, filtering.WisdomHi)
		for _, v := range want {
			if v >= lv && v <= hv {
				wantFiltered = append(wantFiltered, v)
			}
		}
		if len(got) != len(wantFiltered) {
			t.Fatalf("case %d: filtered %d values, want %d", i, len(got), len(wantFiltered))
		}
		for j := range got {
			if got[j] != wantFiltered[j] {
				t.Fatalf("case %d: filtered[%d] = %v, want %v", i, j, got[j], wantFiltered[j])
			}
		}
	}
}

// TestTimelineBandsMatchFilteredMean: TimelineBands takes the in-band
// count and mean in one pass; the bounds, the count and the mean must be
// what stats.Sample gives over the same submissions in the same order
// (Percentile, and Mean over IQRFilter), to the last bit, for any sample
// and band. The random cases include an empty sketch, single values and
// ties at the band's edges; the scripted ones a sample of ties only, one
// distinct value repeated, and bands whose edges fall between two
// distinct values, where the rank search crosses from one value's count
// to the next.
func TestTimelineBandsMatchFilteredMean(t *testing.T) {
	check := func(t *testing.T, name string, raw map[string][]float64, lo, hi float64) {
		t.Helper()
		c := NewCampaign("timeline")
		for id, vals := range raw {
			sk := c.sketch(id)
			for _, v := range vals {
				sk.Add(v)
			}
		}
		for id, got := range c.TimelineBands(lo, hi) {
			s := stats.Sample(raw[id])
			filtered := s.IQRFilter(lo, hi)
			want := Band{Total: len(s), InBand: len(filtered), Lo: s.Percentile(lo), Hi: s.Percentile(hi), Mean: filtered.Mean()}
			if !sameBand(got, want) {
				t.Fatalf("%s video %s band [%v, %v] over %v: got %+v, want %+v", name, id, lo, hi, raw[id], got, want)
			}
			if f := c.timeline[id].Filtered(lo, hi); !sameFloats(f, filtered) {
				t.Fatalf("%s video %s band [%v, %v] over %v: Filtered %v, want %v", name, id, lo, hi, raw[id], f, filtered)
			}
		}
	}
	scripted := map[string][]float64{
		"ties only":          {2, 1, 3, 1, 2, 3, 3, 1, 2, 2},
		"one distinct value": {4.2, 4.2, 4.2, 4.2, 4.2, 4.2, 4.2},
		"edge between two":   {2, 1, 1, 2, 1, 2},    // 50th: rank 2.5, between the last 1 and the first 2
		"edges between many": {3, 2, 1, 2, 3, 2, 1}, // 25th and 75th: ranks 1.5 (1 to 2) and 4.5 (2 to 3)
	}
	for name, vals := range scripted {
		for _, band := range [][2]float64{{filtering.WisdomLo, filtering.WisdomHi}, {50, 50}, {10, 90}, {0, 100}, {49, 51}} {
			check(t, name, map[string][]float64{"v": vals}, band[0], band[1])
		}
	}
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 300; i++ {
		raw := map[string][]float64{}
		for v := 0; v < 4; v++ {
			var vals []float64
			for n := r.Intn(5) * r.Intn(20); n > 0; n-- { // empty, single and up to 76 values
				vals = append(vals, r.ExpFloat64()*3)
			}
			if r.Intn(4) == 0 && len(vals) > 0 { // ties at the band's edges
				vals = append(vals, vals[0])
			}
			raw[fmt.Sprintf("v%d", v)] = vals
		}
		lo := r.Float64() * 100
		hi := lo + r.Float64()*(100-lo)
		if i%3 == 0 {
			lo, hi = filtering.WisdomLo, filtering.WisdomHi
		}
		check(t, fmt.Sprintf("case %d", i), raw, lo, hi)
	}
}

// checkBands fails t unless c's TimelineBands(lo, hi) equals, bit for
// bit, the band stats.Sample gives over the kept records' submissions.
func checkBands(t *testing.T, name string, c *Campaign, records []*filtering.SessionRecord, lo, hi float64) {
	t.Helper()
	byVideo := filtering.TimelineByVideo(filtering.Clean(records, 0).Kept)
	got := c.TimelineBands(lo, hi)
	if len(got) != len(byVideo) {
		t.Fatalf("%s: %d videos banded, want %d", name, len(got), len(byVideo))
	}
	for id, vals := range byVideo {
		s := stats.Sample(vals)
		filtered := s.IQRFilter(lo, hi)
		want := Band{Total: len(s), InBand: len(filtered), Lo: s.Percentile(lo), Hi: s.Percentile(hi), Mean: filtered.Mean()}
		if !sameBand(got[id], want) {
			t.Fatalf("%s: video %s band [%v, %v] = %+v, want %+v", name, id, lo, hi, got[id], want)
		}
	}
}

// sameBand reports whether two bands are equal to the bit.
func sameBand(a, b Band) bool {
	return a.Total == b.Total && a.InBand == b.InBand &&
		sameFloats([]float64{a.Lo, a.Hi, a.Mean}, []float64{b.Lo, b.Hi, b.Mean})
}

// sameFloats reports whether two slices hold the same floats, bit for
// bit and in order.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// The Snapshot split: an in-flight session's provisional DropSoft must
// never read as a settled verdict — FinalVerdict reports ok=false until
// SetCompleted, at which point Final freezes to the rule Current shows.
// The adaptive allocator leans on this to keep provisional drops from
// being spent as campaign budget.
func TestSnapshotSplitsProvisionalFromFinal(t *testing.T) {
	tr := NewTracker([]string{"v1", "v2"})
	tr.Observe(survey.VideoTrace{VideoID: "v1", Plays: 1})
	snap := tr.Snapshot()
	if snap.Completed {
		t.Fatal("in-flight tracker snapshot marked completed")
	}
	if snap.Provisional != filtering.DropSoft {
		t.Fatalf("provisional verdict = %v, want DropSoft while v2 is untouched", snap.Provisional)
	}
	if _, ok := snap.FinalVerdict(); ok {
		t.Fatal("in-flight FinalVerdict reported a settled verdict")
	}
	if snap.Current() != filtering.DropSoft {
		t.Fatalf("Current = %v, want the provisional reading", snap.Current())
	}

	tr.Observe(survey.VideoTrace{VideoID: "v2", Plays: 1})
	tr.SetCompleted()
	snap = tr.Snapshot()
	if v, ok := snap.FinalVerdict(); !ok || v != filtering.Kept {
		t.Fatalf("completed FinalVerdict = (%v, %v), want (Kept, true)", v, ok)
	}
	if snap.Current() != filtering.Kept {
		t.Fatalf("Current = %v, want Kept", snap.Current())
	}
}
