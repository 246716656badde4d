package filtering

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/survey"
)

// worker is a participant known by nothing but its ID, as the platform
// knows one.
type worker string

func (w worker) ParticipantID() string { return string(w) }

// record builds a minimal session record with the given trace and control
// outcomes.
func record(id string, trace *survey.SessionTrace, controlPassed bool) *SessionRecord {
	return &SessionRecord{
		Participant: worker(id),
		Trace:       trace,
		Timeline: []*survey.TimelineResponse{
			{VideoID: "v1", Submitted: 2 * time.Second, Trace: trace.Videos[0]},
			{VideoID: "ctrl", Control: true, ControlPassed: controlPassed},
		},
	}
}

func goodTrace() *survey.SessionTrace {
	return &survey.SessionTrace{
		InstructionTime: 20 * time.Second,
		Videos: []survey.VideoTrace{
			{VideoID: "v1", Seeks: 15, TimeOnVideo: 25 * time.Second, WatchedFraction: 0.9},
			{VideoID: "v2", Seeks: 20, TimeOnVideo: 22 * time.Second, WatchedFraction: 1},
		},
	}
}

func TestClassifyKeepsGoodSessions(t *testing.T) {
	if got := Classify(record("ok", goodTrace(), true), 0); got != Kept {
		t.Fatalf("good session classified %v", got)
	}
}

func TestClassifySeekRule(t *testing.T) {
	tr := goodTrace()
	tr.Videos[0].Seeks = 800 // > 1.5 * 369
	if got := Classify(record("seeker", tr, true), 0); got != DropEngagementSeeks {
		t.Fatalf("frenetic seeker classified %v", got)
	}
	// Just below the bound survives.
	tr2 := goodTrace()
	tr2.Videos[0].Seeks = 500
	tr2.Videos[1].Seeks = 20
	if got := Classify(record("active", tr2, true), 0); got != Kept {
		t.Fatalf("under-threshold seeker classified %v", got)
	}
	// Live trusted baseline overrides the published constant.
	if got := Classify(record("seeker2", tr2, true), 100); got != DropEngagementSeeks {
		t.Fatalf("with baseline 100, active session classified %v", got)
	}
}

func TestClassifyFocusRule(t *testing.T) {
	// 30s absence with a fast video: dropped.
	tr := goodTrace()
	tr.Videos[0].OutOfFocus = 30 * time.Second
	tr.Videos[0].LoadTime = time.Second
	if got := Classify(record("away", tr, true), 0); got != DropEngagementFocus {
		t.Fatalf("distracted session classified %v", got)
	}
	// 30s absence while the video took 60s to deliver: excused (§4.3).
	tr2 := goodTrace()
	tr2.Videos[0].OutOfFocus = 30 * time.Second
	tr2.Videos[0].LoadTime = 60 * time.Second
	if got := Classify(record("excused", tr2, true), 0); got != Kept {
		t.Fatalf("excused slow-load session classified %v", got)
	}
	// Short absences always fine.
	tr3 := goodTrace()
	tr3.Videos[1].OutOfFocus = 5 * time.Second
	if got := Classify(record("brief", tr3, true), 0); got != Kept {
		t.Fatalf("brief absence classified %v", got)
	}
}

func TestClassifySoftRule(t *testing.T) {
	tr := goodTrace()
	tr.Videos[1].Seeks = 0
	tr.Videos[1].Plays = 0
	if got := Classify(record("skipper", tr, true), 0); got != DropSoft {
		t.Fatalf("skipper classified %v", got)
	}
}

func TestClassifyControlRule(t *testing.T) {
	if got := Classify(record("clicker", goodTrace(), false), 0); got != DropControl {
		t.Fatalf("control failure classified %v", got)
	}
}

func TestClassifyOrderMatters(t *testing.T) {
	// A session violating several rules is counted under the first.
	tr := goodTrace()
	tr.Videos[0].Seeks = 9999
	tr.Videos[1].Plays = 0
	tr.Videos[1].Seeks = 0
	if got := Classify(record("multi", tr, false), 0); got != DropEngagementSeeks {
		t.Fatalf("multi-violation classified %v, want first rule", got)
	}
}

func TestCleanSummary(t *testing.T) {
	records := []*SessionRecord{
		record("ok1", goodTrace(), true),
		record("ok2", goodTrace(), true),
		record("ctrl-fail", goodTrace(), false),
	}
	tr := goodTrace()
	tr.Videos[0].OutOfFocus = time.Minute
	records = append(records, record("away", tr, true))

	out := Clean(records, 0)
	s := out.Summary
	if s.Total != 4 || s.Kept != 2 || s.Control != 1 || s.EngagementFocus != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Dropped() != 2 || s.Engagement() != 1 {
		t.Fatalf("derived counts wrong: %+v", s)
	}
	if len(out.Kept) != 2 {
		t.Fatalf("kept = %d", len(out.Kept))
	}
	if out.ReasonFor["away"] != DropEngagementFocus || out.ReasonFor["ok1"] != Kept {
		t.Fatal("ReasonFor map wrong")
	}
}

// TestCleanKeysByParticipantID: Clean files each verdict under the ID
// the record's participant reports, whether that is a simulated persona
// or a bare ID.
func TestCleanKeysByParticipantID(t *testing.T) {
	persona := record("", goodTrace(), false)
	persona.Participant = &crowd.Participant{ID: "persona", Gender: "f", Country: "VE"}
	out := Clean([]*SessionRecord{persona, record("bare", goodTrace(), true)}, 0)
	if len(out.ReasonFor) != 2 || out.ReasonFor["persona"] != DropControl || out.ReasonFor["bare"] != Kept {
		t.Fatalf("ReasonFor = %v, want persona: control, bare: kept", out.ReasonFor)
	}
}

func TestControlResults(t *testing.T) {
	rec := record("x", goodTrace(), true)
	total, passed := rec.ControlResults()
	if total != 1 || passed != 1 {
		t.Fatalf("ControlResults = %d/%d", passed, total)
	}
	rec2 := record("y", goodTrace(), false)
	_, passed = rec2.ControlResults()
	if passed != 0 {
		t.Fatal("failed control counted as passed")
	}
}

func TestMaxTrustedActions(t *testing.T) {
	records := []*SessionRecord{
		record("a", goodTrace(), true), // 35 actions
	}
	tr := goodTrace()
	tr.Videos[0].Seeks = 300
	records = append(records, record("b", tr, true)) // 320 actions
	if got := MaxTrustedActions(records); got != 320 {
		t.Fatalf("MaxTrustedActions = %d, want 320", got)
	}
}

// Regression: a campaign with no trusted participants (or trusted
// participants with zero interactions) must not produce a zero ceiling —
// a zero baseline would drop every paid participant who touched the
// player even once. MaxTrustedActions falls back to TrustedMaxSeeks.
func TestMaxTrustedActionsZeroBaselineFallsBack(t *testing.T) {
	if got := MaxTrustedActions(nil); got != TrustedMaxSeeks {
		t.Fatalf("empty baseline = %d, want TrustedMaxSeeks fallback", got)
	}
	idle := goodTrace()
	for i := range idle.Videos {
		idle.Videos[i].Plays, idle.Videos[i].Pauses, idle.Videos[i].Seeks = 0, 0, 0
	}
	zero := []*SessionRecord{record("idle", idle, true)}
	if got := MaxTrustedActions(zero); got != TrustedMaxSeeks {
		t.Fatalf("zero-action baseline = %d, want %d", got, TrustedMaxSeeks)
	}
	// The fallback ceiling keeps an ordinary diligent participant.
	out := Clean([]*SessionRecord{record("ok", goodTrace(), true)}, MaxTrustedActions(nil))
	if out.Summary.Kept != 1 {
		t.Fatalf("diligent participant dropped under fallback baseline: %+v", out.Summary)
	}
}

func TestTimelineByVideoExcludesControls(t *testing.T) {
	recs := []*SessionRecord{record("a", goodTrace(), true), record("b", goodTrace(), true)}
	by := TimelineByVideo(recs)
	if len(by) != 1 || len(by["v1"]) != 2 {
		t.Fatalf("grouping wrong: %v", by)
	}
	if _, ok := by["ctrl"]; ok {
		t.Fatal("control response leaked into analysis")
	}
}

func TestWisdomOfCrowdTightens(t *testing.T) {
	by := map[string][]float64{
		"v": {1.9, 2.0, 2.0, 2.1, 2.1, 2.2, 2.3, 9.9, 0.1},
	}
	filtered := WisdomOfCrowd(by)
	for _, v := range filtered["v"] {
		if v == 9.9 || v == 0.1 {
			t.Fatal("outlier survived wisdom-of-crowd filter")
		}
	}
	if len(filtered["v"]) == 0 {
		t.Fatal("filter dropped everything")
	}
}

func TestABVotesScoreAndAgreement(t *testing.T) {
	v := ABVotes{A: 2, B: 8, NoDiff: 5}
	score, ok := v.Score()
	if !ok || score != 0.8 {
		t.Fatalf("Score = %v/%v, want 0.8", score, ok)
	}
	if v.Total() != 15 {
		t.Fatalf("Total = %d", v.Total())
	}
	// Agreement counts no-difference as a first-class answer.
	if got := v.Agreement(); got != 8.0/15 {
		t.Fatalf("Agreement = %v, want 8/15", got)
	}
	empty := ABVotes{NoDiff: 3}
	if _, ok := empty.Score(); ok {
		t.Fatal("score defined with no decisive votes")
	}
}

func TestABByVideo(t *testing.T) {
	recs := []*SessionRecord{
		{
			Participant: worker("p1"),
			Trace:       &survey.SessionTrace{},
			AB: []*survey.ABResponse{
				{VideoID: "pair1", Choice: survey.ChoiceLeft, AOnLeft: true},         // A
				{VideoID: "pair1#c", Choice: survey.ChoiceLeft, Control: true},       // excluded
				{VideoID: "pair2", Choice: survey.ChoiceNoDifference, AOnLeft: true}, // nodiff
			},
		},
		{
			Participant: worker("p2"),
			Trace:       &survey.SessionTrace{},
			AB: []*survey.ABResponse{
				{VideoID: "pair1", Choice: survey.ChoiceLeft, AOnLeft: false}, // B
			},
		},
	}
	by := ABByVideo(recs)
	if by["pair1"].A != 1 || by["pair1"].B != 1 {
		t.Fatalf("pair1 votes = %+v", by["pair1"])
	}
	if by["pair2"].NoDiff != 1 {
		t.Fatalf("pair2 votes = %+v", by["pair2"])
	}
	if _, ok := by["pair1#c"]; ok {
		t.Fatal("control pair leaked into vote tally")
	}
}

func TestReasonString(t *testing.T) {
	if Kept.String() != "kept" || DropControl.String() != "control" {
		t.Fatal("reason labels wrong")
	}
	if Reason(99).String() != "unknown" {
		t.Fatal("unknown reason label wrong")
	}
}
