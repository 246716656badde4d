package adaptive

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/survey"
)

func timelineRecord(id string, videos []string, submitted []time.Duration, control int) *filtering.SessionRecord {
	rec := &filtering.SessionRecord{Participant: &crowd.Participant{ID: id}}
	for i, v := range videos {
		rec.Timeline = append(rec.Timeline, &survey.TimelineResponse{
			VideoID:       v,
			Submitted:     submitted[i],
			Control:       i == control,
			ControlPassed: true,
		})
	}
	return rec
}

func abRecord(video string, choice survey.ABChoice) *filtering.SessionRecord {
	rec := &filtering.SessionRecord{Participant: &crowd.Participant{ID: "w"}}
	rec.AB = append(rec.AB, &survey.ABResponse{VideoID: video, Choice: choice, AOnLeft: true, ControlPassed: true})
	return rec
}

func TestBoundaryMatchesFormula(t *testing.T) {
	// u(n) = 1.7·√(V·(ln ln 2V + 0.72·ln(5.2/0.025))), V = n/4, where
	// 0.72·ln 208 = 3.842990.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{4, 1.7 * math.Sqrt(1*(-0.366513+3.842990))},   // ln ln 2 = -0.366513
		{20, 1.7 * math.Sqrt(5*(0.834032+3.842990))},   // ln ln 10 = 0.834032
		{100, 1.7 * math.Sqrt(25*(1.364055+3.842990))}, // ln ln 50 = 1.364055
	} {
		if got := boundary(tc.n); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("u(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := 0; n < 4; n++ {
		if u := boundary(n); !math.IsInf(u, 1) {
			t.Errorf("u(%d) = %v, want +Inf below V = 1", n, u)
		}
		e := &Estimator{}
		for i := 0; i < n; i++ {
			e.Add(1)
		}
		for _, kind := range []string{"ab", "timeline"} {
			if iv := e.Interval(kind); !math.IsInf(iv.Lo, -1) || !math.IsInf(iv.Hi, 1) {
				t.Errorf("%s interval at n=%d = %+v, want unbounded", kind, n, iv)
			}
		}
	}
}

func TestIntervalIsAFunctionOfTheValues(t *testing.T) {
	vals := []float64{3.4, 2.9, 3.1, 3.05, 2.7, 3.3, 3.0, 2.95, 3.2, 2.8, 3.15, 3.25, 2.85, 3.1, 2.99, 3.01, 3.6, 2.4, 3.02, 2.98}
	fwd, rev := &Estimator{}, &Estimator{}
	for i := range vals {
		fwd.Add(vals[i])
		rev.Add(vals[len(vals)-1-i])
	}
	a, b := fwd.Interval("timeline"), rev.Interval("timeline")
	if a != b {
		t.Fatalf("same multiset, two orders: %+v vs %+v", a, b)
	}
	if math.IsInf(a.Lo, 0) || math.IsInf(a.Hi, 0) || a.Lo > 3.02 || a.Hi < 3.02 {
		t.Fatalf("timeline interval at n=20 = %+v, want bounded around the median", a)
	}
	// Ten A votes and ten B votes, and twenty no-difference votes: the
	// same n and sum, so the same A/B interval.
	split, even := &Estimator{}, &Estimator{}
	for i := 0; i < 20; i++ {
		split.Add(float64(i % 2))
		even.Add(0.5)
	}
	if x, y := split.Interval("ab"), even.Interval("ab"); x != y {
		t.Fatalf("A/B interval depends on more than (n, sum): %+v vs %+v", x, y)
	}
}

func TestResolutionStickyAndClosing(t *testing.T) {
	a := New("timeline", Config{HalfWidth: 0.5})
	a.AddVideo("v1")
	a.AddVideo("v2")
	sub := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}
	// Kept sessions, each answering both videos plus a control, until
	// both videos resolve; no sequence is bounded below n = 13.
	sessions := 0
	for ; !a.Closed(); sessions++ {
		if sessions == 100 {
			t.Fatal("identical samples never closed the campaign")
		}
		vids := []string{"v1", "v2", "v1"}
		a.NoteJoin(vids)
		a.Complete(timelineRecord("w", vids, sub, 2), filtering.Kept)
	}
	if sessions != 13 {
		t.Fatalf("closed after %d sessions, want 13 (one sample per video each, control excluded)", sessions)
	}
	st := a.Status(nil)
	if st[0].State != StateResolved || st[0].N != 13 || st[0].Lo != 3 || st[0].Hi != 3 {
		t.Fatalf("v1 = %+v, want resolved at [3, 3] with 13 kept", st[0])
	}
	if r, tot := a.Resolved(); r != 2 || tot != 2 {
		t.Fatalf("Resolved() = %d/%d, want 2/2", r, tot)
	}
	// A wildly divergent late session must not reopen a resolved video.
	vids := []string{"v1", "v1", "v1"}
	a.NoteJoin(vids)
	a.Complete(timelineRecord("w", vids, []time.Duration{time.Minute, time.Minute, time.Minute}, 2), filtering.Kept)
	if a.Status(nil)[0].State != StateResolved || !a.Closed() {
		t.Fatal("resolution must be sticky")
	}
	// A new video is a new comparison: the campaign reopens.
	a.AddVideo("v3")
	if a.Closed() {
		t.Fatal("AddVideo must reopen a closed campaign")
	}
	// Banning the only open video closes it again; banning the rest
	// leaves nothing registered, which is not closed.
	a.RemoveVideo("v3")
	if !a.Closed() {
		t.Fatal("removing the only unresolved video must close the campaign")
	}
	a.RemoveVideo("v1")
	a.RemoveVideo("v2")
	if a.Closed() || len(a.Status(nil)) != 0 {
		t.Fatal("a campaign with no registered video must not read closed")
	}
}

func TestDroppedSessionsReleaseBudgetWithoutSamples(t *testing.T) {
	a := New("timeline", Config{HalfWidth: 0.5})
	a.AddVideo("v1")
	vids := []string{"v1", "v1", "v1"}
	a.NoteJoin(vids)
	if got := a.Status(nil)[0].Pending; got != 3 {
		t.Fatalf("pending = %d, want 3 after join", got)
	}
	sub := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}
	a.Complete(timelineRecord("w", vids, sub, 2), filtering.DropControl)
	st := a.Status(nil)[0]
	if st.Pending != 0 || st.N != 0 || st.State != StateCollecting {
		t.Fatalf("dropped session left %+v, want budget released and no samples", st)
	}
}

func TestAssignSteersAtUnderSampledUnresolved(t *testing.T) {
	a := New("timeline", Config{HalfWidth: 0.2})
	for _, v := range []string{"v1", "v2", "v3"} {
		a.AddVideo(v)
	}
	live := []string{"v1", "v2", "v3"}
	// Fresh campaign: everything ties, registration order breaks it.
	if got := a.Assign(live); !reflect.DeepEqual(got, live) {
		t.Fatalf("fresh pool = %v, want registration order %v", got, live)
	}
	// Resolve v1 with 14 identical samples; give v2 two kept samples.
	// Pool drops v1 and leads with the never-sampled v3.
	tight := []time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}
	for i := 0; i < 7; i++ {
		vids := []string{"v1", "v1", "v1"}
		a.NoteJoin(vids)
		a.Complete(timelineRecord("w", vids, tight, 2), filtering.Kept)
	}
	vids := []string{"v2", "v2", "v2"}
	a.NoteJoin(vids)
	a.Complete(timelineRecord("w", vids, []time.Duration{time.Second, 9 * time.Second, 5 * time.Second}, 2), filtering.Kept)
	got := a.Assign(live)
	if !reflect.DeepEqual(got, []string{"v3", "v2"}) {
		t.Fatalf("pool = %v, want [v3 v2] (resolved v1 excluded, unsampled first)", got)
	}
	// In-flight assignments count as bought samples: a pending join on v3
	// hands the lead to v2 — even though v3's provisional sessions would
	// all read DropSoft if the allocator (wrongly) consulted verdicts.
	a.NoteJoin([]string{"v3", "v3", "v3"})
	got = a.Assign(live)
	if !reflect.DeepEqual(got, []string{"v2", "v3"}) {
		t.Fatalf("pool = %v, want [v2 v3] once v3 has 3 in flight", got)
	}
	// All resolved → pool falls back to every live video (close races).
	if got := a.Assign([]string{"v1"}); !reflect.DeepEqual(got, []string{"v1"}) {
		t.Fatalf("pool = %v, want fallback to live when all resolved", got)
	}
}

func TestABVotesMapToPreferenceScores(t *testing.T) {
	a := New("ab", Config{})
	a.AddVideo("v1")
	for _, ch := range []survey.ABChoice{survey.ChoiceLeft, survey.ChoiceLeft, survey.ChoiceNoDifference} {
		a.NoteJoin([]string{"v1"})
		a.Complete(abRecord("v1", ch), filtering.Kept)
	}
	e := a.est["v1"]
	if len(e.values) != 3 || e.sum != 1+1+0.5 {
		t.Fatalf("values = %v, sum = %v, want 3 votes scoring 2.5", e.values, e.sum)
	}
}

func TestABVerdicts(t *testing.T) {
	for _, tc := range []struct {
		choice survey.ABChoice
		want   Verdict
		n      int
	}{
		{survey.ChoiceLeft, VerdictA, 13},
		{survey.ChoiceRight, VerdictB, 13},
		{survey.ChoiceNoDifference, VerdictNone, 399},
	} {
		a := New("ab", Config{HalfWidth: 1e-9}) // A/B ignores the half-width
		a.AddVideo("v1")
		for !a.Closed() {
			a.Complete(abRecord("v1", tc.choice), filtering.Kept)
		}
		if st := a.Status(nil)[0]; st.Verdict != tc.want || st.N != tc.n {
			t.Errorf("%v votes resolved as %+v, want verdict %q at n=%d", tc.choice, st, tc.want, tc.n)
		}
	}
}

func TestStatusJSONSafeBeforeTwoSamples(t *testing.T) {
	a := New("timeline", Config{})
	a.AddVideo("v1")
	vids := []string{"v1"}
	a.NoteJoin(vids)
	a.Complete(timelineRecord("w", vids, []time.Duration{3 * time.Second}, -1), filtering.Kept)
	st := a.Status(nil)[0]
	if st.N != 1 || !math.IsInf(st.Lo, -1) || !math.IsInf(st.Hi, 1) {
		t.Fatalf("n=1 status = %+v, want both sides unbounded (the platform omits them: JSON cannot carry Inf)", st)
	}
}

// TestStoppingCoverage drives Campaign.Complete on simulated videos, one
// sample per completion, until each resolves, and holds the error rate
// at the stop to the nominal 5% plus three binomial standard errors: a
// named preference where there is none, a preference for the wrong
// side, or a timeline interval that excludes the true median.
func TestStoppingCoverage(t *testing.T) {
	const videos = 2000
	slack := 0.05 + 3*math.Sqrt(0.05*0.95/videos)
	type row struct {
		name string
		kind string
		// A/B: the share of no-difference votes, and the chance a
		// decisive vote picks A.
		noDiff, p float64
		// timeline: the spread of load times around a 3 s median.
		sigma float64
	}
	var rows []row
	for _, p := range []float64{0.5, 0.6, 0.7, 0.8} {
		for _, nd := range []float64{0, 0.2} {
			rows = append(rows, row{name: fmt.Sprintf("ab-p%.1f-nd%.1f", p, nd), kind: "ab", p: p, noDiff: nd})
		}
	}
	for _, sigma := range []float64{0.5, 1.0, 1.5, 2.0, 2.5} {
		rows = append(rows, row{name: fmt.Sprintf("timeline-sigma%.1f", sigma), kind: "timeline", sigma: sigma})
	}
	for i, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(i + 1)))
			errs := 0
			kept := make([]int, 0, videos)
			ab := abRecord("v", survey.ChoiceLeft)
			tl := timelineRecord("w", []string{"v"}, []time.Duration{0}, -1)
			for v := 0; v < videos; v++ {
				a := New(r.kind, Config{})
				a.AddVideo("v")
				for n := 0; !a.Closed(); n++ {
					if n == 100_000 {
						t.Fatalf("video %d never resolved", v)
					}
					switch {
					case r.kind == "timeline":
						tl.Timeline[0].Submitted = time.Duration((3 + r.sigma*rnd.NormFloat64()) * float64(time.Second))
						a.Complete(tl, filtering.Kept)
						continue
					case rnd.Float64() < r.noDiff:
						ab.AB[0].Choice = survey.ChoiceNoDifference
					case rnd.Float64() < r.p:
						ab.AB[0].Choice = survey.ChoiceLeft
					default:
						ab.AB[0].Choice = survey.ChoiceRight
					}
					a.Complete(ab, filtering.Kept)
				}
				st := a.Status(nil)[0]
				kept = append(kept, st.N)
				switch {
				case r.kind == "timeline":
					if st.Lo > 3 || st.Hi < 3 {
						errs++
					}
				case r.p == 0.5:
					if st.Verdict != VerdictNone {
						errs++
					}
				case st.Verdict == VerdictB:
					errs++
				}
			}
			sort.Ints(kept)
			rate := float64(errs) / videos
			t.Logf("error rate %.4f, kept at stop: median %d, p90 %d", rate, kept[videos/2], kept[videos*9/10])
			if rate > slack {
				t.Errorf("error rate %.4f over %d videos, want at most %.4f", rate, videos, slack)
			}
		})
	}
}
