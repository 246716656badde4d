package crowd

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// adPageVideo paints main content at 1.5s and a late ad at 5s.
func adPageVideo() (*video.Video, metrics.PerceptualCurves) {
	paints := []browsersim.PaintEvent{
		{T: 500 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1, Salience: 0.8},
		{T: 1500 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 3, W: 30, H: 12}, Value: 2, Salience: 1},
		{T: 5 * time.Second, Rect: vision.Rect{X: 36, Y: 0, W: 12, H: 6}, Value: 3, Aux: true, Salience: 0.3},
	}
	v := webpeg.Render(paints, 7*time.Second, 10)
	return v, metrics.Curves(v, map[vision.Tile]bool{3: true})
}

func population(t *testing.T, class Class, n int) []*Participant {
	t.Helper()
	return NewPopulation(rng.New(42), PopulationConfig{Class: class, N: n})
}

func TestPopulationDeterministic(t *testing.T) {
	a := population(t, Paid, 50)
	b := population(t, Paid, 50)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Behavior != b[i].Behavior ||
			a[i].ReadyThreshold != b[i].ReadyThreshold || a[i].Country != b[i].Country {
			t.Fatal("population not deterministic")
		}
	}
}

func TestPopulationBehaviorMix(t *testing.T) {
	paid := population(t, Paid, 2000)
	counts := map[Behavior]int{}
	for _, p := range paid {
		counts[p.Behavior]++
	}
	frac := func(b Behavior) float64 { return float64(counts[b]) / float64(len(paid)) }
	// ~20% of paid participants should be in some unreliable class
	// (§4: "flagging about 20% of the participants").
	unreliable := frac(Distracted) + frac(RandomClicker) + frac(Skipper) + frac(Frenetic)
	if unreliable < 0.15 || unreliable > 0.3 {
		t.Fatalf("unreliable paid share = %.3f, want ~0.2", unreliable)
	}
	trusted := population(t, Trusted, 2000)
	tCounts := map[Behavior]int{}
	for _, p := range trusted {
		tCounts[p.Behavior]++
	}
	tUnreliable := float64(len(trusted)-tCounts[Diligent]) / float64(len(trusted))
	if tUnreliable > 0.12 {
		t.Fatalf("unreliable trusted share = %.3f, want small", tUnreliable)
	}
	if tUnreliable >= unreliable {
		t.Fatal("trusted pool not more reliable than paid")
	}
}

func TestDemographics(t *testing.T) {
	paid := population(t, Paid, 1500)
	male := 0
	countries := map[string]bool{}
	for _, p := range paid {
		if p.Gender == "m" {
			male++
		}
		countries[p.Country] = true
	}
	m := float64(male) / float64(len(paid))
	if m < 0.65 || m < 0.5 || m > 0.8 {
		t.Fatalf("male share = %.2f, want ~0.72", m)
	}
	if len(countries) < 15 {
		t.Fatalf("paid countries = %d, want a broad pool", len(countries))
	}
	trusted := population(t, Trusted, 300)
	tCountries := map[string]bool{}
	for _, p := range trusted {
		tCountries[p.Country] = true
	}
	if len(tCountries) > 12 {
		t.Fatalf("trusted countries = %d, want <= 12", len(tCountries))
	}
}

func TestPerceivedReadyModes(t *testing.T) {
	_, pc := adPageVideo()
	pop := population(t, Paid, 400)
	early, late := 0, 0
	for _, p := range pop {
		if p.Behavior != Diligent {
			continue
		}
		ready := p.PerceivedReady(pc)
		if ready <= 2*time.Second {
			early++
		}
		if ready >= 5*time.Second {
			late++
		}
	}
	// The two modes of Figure 1(b): main-content-ready vs ad-waiters.
	if early == 0 || late == 0 {
		t.Fatalf("missing perception modes: early=%d late=%d", early, late)
	}
	if early < late {
		t.Fatalf("early mode (%d) should dominate late mode (%d)", early, late)
	}
}

func TestAnswerTimelineRange(t *testing.T) {
	v, pc := adPageVideo()
	pop := population(t, Paid, 200)
	test := &survey.TimelineTest{VideoID: "v1", Video: v}
	for _, p := range pop {
		resp := p.AnswerTimeline(test, pc)
		if resp.Submitted < 0 || resp.Submitted > v.Duration() {
			t.Fatalf("submitted %v outside video", resp.Submitted)
		}
		if resp.VideoID != "v1" || resp.Control {
			t.Fatal("response metadata wrong")
		}
		// Slider positions land on frame boundaries.
		if resp.Slider%v.FrameDuration() != 0 {
			t.Fatalf("slider %v not frame-aligned", resp.Slider)
		}
	}
}

func TestFrameHelperShrinksSubmissions(t *testing.T) {
	// Figure 7(a): submitted <= slider on average (the helper rewinds),
	// with a mean gap in the few-hundred-ms range.
	v, pc := adPageVideo()
	pop := population(t, Trusted, 300)
	test := &survey.TimelineTest{VideoID: "v1", Video: v}
	var gap time.Duration
	n := 0
	for _, p := range pop {
		if p.Behavior != Diligent {
			continue
		}
		resp := p.AnswerTimeline(test, pc)
		if resp.Submitted > resp.Slider {
			t.Fatal("helper moved submission later than slider")
		}
		gap += resp.Slider - resp.Submitted
		n++
	}
	mean := gap / time.Duration(n)
	if mean < 20*time.Millisecond || mean > 1200*time.Millisecond {
		t.Fatalf("mean slider-submitted gap = %v, want a few hundred ms", mean)
	}
}

func TestTimelineControlDetectsRandomClickers(t *testing.T) {
	v, pc := adPageVideo()
	test := &survey.TimelineTest{VideoID: "v1#c", Video: v, Control: true}
	pop := population(t, Paid, 1200)
	var diligentFail, randomFail, diligentN, randomN int
	for _, p := range pop {
		resp := p.AnswerTimeline(test, pc)
		switch p.Behavior {
		case Diligent:
			diligentN++
			if !resp.ControlPassed {
				diligentFail++
			}
		case RandomClicker:
			randomN++
			if !resp.ControlPassed {
				randomFail++
			}
		}
	}
	if randomN == 0 || diligentN == 0 {
		t.Skip("population draw missing a class")
	}
	dRate := float64(diligentFail) / float64(diligentN)
	rRate := float64(randomFail) / float64(randomN)
	if dRate > 0.06 {
		t.Fatalf("diligent control failure rate %.3f too high", dRate)
	}
	if rRate < 0.3 {
		t.Fatalf("random clicker control failure rate %.3f too low", rRate)
	}
}

func TestABPsychometric(t *testing.T) {
	pop := population(t, Paid, 500)
	test := &survey.ABTest{VideoID: "p", AOnLeft: true}
	correctAt := func(delta time.Duration) float64 {
		correct, total := 0, 0
		for _, p := range pop {
			if p.Behavior != Diligent {
				continue
			}
			// B faster by delta.
			resp := p.AnswerAB(test, delta)
			total++
			if resp.PickedB() {
				correct++
			}
		}
		return float64(correct) / float64(total)
	}
	small := correctAt(50 * time.Millisecond)
	medium := correctAt(400 * time.Millisecond)
	large := correctAt(2 * time.Second)
	if !(small < medium && medium < large) {
		t.Fatalf("accuracy not increasing with gap: %.2f %.2f %.2f", small, medium, large)
	}
	if large < 0.85 {
		t.Fatalf("2s gap only %.2f accuracy; humans are better than that", large)
	}
	if small > 0.55 {
		t.Fatalf("50ms gap gives %.2f accuracy; below-JND gaps should split votes", small)
	}
}

func TestABNoDifferenceBand(t *testing.T) {
	pop := population(t, Paid, 500)
	test := &survey.ABTest{VideoID: "p", AOnLeft: false}
	noDiff := 0
	total := 0
	for _, p := range pop {
		if p.Behavior != Diligent {
			continue
		}
		resp := p.AnswerAB(test, 0)
		total++
		if resp.Choice == survey.ChoiceNoDifference {
			noDiff++
		}
	}
	if frac := float64(noDiff) / float64(total); frac < 0.4 {
		t.Fatalf("equal sides got only %.2f no-difference answers", frac)
	}
}

func TestABControlCatchesRandomClickers(t *testing.T) {
	pop := population(t, Paid, 2000)
	test := &survey.ABTest{VideoID: "c", AOnLeft: true, Control: true, DelayedSide: survey.ChoiceRight}
	var dFail, dN, rFail, rN int
	for _, p := range pop {
		resp := p.AnswerAB(test, 0)
		switch p.Behavior {
		case Diligent:
			dN++
			if !resp.ControlPassed {
				dFail++
			}
		case RandomClicker:
			rN++
			if !resp.ControlPassed {
				rFail++
			}
		}
	}
	if float64(dFail)/float64(dN) > 0.05 {
		t.Fatalf("diligent A/B control failure %.3f too high", float64(dFail)/float64(dN))
	}
	if float64(rFail)/float64(rN) < 0.2 {
		t.Fatalf("random clicker A/B control failure %.3f too low", float64(rFail)/float64(rN))
	}
}

func TestTracesReflectBehavior(t *testing.T) {
	v, pc := adPageVideo()
	test := &survey.TimelineTest{VideoID: "v", Video: v}
	pop := population(t, Paid, 3000)
	var frenetic, diligent *survey.VideoTrace
	for _, p := range pop {
		resp := p.AnswerTimeline(test, pc)
		tr := resp.Trace
		switch p.Behavior {
		case Frenetic:
			if frenetic == nil {
				frenetic = &tr
			}
		case Diligent:
			if diligent == nil {
				diligent = &tr
			}
		}
	}
	if frenetic == nil || diligent == nil {
		t.Skip("population draw missing a class")
	}
	if frenetic.Seeks < 100 {
		t.Fatalf("frenetic seeks = %d, want >= 100", frenetic.Seeks)
	}
	if diligent.Seeks >= 100 {
		t.Fatalf("diligent seeks = %d, implausible", diligent.Seeks)
	}
}

func TestSlowConnectionsMeanLongLoads(t *testing.T) {
	// Figure 5: some paid participants wait tens of seconds for the video.
	v, _ := adPageVideo()
	test := &survey.TimelineTest{VideoID: "v", Video: v}
	pop := population(t, Paid, 1000)
	long := 0
	for _, p := range pop {
		tr := p.timelineTrace(test)
		if tr.LoadTime > 10*time.Second {
			long++
		}
	}
	if long == 0 {
		t.Fatal("no participant experienced a long video load; Figure 5's tail is missing")
	}
	if long > len(pop)/3 {
		t.Fatalf("%d/%d participants with >10s loads; tail too fat", long, len(pop))
	}
}

func TestInstructionTimeByClassAndBehavior(t *testing.T) {
	pop := append(population(t, Paid, 400), population(t, Trusted, 400)...)
	var randomSum, diligentSum time.Duration
	var randomN, diligentN int
	for _, p := range pop {
		it := p.InstructionTime()
		if it <= 0 {
			t.Fatal("non-positive instruction time")
		}
		switch p.Behavior {
		case RandomClicker:
			randomSum += it
			randomN++
		case Diligent:
			diligentSum += it
			diligentN++
		}
	}
	if randomN == 0 {
		t.Skip("no random clickers drawn")
	}
	if randomSum/time.Duration(randomN) >= diligentSum/time.Duration(diligentN) {
		t.Fatal("random clickers should skim instructions faster")
	}
}

func TestClassAndBehaviorStrings(t *testing.T) {
	if Trusted.String() != "trusted" || Paid.String() != "paid" {
		t.Fatal("class labels wrong")
	}
	if Diligent.String() != "diligent" || Frenetic.String() != "frenetic" {
		t.Fatal("behavior labels wrong")
	}
}
