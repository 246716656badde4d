package survey

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// loadVideo builds a video where the page skeleton paints at 500ms, main
// content at 1.5s, and a small late widget at 4s.
func loadVideo() *video.Video {
	paints := []browsersim.PaintEvent{
		{T: 500 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
		{T: 1500 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 2, W: 30, H: 12}, Value: 2},
		{T: 4 * time.Second, Rect: vision.Rect{X: 40, Y: 0, W: 6, H: 3}, Value: 3},
	}
	return webpeg.Render(paints, 6*time.Second, 10)
}

func TestProposeRewindFindsEarliestSimilarFrame(t *testing.T) {
	test := &TimelineTest{VideoID: "v", Video: loadVideo()}
	// Slider at 3s: the frame is identical from 1.5s (next change at 4s),
	// and the widget is small (18 tiles of 1296 = 1.4%, above the 1%
	// threshold), so the rewind proposal is the 1.5s frame.
	got := test.ProposeRewind(3 * time.Second)
	if got != 1500*time.Millisecond {
		t.Fatalf("rewind(3s) = %v, want 1.5s", got)
	}
	// Slider before any content: rewind to the very start.
	if got := test.ProposeRewind(300 * time.Millisecond); got != 0 {
		t.Fatalf("rewind(0.3s) = %v, want 0", got)
	}
}

func TestControlFrameDiffIsLarge(t *testing.T) {
	test := &TimelineTest{VideoID: "v", Video: loadVideo()}
	if d := test.ControlFrameDiff(3 * time.Second); d < 0.5 {
		t.Fatalf("control frame differs by only %v; must be drastic", d)
	}
}

func TestABChoiceString(t *testing.T) {
	if ChoiceLeft.String() != "left" || ChoiceNoDifference.String() != "no difference" {
		t.Fatal("choice labels wrong")
	}
}

func TestMakeABRandomizedSides(t *testing.T) {
	a, b := loadVideo(), loadVideo()
	tl, err := MakeAB("pair", a, b, true)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.AOnLeft || tl.Control {
		t.Fatal("MakeAB flags wrong")
	}
	tr, err := MakeAB("pair", a, b, false)
	if err != nil {
		t.Fatal(err)
	}
	if tr.AOnLeft {
		t.Fatal("AOnLeft not honoured")
	}
	if tl.Spliced.FPS != a.FPS {
		t.Fatal("spliced fps wrong")
	}
}

func TestMakeABControl(t *testing.T) {
	v := loadVideo()
	test, err := MakeABControl("v", v, true)
	if err != nil {
		t.Fatal(err)
	}
	if !test.Control || test.DelayedSide != ChoiceRight {
		t.Fatalf("control test misconfigured: %+v", test)
	}
	// The spliced control is longer than the original by the delay.
	if test.Spliced.Duration() < v.Duration()+ControlDelay-time.Second {
		t.Fatalf("control splice %v too short vs %v + 3s", test.Spliced.Duration(), v.Duration())
	}
	// Choosing the delayed side fails; the other side or no-difference
	// passes.
	if test.ControlPassed(ChoiceRight) {
		t.Fatal("picking delayed side passed")
	}
	if !test.ControlPassed(ChoiceLeft) || !test.ControlPassed(ChoiceNoDifference) {
		t.Fatal("valid answers failed control")
	}
}

func TestControlPassedOnRegularTest(t *testing.T) {
	test := &ABTest{VideoID: "v"}
	for _, c := range []ABChoice{ChoiceLeft, ChoiceRight, ChoiceNoDifference} {
		if !test.ControlPassed(c) {
			t.Fatal("non-control test rejected an answer")
		}
	}
}

func TestPickedAMapping(t *testing.T) {
	cases := []struct {
		choice  ABChoice
		aOnLeft bool
		pickedA bool
		pickedB bool
	}{
		{ChoiceLeft, true, true, false},
		{ChoiceLeft, false, false, true},
		{ChoiceRight, true, false, true},
		{ChoiceRight, false, true, false},
		{ChoiceNoDifference, true, false, false},
	}
	for _, c := range cases {
		r := &ABResponse{Choice: c.choice, AOnLeft: c.aOnLeft}
		if r.PickedA() != c.pickedA || r.PickedB() != c.pickedB {
			t.Errorf("choice=%v aOnLeft=%v: PickedA=%v PickedB=%v", c.choice, c.aOnLeft, r.PickedA(), r.PickedB())
		}
	}
}

func TestVideoTraceInteraction(t *testing.T) {
	tr := VideoTrace{}
	if tr.Interacted() {
		t.Fatal("empty trace interacted")
	}
	tr.Seeks = 1
	if !tr.Interacted() {
		t.Fatal("seek not counted as interaction")
	}
	tr = VideoTrace{Plays: 2, Pauses: 1, Seeks: 3}
	if tr.Actions() != 6 {
		t.Fatalf("Actions = %d, want 6", tr.Actions())
	}
}

func TestSessionTraceAggregation(t *testing.T) {
	s := &SessionTrace{
		InstructionTime: 30 * time.Second,
		Videos: []VideoTrace{
			{TimeOnVideo: 20 * time.Second, Seeks: 10, OutOfFocus: 2 * time.Second},
			{TimeOnVideo: 25 * time.Second, Plays: 1, OutOfFocus: 3 * time.Second},
		},
	}
	if s.TotalTime() != 75*time.Second {
		t.Fatalf("TotalTime = %v", s.TotalTime())
	}
	if s.TotalActions() != 11 {
		t.Fatalf("TotalActions = %d", s.TotalActions())
	}
	if s.TotalOutOfFocus() != 5*time.Second {
		t.Fatalf("TotalOutOfFocus = %v", s.TotalOutOfFocus())
	}
	if s.SkippedAnyVideo() {
		t.Fatal("no video was skipped")
	}
	s.Videos = append(s.Videos, VideoTrace{TimeOnVideo: time.Second})
	if !s.SkippedAnyVideo() {
		t.Fatal("untouched video not flagged as skipped")
	}
}
