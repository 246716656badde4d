// Package survey implements Eyeorg's two experiment types (§3.2) and the
// response-validation instrumentation of §3.3:
//
//   - Timeline tests: the participant scrubs a slider over a fully
//     preloaded video to the point where the page is "ready to use"; a
//     frame-selection helper then proposes the earliest visually similar
//     frame (Figure 3(a)), occasionally replaced by a drastically
//     different control frame (Figure 3(b)) to catch blind accepters.
//   - A/B tests: two loads spliced side by side; the participant picks
//     Left, Right, or No Difference. Control questions show the same
//     video with one side delayed by three seconds.
//
// The answers and the engagement traces Eyeorg records for every
// participant (plays, seeks, watched fraction, out-of-focus time, video
// load time), which the filtering pipeline consumes, are
// internal/response's; this package names them too.
package survey

import (
	"time"

	"github.com/eyeorg/eyeorg/internal/response"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
)

// RewindThreshold is the frame-similarity bound of the helper: the
// suggested frame may differ from the chosen one by at most 1% of pixels.
const RewindThreshold = 0.01

// ControlDelay is the artificial delay applied to one side of an A/B
// control question.
const ControlDelay = 3 * time.Second

// TimelineTest is one video shown in a timeline campaign.
type TimelineTest struct {
	// VideoID identifies the underlying capture.
	VideoID string
	// Video is fully preloaded before the slider unlocks (§3.2 forces the
	// preload so seek lag cannot masquerade as page slowness).
	Video *video.Video
	// Control marks a frame-helper control question: the proposed rewind
	// frame is deliberately wrong and must be rejected.
	Control bool
}

// ProposeRewind returns the helper's suggestion for a slider position: the
// timestamp of the earliest frame within RewindThreshold of the chosen
// frame.
func (t *TimelineTest) ProposeRewind(slider time.Duration) time.Duration {
	idx := t.Video.FrameIndexAt(slider)
	early := vision.EarliestSimilar(t.Video.Frames, idx, RewindThreshold)
	return t.Video.FrameTime(early)
}

// ControlFrameDiff returns how different the control helper frame is from
// the participant's chosen frame; it is large by construction (the control
// frame is nearly blank).
func (t *TimelineTest) ControlFrameDiff(slider time.Duration) float64 {
	idx := t.Video.FrameIndexAt(slider)
	blank := vision.NewFrame()
	return vision.Diff(t.Video.Frames[idx], blank)
}

// The records a test produces live in internal/response, which the
// §4.3 filters and the platform read without linking frame code; they
// keep their names here.
type (
	TimelineResponse = response.TimelineResponse
	ABChoice         = response.ABChoice
	ABResponse       = response.ABResponse
	VideoTrace       = response.VideoTrace
	SessionTrace     = response.SessionTrace
)

// A/B answers. The "hard rule" of §3.3: one of these must be chosen to
// proceed.
const (
	ChoiceLeft         = response.ChoiceLeft
	ChoiceRight        = response.ChoiceRight
	ChoiceNoDifference = response.ChoiceNoDifference
)

// ABTest is one side-by-side comparison.
type ABTest struct {
	VideoID string
	// Spliced is the single synchronized video shown to the participant.
	Spliced *video.Video
	// AOnLeft reports which side variant "A" landed on; pairs are shown in
	// random order so position cannot bias the score.
	AOnLeft bool
	// Control marks a control question: both sides show the same load,
	// with DelayedSide started ControlDelay late.
	Control bool
	// DelayedSide is the side that was artificially delayed (control only).
	DelayedSide ABChoice
}

// ControlPassed reports whether choice is acceptable on a control
// question: the participant must not pick the delayed side as faster.
func (t *ABTest) ControlPassed(choice ABChoice) bool {
	if !t.Control {
		return true
	}
	return choice != t.DelayedSide
}

// MakeABControl builds a control A/B test from a single capture: the same
// video on both sides, one side delayed. delayRight chooses the side.
func MakeABControl(videoID string, v *video.Video, delayRight bool) (*ABTest, error) {
	delayed := v.WithStartDelay(ControlDelay)
	var left, right *video.Video
	var side ABChoice
	if delayRight {
		left, right, side = v, delayed, ChoiceRight
	} else {
		left, right, side = delayed, v, ChoiceLeft
	}
	spliced, err := video.SideBySide(left, right)
	if err != nil {
		return nil, err
	}
	return &ABTest{
		VideoID:     videoID + "#control",
		Spliced:     spliced,
		AOnLeft:     !delayRight,
		Control:     true,
		DelayedSide: side,
	}, nil
}

// MakeAB builds a regular A/B test from two captures of the same site
// under different treatments. aOnLeft is the randomized placement.
func MakeAB(videoID string, a, b *video.Video, aOnLeft bool) (*ABTest, error) {
	var left, right *video.Video
	if aOnLeft {
		left, right = a, b
	} else {
		left, right = b, a
	}
	spliced, err := video.SideBySide(left, right)
	if err != nil {
		return nil, err
	}
	return &ABTest{VideoID: videoID, Spliced: spliced, AOnLeft: aOnLeft}, nil
}
