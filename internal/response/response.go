// Package response holds what a participant of an Eyeorg experiment
// hands back (§3.2, §3.3): the answer to a timeline or an A/B test and
// the engagement trace recorded per video and per visit. They are the
// records the §4.3 filters (internal/filtering) and the platform's
// incremental fold (internal/quality) read; the tests that produce them,
// with their videos and frame helpers, are internal/survey's. The
// package imports nothing of this module, so the campaign state machine
// links no frame code through it.
package response

import (
	"fmt"
	"time"
)

// TimelineResponse is one participant's answer to a timeline test.
type TimelineResponse struct {
	VideoID string
	// Slider is the originally scrubbed-to position.
	Slider time.Duration
	// Helper is the frame the helper proposed (the rewind frame, or the
	// control frame's nominal time for control questions).
	Helper time.Duration
	// AcceptedHelper reports whether the participant took the suggestion.
	AcceptedHelper bool
	// Submitted is the final answer: Helper if accepted, Slider otherwise.
	Submitted time.Duration
	// Control marks a control question.
	Control bool
	// ControlPassed is true when the participant correctly kept their own
	// choice on a control question (meaningless when !Control).
	ControlPassed bool
	// Trace is the engagement instrumentation for this video.
	Trace VideoTrace
}

// ABChoice is a participant's answer to an A/B test.
type ABChoice int

// A/B answers. The "hard rule" of §3.3: one of these must be chosen to
// proceed.
const (
	ChoiceLeft ABChoice = iota
	ChoiceRight
	ChoiceNoDifference
)

// String labels the choice as shown in the UI.
func (c ABChoice) String() string {
	switch c {
	case ChoiceLeft:
		return "left"
	case ChoiceRight:
		return "right"
	case ChoiceNoDifference:
		return "no difference"
	default:
		return fmt.Sprintf("choice(%d)", int(c))
	}
}

// ABResponse is one participant's answer to an A/B test.
type ABResponse struct {
	VideoID string
	Choice  ABChoice
	// AOnLeft is copied from the test for score mapping.
	AOnLeft bool
	// Control and ControlPassed mirror the timeline response fields.
	Control       bool
	ControlPassed bool
	// Trace is the engagement instrumentation for this video.
	Trace VideoTrace
}

// PickedA reports whether the choice names variant A, mapping the screen
// side back through the randomized order. It returns false for
// no-difference answers.
func (r *ABResponse) PickedA() bool {
	switch r.Choice {
	case ChoiceLeft:
		return r.AOnLeft
	case ChoiceRight:
		return !r.AOnLeft
	default:
		return false
	}
}

// PickedB reports whether the choice names variant B.
func (r *ABResponse) PickedB() bool {
	switch r.Choice {
	case ChoiceLeft:
		return !r.AOnLeft
	case ChoiceRight:
		return r.AOnLeft
	default:
		return false
	}
}

// VideoTrace is the engagement record Eyeorg keeps per video (§3.3
// "Engagement"): the basis of the behavioural filters.
type VideoTrace struct {
	VideoID string
	// LoadTime is how long the video took to deliver to the participant's
	// browser (timeline tests preload fully before the task starts).
	LoadTime time.Duration
	// TimeOnVideo is wall time spent on this test.
	TimeOnVideo time.Duration
	// Plays, Pauses and Seeks count player interactions.
	Plays, Pauses, Seeks int
	// WatchedFraction is how much of the video actually played.
	WatchedFraction float64
	// OutOfFocus is time the Eyeorg tab spent in the background.
	OutOfFocus time.Duration
}

// Interacted reports whether the participant touched the video at all —
// the soft rule of §3.3 (watch before answering).
func (tr *VideoTrace) Interacted() bool {
	return tr.Plays > 0 || tr.Seeks > 0
}

// Actions returns the total number of player interactions.
func (tr *VideoTrace) Actions() int { return tr.Plays + tr.Pauses + tr.Seeks }

// SessionTrace aggregates a participant's whole visit.
type SessionTrace struct {
	// InstructionTime is time spent reading instructions.
	InstructionTime time.Duration
	// Videos holds one trace per test, in presentation order.
	Videos []VideoTrace
}

// TotalTime returns time spent across instructions and all videos.
func (s *SessionTrace) TotalTime() time.Duration {
	total := s.InstructionTime
	for _, v := range s.Videos {
		total += v.TimeOnVideo
	}
	return total
}

// TotalActions sums interactions over all videos.
func (s *SessionTrace) TotalActions() int {
	n := 0
	for _, v := range s.Videos {
		n += v.Actions()
	}
	return n
}

// TotalOutOfFocus sums background-tab time over all videos.
func (s *SessionTrace) TotalOutOfFocus() time.Duration {
	var d time.Duration
	for _, v := range s.Videos {
		d += v.OutOfFocus
	}
	return d
}

// SkippedAnyVideo reports whether any video went completely uninspected —
// the condition the soft-rule filter drops on.
func (s *SessionTrace) SkippedAnyVideo() bool {
	for _, v := range s.Videos {
		if !v.Interacted() {
			return true
		}
	}
	return false
}
