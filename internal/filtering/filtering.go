// Package filtering implements Eyeorg's final response-cleaning strategy
// (§4.3), in the order the paper applies it:
//
//  1. Engagement (seek count): drop participants with 50% more video
//     interactions than the most active trusted participant.
//  2. Engagement (focus): drop participants who switched away from the
//     Eyeorg tab for more than 10 seconds — unless a long video delivery
//     explains the absence.
//  3. Soft rule: drop participants who skipped (neither played nor
//     scrubbed) even one video.
//  4. Control: drop participants who failed any control question.
//  5. Wisdom of the crowd: per video, keep timeline responses between the
//     25th and 75th percentiles.
//
// The rules read a session's answers and engagement trace, never who
// gave them: a record names its participant only by ID, so the offline
// pipeline can file simulated personas and the platform's incremental
// fold (internal/quality) can take the same records without either
// knowing about the other.
package filtering

import (
	"time"

	"github.com/eyeorg/eyeorg/internal/response"
	"github.com/eyeorg/eyeorg/internal/stats"
)

// TrustedMaxSeeks is the highest interaction count observed among trusted
// participants in the validation campaign (369 seeks); the engagement
// filter drops paid participants 50% above it. Recompute it from live
// trusted data with MaxTrustedActions when available.
const TrustedMaxSeeks = 369

// SeekFactor is the multiplier over the trusted maximum.
const SeekFactor = 1.5

// FocusLimit is the out-of-focus budget.
const FocusLimit = 10 * time.Second

// WisdomLo and WisdomHi bound the kept percentile band for timeline
// responses.
const (
	WisdomLo = 25.0
	WisdomHi = 75.0
)

// Reason says why a participant's session was dropped, or that it was kept.
type Reason int

// Filtering outcomes, in application order.
const (
	Kept Reason = iota
	DropEngagementSeeks
	DropEngagementFocus
	DropSoft
	DropControl
)

var reasonNames = [...]string{"kept", "engagement-seeks", "engagement-focus", "soft", "control"}

// String returns the reason label.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "unknown"
}

// Participant is whoever produced a session record; Clean keys its
// verdicts by the ID. *crowd.Participant is one.
type Participant interface {
	ParticipantID() string
}

// SessionRecord bundles everything one participant produced in a campaign.
// Exactly one of Timeline and AB is non-empty, matching the campaign type.
type SessionRecord struct {
	Participant Participant
	Trace       *response.SessionTrace
	Timeline    []*response.TimelineResponse
	AB          []*response.ABResponse
}

// ControlsPassed reports whether every control question was answered
// acceptably.
func (r *SessionRecord) ControlsPassed() bool {
	for _, t := range r.Timeline {
		if t.Control && !t.ControlPassed {
			return false
		}
	}
	for _, a := range r.AB {
		if a.Control && !a.ControlPassed {
			return false
		}
	}
	return true
}

// ControlResults returns (#controls answered, #passed).
func (r *SessionRecord) ControlResults() (total, passed int) {
	for _, t := range r.Timeline {
		if t.Control {
			total++
			if t.ControlPassed {
				passed++
			}
		}
	}
	for _, a := range r.AB {
		if a.Control {
			total++
			if a.ControlPassed {
				passed++
			}
		}
	}
	return total, passed
}

// Classify applies the per-participant rules in order and returns the
// first that fires. maxTrustedActions is the trusted interaction ceiling
// (pass TrustedMaxSeeks when no live baseline exists).
func Classify(rec *SessionRecord, maxTrustedActions int) Reason {
	if maxTrustedActions <= 0 {
		maxTrustedActions = TrustedMaxSeeks
	}
	// 1. Implausible interaction volume.
	if float64(rec.Trace.TotalActions()) > SeekFactor*float64(maxTrustedActions) {
		return DropEngagementSeeks
	}
	// 2. Long absences not explained by video delivery. A participant is
	// excused while the video is still downloading; once it was delivered
	// within the absence window, the absence counts.
	for _, v := range rec.Trace.Videos {
		if v.OutOfFocus > FocusLimit && v.LoadTime <= v.OutOfFocus {
			return DropEngagementFocus
		}
	}
	// 3. Soft rule: never interacted with some video.
	if rec.Trace.SkippedAnyVideo() {
		return DropSoft
	}
	// 4. Control questions.
	if !rec.ControlsPassed() {
		return DropControl
	}
	return Kept
}

// Summary counts participants by filtering outcome — the Engagement /
// Soft / Control columns of Table 1.
type Summary struct {
	Total           int
	Kept            int
	EngagementSeeks int
	EngagementFocus int
	Soft            int
	Control         int
}

// Engagement returns the combined engagement drops.
func (s Summary) Engagement() int { return s.EngagementSeeks + s.EngagementFocus }

// Dropped returns all dropped participants.
func (s Summary) Dropped() int { return s.Total - s.Kept }

// Outcome is the result of cleaning a campaign's records.
type Outcome struct {
	Summary Summary
	// Kept holds the surviving records in input order.
	Kept []*SessionRecord
	// ReasonFor maps participant ID to its classification.
	ReasonFor map[string]Reason
}

// Clean classifies every record and keeps the survivors.
func Clean(records []*SessionRecord, maxTrustedActions int) *Outcome {
	out := &Outcome{ReasonFor: make(map[string]Reason, len(records))}
	out.Summary.Total = len(records)
	for _, rec := range records {
		r := Classify(rec, maxTrustedActions)
		out.ReasonFor[rec.Participant.ParticipantID()] = r
		switch r {
		case Kept:
			out.Summary.Kept++
			out.Kept = append(out.Kept, rec)
		case DropEngagementSeeks:
			out.Summary.EngagementSeeks++
		case DropEngagementFocus:
			out.Summary.EngagementFocus++
		case DropSoft:
			out.Summary.Soft++
		case DropControl:
			out.Summary.Control++
		}
	}
	return out
}

// MaxTrustedActions computes the trusted interaction ceiling from live
// trusted sessions, as the validation campaign does. A campaign with no
// trusted participants — or trusted participants who never touched a
// player — has no live baseline to compare against; rather than return a
// zero ceiling (which would engagement-drop every paid participant with
// a single interaction), it falls back to the paper's validated
// TrustedMaxSeeks constant.
func MaxTrustedActions(trusted []*SessionRecord) int {
	max := 0
	for _, rec := range trusted {
		if n := rec.Trace.TotalActions(); n > max {
			max = n
		}
	}
	if max == 0 {
		return TrustedMaxSeeks
	}
	return max
}

// TimelineByVideo groups the kept records' non-control timeline responses
// by video, as submitted seconds.
func TimelineByVideo(kept []*SessionRecord) map[string][]float64 {
	out := make(map[string][]float64)
	for _, rec := range kept {
		for _, resp := range rec.Timeline {
			if resp.Control {
				continue
			}
			out[resp.VideoID] = append(out[resp.VideoID], resp.Submitted.Seconds())
		}
	}
	return out
}

// WisdomOfCrowd applies the 25th–75th percentile band per video and
// returns the filtered groups.
func WisdomOfCrowd(byVideo map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(byVideo))
	for id, vals := range byVideo {
		out[id] = stats.Sample(vals).IQRFilter(WisdomLo, WisdomHi)
	}
	return out
}

// ABVotes tallies the kept records' non-control A/B answers per video:
// votes for variant A, variant B, and no difference.
type ABVotes struct {
	A, B, NoDiff int
}

// Total returns all votes.
func (v ABVotes) Total() int { return v.A + v.B + v.NoDiff }

// Score returns the paper's per-site score: the fraction of decisive votes
// for variant B (0 = A faster, 1 = B faster; "no difference" excluded,
// §5.3). ok is false when no decisive votes exist.
func (v ABVotes) Score() (score float64, ok bool) {
	d := v.A + v.B
	if d == 0 {
		return 0, false
	}
	return float64(v.B) / float64(d), true
}

// Agreement returns the fraction of votes matching the most popular
// choice, counting all three options (§4.2).
func (v ABVotes) Agreement() float64 {
	return stats.Agreement([]int{v.A, v.B, v.NoDiff})
}

// ABByVideo tallies votes per video over the kept records.
func ABByVideo(kept []*SessionRecord) map[string]*ABVotes {
	out := make(map[string]*ABVotes)
	for _, rec := range kept {
		for _, resp := range rec.AB {
			if resp.Control {
				continue
			}
			v := out[resp.VideoID]
			if v == nil {
				v = &ABVotes{}
				out[resp.VideoID] = v
			}
			switch {
			case resp.PickedA():
				v.A++
			case resp.PickedB():
				v.B++
			default:
				v.NoDiff++
			}
		}
	}
	return out
}
