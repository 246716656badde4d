// The live quality-analytics endpoint: GET /campaigns/{id}/analytics
// serves the incremental §4.3 state internal/quality maintains on every
// mutation — per-participant filter verdicts (frozen for completed
// sessions, provisional for in-flight ones), kept/dropped counts per
// rule, and the current wisdom-of-the-crowd percentile band per video —
// without replaying a session or re-encoding a completed one's row.
// /results (renderResults) reads the same aggregates.
package platform

import (
	"bytes"
	"encoding/json"
	"hash/crc64"
	"net/http"
	"slices"
	"sort"
	"strconv"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/stats"
)

// AnalyticsResponse is the live quality-analytics payload.
type AnalyticsResponse struct {
	Campaign string `json:"campaign"`
	Kind     string `json:"kind"`
	// Sessions counts every join; Completed counts sessions whose full
	// assignment is answered (only those enter Summary and PerVideo).
	Sessions  int `json:"sessions"`
	Completed int `json:"completed"`
	// Summary is the per-rule kept/dropped histogram over completed
	// sessions, equal to the offline batch's on the same sessions.
	Summary AnalyticsSummary `json:"summary"`
	// Participants lists every session's current verdict, sorted by
	// session ID.
	Participants []ParticipantVerdict `json:"participants"`
	// PerVideo carries the timeline percentile bands (timeline
	// campaigns) or vote tallies (A/B campaigns) over kept sessions.
	PerVideo map[string]VideoAnalytics `json:"per_video"`
	// Stopping reports the adaptive stopper's state — per-video
	// confidence intervals and resolution — when the server runs with
	// adaptive campaigns enabled; absent otherwise.
	Stopping *StoppingAnalytics `json:"stopping,omitempty"`
}

// StoppingAnalytics is the adaptive stopper's campaign-level view.
type StoppingAnalytics struct {
	// TargetHalfWidth is the configured half-width (seconds for
	// timeline campaigns, preference-score units for A/B) each video's
	// interval must shrink to before it resolves.
	TargetHalfWidth float64 `json:"target_half_width"`
	// Closed means every video resolved: new joins are refused with 409.
	Closed   bool                     `json:"closed"`
	Resolved int                      `json:"resolved"`
	Total    int                      `json:"total"`
	PerVideo map[string]VideoStopping `json:"per_video"`
}

// VideoStopping is one video's stopping state.
type VideoStopping struct {
	// State is "collecting" or "resolved".
	State string `json:"state"`
	// Kept counts final kept samples feeding the estimator; Pending
	// counts in-flight assignments already bought but not yet settled.
	Kept    int `json:"kept"`
	Pending int `json:"pending,omitempty"`
	// Mean/HalfWidth describe the current confidence interval; Method
	// is "normal", "bootstrap", or absent when n < 2.
	Mean      float64 `json:"mean,omitempty"`
	HalfWidth float64 `json:"half_width,omitempty"`
	Method    string  `json:"method,omitempty"`
}

// AnalyticsSummary is the §4.3 outcome histogram, one counter per rule.
type AnalyticsSummary struct {
	Total           int `json:"total"`
	Kept            int `json:"kept"`
	EngagementSeeks int `json:"engagement_seeks"`
	EngagementFocus int `json:"engagement_focus"`
	Soft            int `json:"soft"`
	Control         int `json:"control"`
}

// ParticipantVerdict is one session's standing against the filters.
type ParticipantVerdict struct {
	Session   string `json:"session"`
	Worker    string `json:"worker"`
	Completed bool   `json:"completed"`
	// Verdict is the first §4.3 rule currently firing ("kept",
	// "engagement-seeks", "engagement-focus", "soft", "control").
	Verdict string `json:"verdict"`
	// Provisional marks in-flight sessions: the verdict can still change
	// until the assignment is fully answered (in particular the soft
	// rule holds until every assigned video has been interacted with).
	Provisional    bool `json:"provisional,omitempty"`
	Answered       int  `json:"answered"`
	Actions        int  `json:"actions"`
	ControlsFailed int  `json:"controls_failed,omitempty"`
}

// VideoAnalytics is one video's aggregate over kept sessions.
type VideoAnalytics struct {
	// Responses counts kept submissions (timeline) or decisive-plus-tied
	// votes (A/B) before the band.
	Responses int `json:"responses"`
	// Timeline: the 25th–75th percentile band bounds in seconds, the
	// count inside it, and the in-band mean UPLT.
	InBand    int     `json:"in_band,omitempty"`
	BandLoS   float64 `json:"band_lo_s,omitempty"`
	BandHiS   float64 `json:"band_hi_s,omitempty"`
	MeanUPLTS float64 `json:"mean_uplt_s,omitempty"`
	// A/B: vote tallies and crowd agreement.
	VotesA    int     `json:"votes_a,omitempty"`
	VotesB    int     `json:"votes_b,omitempty"`
	NoDiff    int     `json:"no_difference,omitempty"`
	Agreement float64 `json:"agreement,omitempty"`
	Banned    bool    `json:"banned,omitempty"`
}

// percentileParam parses an optional percentile query parameter,
// falling back to def when absent. Out-of-range or non-numeric values
// report ok=false: stats.Percentile panics past this boundary by
// design, so user input must be rejected here with a 400.
func percentileParam(r *http.Request, name string, def float64) (float64, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	p, err := strconv.ParseFloat(raw, 64)
	if err != nil || !stats.ValidPercentile(p) {
		return 0, false
	}
	return p, true
}

func (s *Server) handleAnalytics(w *scratch, r *http.Request) {
	id := w.id
	lo, okLo := percentileParam(r, "lo", filtering.WisdomLo)
	hi, okHi := percentileParam(r, "hi", filtering.WisdomHi)
	if !okLo || !okHi || lo > hi {
		writeErr(w, http.StatusBadRequest, "lo/hi must be percentiles in [0,100] with lo <= hi")
		return
	}
	csh := s.campaigns.Shard(id)
	csh.RLock()
	c, ok := csh.Get(id)
	if !ok {
		csh.RUnlock()
		writeErr(w, http.StatusNotFound, errNoCampaign.Error())
		return
	}
	liveIDs := slices.Clone(c.inflight)
	csh.RUnlock()
	sort.Strings(liveIDs)
	// In-flight rows are rendered under each session's shard lock, the
	// campaign lock released: session shards come first in the lock
	// order. A
	// session was indexed before it was listed and is never removed, but
	// it may have completed since, and then has no state to render.
	live := make([][]byte, len(liveIDs))
	for i, sid := range liveIDs {
		ssh := s.sessions.Shard(sid)
		ssh.RLock()
		if e, _ := ssh.Get(sid); e.live != nil {
			live[i] = e.live.verdictRow()
		}
		ssh.RUnlock()
	}
	// The rest is read under the campaign lock, released before anything
	// is written. A session that completed since it was listed — before or
	// after its row was rendered — is listed from its frozen row; one that
	// joined since, in the next poll.
	csh.RLock()
	rows, size, sum := len(c.rowOrder), len(c.rows), uint64(0)
	for i, sid := range liveIDs {
		if _, frozen := c.frozenAt(sid); frozen {
			live[i] = nil
			continue
		}
		rows++
		size += len(live[i]) + 1
		sum = crc64.Update(sum, etagTable, live[i])
	}
	resp := s.analyticsShell(c, lo, hi, rows)
	shell, err := encodeJSON(&resp)
	if err != nil {
		csh.RUnlock()
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer bufPool.Put(shell)
	// The validator needs no body: the frozen rows' digest, a hash of what
	// this request rendered, and the length (the last row has no comma).
	size += shell.Len() - min(rows, 1)
	tag := etagOf(c.rowDigest+crc64.Update(sum, etagTable, shell.Bytes()), size)
	var body []byte
	if !etagMatches(r.Header.Get("If-None-Match"), tag) {
		pooled := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(pooled)
		*pooled = c.appendAnalytics(slices.Grow((*pooled)[:0], size), shell.Bytes(), liveIDs, live)
		body = *pooled
	}
	csh.RUnlock()
	writeConditional(w, r, tag, body)
}

// verdictRow renders the session's ParticipantVerdict as encoding/json
// would inside a whole payload. Caller holds the session's shard lock.
func (sess *sessionState) verdictRow() []byte {
	snap := sess.final
	if !sess.completed() {
		snap = sess.track.Snapshot()
	}
	row, _ := json.Marshal(&ParticipantVerdict{ // strings, ints, bools: cannot fail
		Session:        sess.ID,
		Worker:         sess.Worker.ID,
		Completed:      snap.Completed,
		Verdict:        snap.Current().String(),
		Provisional:    !snap.Completed,
		Answered:       snap.Answered,
		Actions:        snap.Actions,
		ControlsFailed: snap.ControlsFailed,
	})
	return row
}

// frozenAt reports where session id sits, or would sit, among the frozen
// rows in payload order, and whether its row is there.
func (c *campaignState) frozenAt(id string) (int, bool) {
	at := sort.Search(len(c.rowOrder), func(i int) bool { return c.recordSessions[c.rowOrder[i]] >= id })
	return at, at < len(c.rowOrder) && c.recordSessions[c.rowOrder[at]] == id
}

// appendAnalytics appends the payload to b: shell, an AnalyticsResponse
// encoded with no participants, with the frozen rows copied into its
// empty list, merged in ascending session order with the non-nil rows
// of live (live[i] is liveIDs[i]'s). Caller holds the campaign's lock.
func (c *campaignState) appendAnalytics(b, shell []byte, liveIDs []string, live [][]byte) []byte {
	// encoding/json escapes quotes in strings: the first match is the field.
	cut := bytes.Index(shell, []byte(`"participants":[]`)) + len(`"participants":[`)
	b = append(b, shell[:cut]...)
	next := 0 // frozen rows copied so far, in payload order
	for i := 0; i <= len(liveIDs); i++ {
		at := len(c.rowOrder)
		if i < len(liveIDs) {
			at, _ = c.frozenAt(liveIDs[i])
		}
		for ; next < at; next++ {
			b = append(b, segment(c.rows, c.rowEnds, c.rowOrder[next])...)
		}
		if i < len(liveIDs) && live[i] != nil {
			b = append(append(b, live[i]...), ',')
		}
	}
	return append(bytes.TrimSuffix(b, []byte(",")), shell[cut:]...)
}

// analyticsShell builds the payload's campaign-level fields around an
// empty list of the sessions it counts. Caller holds the campaign's
// shard lock.
func (s *Server) analyticsShell(c *campaignState, lo, hi float64, sessions int) AnalyticsResponse {
	resp := AnalyticsResponse{
		Campaign:     c.ID,
		Kind:         c.Kind,
		Sessions:     sessions,
		Completed:    len(c.recordSessions),
		Summary:      AnalyticsSummary(c.analytics.Summary()), // same fields, this type names them in JSON
		Participants: []ParticipantVerdict{},
		PerVideo:     s.renderVideoAnalytics(c, lo, hi),
	}
	if c.adaptive != nil {
		resolved, total := c.adaptive.Resolved()
		st := StoppingAnalytics{
			TargetHalfWidth: c.adaptive.Config().HalfWidth,
			Closed:          c.adaptive.Closed(),
			Resolved:        resolved,
			Total:           total,
			PerVideo:        map[string]VideoStopping{},
		}
		for _, vs := range c.adaptive.Status() {
			st.PerVideo[vs.Video] = VideoStopping{
				State:     string(vs.State),
				Kept:      vs.Kept,
				Pending:   vs.Pending,
				Mean:      vs.Mean,
				HalfWidth: vs.HalfWidth,
				Method:    vs.Method,
			}
		}
		resp.Stopping = &st
	}
	return resp
}

// renderVideoAnalytics builds the per-video section from the campaign's
// incremental sketches over the [lo, hi] percentile band. Caller holds
// the campaign's shard lock, which the video shards it reads follow in
// the lock order, and has already validated the band.
func (s *Server) renderVideoAnalytics(c *campaignState, lo, hi float64) map[string]VideoAnalytics {
	out := map[string]VideoAnalytics{}
	switch c.Kind {
	case "timeline":
		for id, band := range c.analytics.TimelineBands(lo, hi) {
			out[id] = VideoAnalytics{
				Responses: band.Total,
				InBand:    band.InBand,
				BandLoS:   band.Lo,
				BandHiS:   band.Hi,
				MeanUPLTS: band.Mean,
				Banned:    s.videoBanned(id),
			}
		}
	case "ab":
		for id, votes := range c.analytics.Votes() {
			out[id] = VideoAnalytics{
				Responses: votes.Total(),
				VotesA:    votes.A,
				VotesB:    votes.B,
				NoDiff:    votes.NoDiff,
				Agreement: votes.Agreement(),
				Banned:    s.videoBanned(id),
			}
		}
	}
	return out
}
