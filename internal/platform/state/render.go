// The read side: the /results and /analytics documents, rendered from
// the incremental §4.3 state internal/quality maintains on every op —
// per-participant filter verdicts (frozen for completed sessions,
// provisional for in-flight ones), kept/dropped counts per rule, and the
// current wisdom-of-the-crowd percentile band per video — without
// replaying a session or re-encoding a completed one's row. Each comes
// with a strong ETag.
package state

import (
	"bytes"
	"encoding/json"
	"hash/crc64"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"github.com/eyeorg/eyeorg/internal/filtering"
)

// ResultsResponse summarises a campaign after filtering.
type ResultsResponse struct {
	Campaign     string             `json:"campaign"`
	Participants int                `json:"participants"`
	Kept         int                `json:"kept"`
	Engagement   int                `json:"engagement_dropped"`
	Soft         int                `json:"soft_dropped"`
	Control      int                `json:"control_dropped"`
	PerVideo     map[string]VideoAg `json:"per_video"`
}

// VideoAg is per-video aggregated output.
type VideoAg struct {
	Responses int     `json:"responses"`
	MeanUPLT  float64 `json:"mean_uplt_s,omitempty"`
	Agreement float64 `json:"agreement,omitempty"`
	Banned    bool    `json:"banned,omitempty"`
}

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
	// confidence sequences and resolution — when the server runs with
	// adaptive campaigns enabled; absent otherwise.
	Stopping *StoppingAnalytics `json:"stopping,omitempty"`
}

// StoppingAnalytics is the adaptive stopper's campaign-level view.
type StoppingAnalytics struct {
	// TargetHalfWidth is the configured half-width, in seconds, each
	// timeline video's confidence sequence must shrink to before it
	// resolves; absent on A/B campaigns, whose videos resolve by verdict.
	TargetHalfWidth float64 `json:"target_half_width,omitempty"`
	// Closed means every unbanned video resolved: new joins are refused
	// with 409. Resolved and Total count unbanned videos only.
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
	// Lo/Hi bound the current 95% confidence sequence: the median load
	// time in seconds (timeline) or the preference score for A (A/B).
	// Each is absent while that side is unbounded.
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
	// Verdict is what a resolved A/B video decided: "a" or "b" for a
	// preference, "none" for none.
	Verdict string `json:"verdict,omitempty"`
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

// jsonBuf is a rendering buffer with the encoder that writes to it,
// recycled through jsonPool.
type jsonBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	buf := new(jsonBuf)
	buf.enc = json.NewEncoder(&buf.Buffer)
	return buf
}}

// encodeJSON renders v into a pooled buffer. The caller owns the buffer
// and must hand it back to jsonPool once the bytes are used.
func encodeJSON(v any) (*jsonBuf, error) {
	buf := jsonPool.Get().(*jsonBuf)
	buf.Reset()
	if err := buf.enc.Encode(v); err != nil {
		jsonPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// A strong ETag is a digest of the response, built from CRC-64 checksums
// over etagTable, and its length.
var etagTable = crc64.MakeTable(crc64.ECMA)

// etagOf renders the tag, quoted: the checksum as 16 hex digits, a dash
// and the length in hex.
func etagOf(sum uint64, n int) string {
	b := append(make([]byte, 0, 40), '"')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>shift&0xf])
	}
	b = strconv.AppendInt(append(b, '-'), int64(n), 16)
	return string(append(b, '"'))
}

// Results returns campaign id's /results body and its ETag. The body is
// rendered once per change: every op that changes what it would say
// drops it (invalidate), the tag with it, so a match certifies the
// client's copy is the current render.
func (st *State) Results(id string) ([]byte, string, error) {
	csh := st.campaigns.Shard(id)
	csh.Lock()
	defer csh.Unlock()
	c, ok := csh.Get(id)
	if !ok {
		return nil, "", ErrNoCampaign
	}
	if c.cache == nil {
		rendered, err := st.RenderResults(c)
		if err != nil {
			return nil, "", err
		}
		c.cache = rendered
		c.cacheTag = etagOf(crc64.Checksum(rendered, etagTable), len(rendered))
	}
	return c.cache, c.cacheTag, nil
}

// RenderResults marshals the campaign's §4.3 aggregates exactly as
// encoding/json's Encoder would. Caller holds the campaign's shard lock,
// which the video shards it reads follow in the lock order, or no op
// applies.
func (st *State) RenderResults(c *Campaign) ([]byte, error) {
	sum := c.analytics.Summary()
	res := ResultsResponse{
		Campaign:     c.ID,
		Participants: sum.Total,
		Kept:         sum.Kept,
		Engagement:   sum.Engagement(),
		Soft:         sum.Soft,
		Control:      sum.Control,
		PerVideo:     map[string]VideoAg{},
	}
	switch c.Kind {
	case "timeline":
		for id, band := range c.analytics.TimelineBands(filtering.WisdomLo, filtering.WisdomHi) {
			res.PerVideo[id] = VideoAg{
				Responses: band.InBand,
				MeanUPLT:  band.Mean,
				Banned:    st.videoBanned(id),
			}
		}
	case "ab":
		for id, votes := range c.analytics.Votes() {
			res.PerVideo[id] = VideoAg{
				Responses: votes.Total(),
				Agreement: votes.Agreement(),
				Banned:    st.videoBanned(id),
			}
		}
	}
	buf, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// Analytics appends campaign id's /analytics payload over the [lo, hi]
// percentile band, which the caller has validated, to dst and returns it
// with its ETag. When fresh reports that the client holds the tag's body
// already, it renders no body and returns dst as it came.
//
// In-flight rows are rendered under each session's shard lock, the
// campaign lock released: session shards come first in the lock order.
// A session was indexed before it was listed, but it may have completed
// since, and then the index no longer holds it.
func (st *State) Analytics(dst []byte, id string, lo, hi float64, fresh func(tag string) bool) ([]byte, string, error) {
	csh := st.campaigns.Shard(id)
	csh.RLock()
	c, ok := csh.Get(id)
	if !ok {
		csh.RUnlock()
		return dst, "", ErrNoCampaign
	}
	liveIDs := slices.Clone(c.inflight)
	csh.RUnlock()
	sort.Strings(liveIDs)
	live := make([][]byte, len(liveIDs))
	for i, sid := range liveIDs {
		ssh := st.sessions.Shard(sid)
		ssh.RLock()
		if sess, ok := ssh.Get(sid); ok {
			v := sess.verdict()
			live[i] = v.appendRow(nil)
		}
		ssh.RUnlock()
	}
	// The rest is read under the campaign lock. A session that completed
	// since it was listed — before or after its row was rendered — is
	// listed from its frozen row; one that joined since, in the next poll.
	csh.RLock()
	defer csh.RUnlock()
	rows, size, sum := len(c.rowOrder), int(c.rows.size(uint32(len(c.rows.ends)))), uint64(0)
	for i, sid := range liveIDs {
		if _, frozen := c.frozenAt(sid); frozen {
			live[i] = nil
			continue
		}
		rows++
		size += len(live[i]) + 1
		sum = crc64.Update(sum, etagTable, live[i])
	}
	resp := st.AnalyticsShell(c, lo, hi, rows)
	shell, err := encodeJSON(&resp)
	if err != nil {
		return dst, "", err
	}
	defer jsonPool.Put(shell)
	// The validator needs no body: the frozen rows' digest, a hash of what
	// this request rendered, and the length (the last row has no comma).
	size += shell.Len() - min(rows, 1)
	tag := etagOf(c.rowDigest+crc64.Update(sum, etagTable, shell.Bytes()), size)
	if fresh(tag) {
		return dst, tag, nil
	}
	spilled, err := c.rows.readSpilled(c.spilled)
	if err != nil {
		return dst, "", err
	}
	defer regionPool.Put(spilled)
	return c.appendAnalytics(slices.Grow(dst, size), *spilled, shell.Bytes(), liveIDs, live), tag, nil
}

// verdict returns the session's ParticipantVerdict, which encoding/json
// renders as its /analytics row. Caller holds the session's shard lock.
func (sess *Session) verdict() ParticipantVerdict {
	snap := sess.Standing()
	return ParticipantVerdict{
		Session:        sess.ID,
		Worker:         sess.Worker.ID,
		Completed:      snap.Completed,
		Verdict:        snap.Current().String(),
		Provisional:    !snap.Completed,
		Answered:       snap.Answered,
		Actions:        snap.Actions,
		ControlsFailed: snap.ControlsFailed,
	}
}

// appendRow appends v's /analytics row to dst, the bytes encoding/json
// renders for it: once for a completed session, per poll for one in flight.
func (v *ParticipantVerdict) appendRow(dst []byte) []byte {
	buf, _ := encodeJSON(v)                         // strings, ints, bools: cannot fail
	dst = append(dst, buf.Bytes()[:buf.Len()-1]...) // less the encoder's newline
	jsonPool.Put(buf)
	return dst
}

// frozenID returns the ID of the completed session at position i of the
// frozen rows in payload order, which is ascending by ID.
func (c *Campaign) frozenID(i int) string { return c.recordSessions[c.rowOrder[i]] }

// frozenAt reports where session id sits, or would sit, among the frozen
// rows in payload order, and whether its row is there.
func (c *Campaign) frozenAt(id string) (int, bool) {
	at := sort.Search(len(c.rowOrder), func(i int) bool { return c.frozenID(i) >= id })
	return at, at < len(c.rowOrder) && c.frozenID(at) == id
}

// appendAnalytics appends the payload to b: shell, an AnalyticsResponse
// encoded with no participants, with the frozen rows — spilled holds the
// rows file's valid region — copied into its empty list, merged in
// ascending session order with the non-nil rows of live (live[i] is
// liveIDs[i]'s). Caller holds the campaign's lock.
func (c *Campaign) appendAnalytics(b, spilled, shell []byte, liveIDs []string, live [][]byte) []byte {
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
			b = append(b, c.rows.at(spilled, c.rowOrder[next], c.spilled)...)
		}
		if i < len(liveIDs) && live[i] != nil {
			b = append(append(b, live[i]...), ',')
		}
	}
	return append(bytes.TrimSuffix(b, []byte(",")), shell[cut:]...)
}

// AnalyticsShell builds the payload's campaign-level fields around an
// empty list of the sessions it counts. Caller holds the campaign's
// shard lock.
func (st *State) AnalyticsShell(c *Campaign, lo, hi float64, sessions int) AnalyticsResponse {
	resp := AnalyticsResponse{
		Campaign:     c.ID,
		Kind:         c.Kind,
		Sessions:     sessions,
		Completed:    len(c.recordSessions),
		Summary:      AnalyticsSummary(c.analytics.Summary()), // same fields, this type names them in JSON
		Participants: []ParticipantVerdict{},
		PerVideo:     st.renderVideoAnalytics(c, lo, hi),
	}
	if c.adaptive != nil {
		resolved, total := c.adaptive.Resolved()
		st := StoppingAnalytics{
			Closed:   c.adaptive.Closed(),
			Resolved: resolved,
			Total:    total,
			PerVideo: map[string]VideoStopping{},
		}
		if c.Kind == "timeline" {
			st.TargetHalfWidth = c.adaptive.Config().HalfWidth
		}
		for _, vs := range c.adaptive.Status() {
			st.PerVideo[vs.Video] = VideoStopping{
				State:   string(vs.State),
				Kept:    vs.N,
				Pending: vs.Pending,
				Lo:      finite(vs.Lo),
				Hi:      finite(vs.Hi),
				Verdict: string(vs.Verdict),
			}
		}
		resp.Stopping = &st
	}
	return resp
}

// finite points at x, or is nil for an unbounded side, which JSON
// cannot carry.
func finite(x float64) *float64 {
	if math.IsInf(x, 0) {
		return nil
	}
	return &x
}

// renderVideoAnalytics builds the per-video section from the campaign's
// incremental sketches over the [lo, hi] percentile band. Caller holds
// the campaign's shard lock, which the video shards it reads follow in
// the lock order, and has already validated the band.
func (st *State) renderVideoAnalytics(c *Campaign, lo, hi float64) map[string]VideoAnalytics {
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
				Banned:    st.videoBanned(id),
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
				Banned:    st.videoBanned(id),
			}
		}
	}
	return out
}
