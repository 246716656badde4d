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
	"strings"
	"sync"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
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

// The JSON appenders below write every value exactly as encoding/json's
// Marshal writes it, so the rendered documents are its bytes without
// its reflection: FuzzRenderDifferential holds them to encoding/json on
// random documents. A document is appended into a jsonOut, whose key
// separates each field or map entry from the one before it.

// jsonOut is a JSON document being appended. err latches the first
// value JSON cannot carry, which fails the render as encoding/json
// fails.
type jsonOut struct {
	b   []byte
	err error
}

// appendJSONString appends s as a JSON string. A string of printable ASCII
// that needs no escape is copied as it is; any other goes through
// encoding/json, which escapes quotes, backslashes, control characters
// and the HTML characters <, > and &, and replaces invalid UTF-8.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// A string always encodes. The clone keeps s from escaping
			// through the interface, so a caller's values stay on its
			// stack.
			quoted, _ := json.Marshal(strings.Clone(s))
			return append(b, quoted...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// key appends name as the key of the next field or map entry, after a
// comma unless the object has just opened.
func (o *jsonOut) key(name string) {
	if o.b[len(o.b)-1] != '{' {
		o.b = append(o.b, ',')
	}
	o.b = append(appendJSONString(o.b, name), ':')
}

func (o *jsonOut) str(name, v string) {
	o.key(name)
	o.b = appendJSONString(o.b, v)
}

func (o *jsonOut) int(name string, v int) {
	o.key(name)
	o.b = strconv.AppendInt(o.b, int64(v), 10)
}

func (o *jsonOut) bool(name string, v bool) {
	o.key(name)
	o.b = strconv.AppendBool(o.b, v)
}

// float appends v as encoding/json writes a float64: the shortest 'f'
// form, or 'e' form below 1e-6 and from 1e21 up with a one-digit
// negative exponent unpadded. NaN and ±Inf fail.
func (o *jsonOut) float(name string, v float64) {
	o.key(name)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if o.err == nil {
			o.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	o.b = strconv.AppendFloat(o.b, v, format, -1, 64)
	if n := len(o.b); format == 'e' && o.b[n-4] == 'e' && o.b[n-3] == '-' && o.b[n-2] == '0' {
		o.b[n-2] = o.b[n-1]
		o.b = o.b[:n-1]
	}
}

// The omitempty fields: a zero is left out.

func (o *jsonOut) intOmit(name string, v int) {
	if v != 0 {
		o.int(name, v)
	}
}

func (o *jsonOut) boolOmit(name string, v bool) {
	if v {
		o.bool(name, v)
	}
}

func (o *jsonOut) floatOmit(name string, v float64) {
	if v != 0 {
		o.float(name, v)
	}
}

func (o *jsonOut) strOmit(name, v string) {
	if v != "" {
		o.str(name, v)
	}
}

// resultsHead appends r's fields up to the opening of its per_video
// object, whose entries videoAg appends.
func (o *jsonOut) resultsHead(r *ResultsResponse) {
	o.b = append(o.b, '{')
	o.str("campaign", r.Campaign)
	o.int("participants", r.Participants)
	o.int("kept", r.Kept)
	o.int("engagement_dropped", r.Engagement)
	o.int("soft_dropped", r.Soft)
	o.int("control_dropped", r.Control)
	o.key("per_video")
	o.b = append(o.b, '{')
}

// videoAg appends one per_video entry of /results.
func (o *jsonOut) videoAg(id string, v *VideoAg) {
	o.key(id)
	o.b = append(o.b, '{')
	o.int("responses", v.Responses)
	o.floatOmit("mean_uplt_s", v.MeanUPLT)
	o.floatOmit("agreement", v.Agreement)
	o.boolOmit("banned", v.Banned)
	o.b = append(o.b, '}')
}

// analyticsHead appends r's fields up to the opening of its
// participants list; after the rows, the caller closes the list and
// appends per_video (videoAnalytics) and, when set, stopping.
func (o *jsonOut) analyticsHead(r *AnalyticsResponse) {
	o.b = append(o.b, '{')
	o.str("campaign", r.Campaign)
	o.str("kind", r.Kind)
	o.int("sessions", r.Sessions)
	o.int("completed", r.Completed)
	o.key("summary")
	o.b = append(o.b, '{')
	o.int("total", r.Summary.Total)
	o.int("kept", r.Summary.Kept)
	o.int("engagement_seeks", r.Summary.EngagementSeeks)
	o.int("engagement_focus", r.Summary.EngagementFocus)
	o.int("soft", r.Summary.Soft)
	o.int("control", r.Summary.Control)
	o.b = append(o.b, '}')
	o.key("participants")
	o.b = append(o.b, '[')
}

// videoAnalytics appends one per_video entry of /analytics.
func (o *jsonOut) videoAnalytics(id string, v *VideoAnalytics) {
	o.key(id)
	o.b = append(o.b, '{')
	o.int("responses", v.Responses)
	o.intOmit("in_band", v.InBand)
	o.floatOmit("band_lo_s", v.BandLoS)
	o.floatOmit("band_hi_s", v.BandHiS)
	o.floatOmit("mean_uplt_s", v.MeanUPLTS)
	o.intOmit("votes_a", v.VotesA)
	o.intOmit("votes_b", v.VotesB)
	o.intOmit("no_difference", v.NoDiff)
	o.floatOmit("agreement", v.Agreement)
	o.boolOmit("banned", v.Banned)
	o.b = append(o.b, '}')
}

// stoppingHead appends s's fields up to the opening of its per_video
// object, whose entries videoStopping appends.
func (o *jsonOut) stoppingHead(s *StoppingAnalytics) {
	o.b = append(o.b, '{')
	o.floatOmit("target_half_width", s.TargetHalfWidth)
	o.bool("closed", s.Closed)
	o.int("resolved", s.Resolved)
	o.int("total", s.Total)
	o.key("per_video")
	o.b = append(o.b, '{')
}

// videoStopping appends one per_video entry of the stopping block.
func (o *jsonOut) videoStopping(id string, v *VideoStopping) {
	o.key(id)
	o.b = append(o.b, '{')
	o.str("state", v.State)
	o.int("kept", v.Kept)
	o.intOmit("pending", v.Pending)
	if v.Lo != nil {
		o.float("lo", *v.Lo)
	}
	if v.Hi != nil {
		o.float("hi", *v.Hi)
	}
	o.strOmit("verdict", v.Verdict)
	o.b = append(o.b, '}')
}

// appendRow appends v's /analytics row to dst: once for a completed
// session, per poll for one in flight, and once more for each spilled
// one when Recover checks the rows file.
func (v *ParticipantVerdict) appendRow(dst []byte) []byte {
	o := jsonOut{b: append(dst, '{')}
	o.str("session", v.Session)
	o.str("worker", v.Worker)
	o.bool("completed", v.Completed)
	o.str("verdict", v.Verdict)
	o.boolOmit("provisional", v.Provisional)
	o.int("answered", v.Answered)
	o.int("actions", v.Actions)
	o.intOmit("controls_failed", v.ControlsFailed)
	return append(o.b, '}') // strings, ints, bools: o.err stays nil
}

// renderScratch is the memory a render works in, recycled through
// scratchPool: the document it appends and, for /analytics, the sessions
// in flight it lists, their rows back to back (row i is
// live[spans[i].from:spans[i].to], empty when it is not listed) and the
// stopper's status.
type renderScratch struct {
	doc    []byte
	ids    []string
	live   []byte
	spans  []span
	status []adaptive.VideoStatus
}

type span struct{ from, to int }

var scratchPool = sync.Pool{New: func() any { return new(renderScratch) }}

func getScratch() *renderScratch { return scratchPool.Get().(*renderScratch) }

// put hands sc back to scratchPool, pinning no session's or video's ID.
func (sc *renderScratch) put() {
	clear(sc.ids)
	clear(sc.status)
	scratchPool.Put(sc)
}

// A strong ETag is a digest of the response, built from CRC-64 checksums
// over etagTable, and its length.
var etagTable = crc64.MakeTable(crc64.ECMA)

// An ETag is a rendered tag, quoted: the checksum as 16 hex digits, a
// dash and the length in hex. It is a value, so a request that renders
// one allocates nothing until it sends it.
type ETag struct {
	b [64]byte
	n uint8
}

// etagOf renders the tag of the n-byte body whose checksum is sum.
func etagOf(sum uint64, n int) ETag {
	var t ETag
	b := append(t.b[:0], '"')
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[sum>>shift&0xf])
	}
	b = strconv.AppendInt(append(b, '-'), int64(n), 16)
	t.n = uint8(len(append(b, '"')))
	return t
}

// Bytes returns the tag, quotes included, in t's own storage.
func (t *ETag) Bytes() []byte { return t.b[:t.n] }

// String returns the tag as a new string.
func (t *ETag) String() string { return string(t.Bytes()) }

// Results returns campaign id's /results body and its ETag, as the
// header value a reply assigns. The body is rendered once per change:
// every op that changes what it would say drops it (invalidate), the tag
// with it, so a match certifies the client's copy is the current render.
func (st *State) Results(id string) ([]byte, []string, error) {
	csh := st.campaigns.Shard(id)
	csh.Lock()
	defer csh.Unlock()
	c, ok := csh.Get(id)
	if !ok {
		return nil, nil, ErrNoCampaign
	}
	if c.cache == nil {
		rendered, err := st.RenderResults(c)
		if err != nil {
			return nil, nil, err
		}
		c.cache = rendered
		tag := etagOf(crc64.Checksum(rendered, etagTable), len(rendered))
		c.cacheTag = []string{tag.String()}
	}
	return c.cache, c.cacheTag, nil
}

// RenderResults renders the campaign's §4.3 aggregates as a new body of
// exactly its length, the bytes encoding/json's Encoder writes for its
// ResultsResponse. Caller holds the campaign's shard lock, which the
// video shards it reads follow in the lock order, or no op applies.
func (st *State) RenderResults(c *Campaign) ([]byte, error) {
	sc := getScratch()
	defer sc.put()
	sum := c.analytics.Summary()
	o := jsonOut{b: sc.doc[:0]}
	o.resultsHead(&ResultsResponse{
		Campaign:     c.ID,
		Participants: sum.Total,
		Kept:         sum.Kept,
		Engagement:   sum.Engagement(),
		Soft:         sum.Soft,
		Control:      sum.Control,
	})
	switch c.Kind {
	case "timeline":
		c.analytics.EachBand(filtering.WisdomLo, filtering.WisdomHi, func(id string, band quality.Band) {
			o.videoAg(id, &VideoAg{Responses: band.InBand, MeanUPLT: band.Mean, Banned: st.videoBanned(id)})
		})
	case "ab":
		c.analytics.EachVotes(func(id string, votes *filtering.ABVotes) {
			o.videoAg(id, &VideoAg{Responses: votes.Total(), Agreement: votes.Agreement(), Banned: st.videoBanned(id)})
		})
	}
	sc.doc = append(o.b, "}}\n"...)
	if o.err != nil {
		return nil, o.err
	}
	return bytes.Clone(sc.doc), nil
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
func (st *State) Analytics(dst []byte, id string, lo, hi float64, fresh func(tag ETag) bool) ([]byte, ETag, error) {
	csh := st.campaigns.Shard(id)
	csh.RLock()
	c, ok := csh.Get(id)
	if !ok {
		csh.RUnlock()
		return dst, ETag{}, ErrNoCampaign
	}
	sc := getScratch()
	defer sc.put()
	sc.ids = append(sc.ids[:0], c.inflight...)
	csh.RUnlock()
	slices.Sort(sc.ids)
	sc.live, sc.spans = sc.live[:0], sc.spans[:0]
	for _, sid := range sc.ids {
		from := len(sc.live)
		ssh := st.sessions.Shard(sid)
		ssh.RLock()
		if sess, ok := ssh.Get(sid); ok {
			v := sess.verdict()
			sc.live = v.appendRow(sc.live)
		}
		ssh.RUnlock()
		sc.spans = append(sc.spans, span{from, len(sc.live)})
	}
	// The rest is read under the campaign lock. A session that completed
	// since it was listed — before or after its row was rendered — is
	// listed from its frozen row; one that joined since, in the next poll.
	csh.RLock()
	defer csh.RUnlock()
	rows, size, sum := len(c.rowOrder), int(c.rows.size(uint32(len(c.rows.ends)))), uint64(0)
	for i, sid := range sc.ids {
		row := sc.live[sc.spans[i].from:sc.spans[i].to]
		if _, frozen := c.frozenAt(sid); frozen || len(row) == 0 {
			sc.spans[i].to = sc.spans[i].from
			continue
		}
		rows++
		size += len(row) + 1
		sum = crc64.Update(sum, etagTable, row)
	}
	cut, err := st.appendShell(sc, c, lo, hi, rows)
	if err != nil {
		return dst, ETag{}, err
	}
	shell := sc.doc
	// The validator needs no body: the frozen rows' digest, a hash of what
	// this request rendered, and the length (the last row has no comma).
	size += len(shell) - min(rows, 1)
	tag := etagOf(c.rowDigest+crc64.Update(sum, etagTable, shell), size)
	if fresh(tag) {
		return dst, tag, nil
	}
	spilled, err := c.rows.readSpilled(c.spilled)
	if err != nil {
		return dst, ETag{}, err
	}
	defer regionPool.Put(spilled)
	return c.appendAnalytics(slices.Grow(dst, size), *spilled, shell, cut, sc), tag, nil
}

// verdict returns the session's ParticipantVerdict, its /analytics row.
// Caller holds the session's shard lock.
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

// frozenID returns the ID of the completed session at position i of the
// frozen rows in payload order, which is ascending by ID.
func (c *Campaign) frozenID(i int) string { return c.completedID(c.rowOrder[i]) }

// frozenAt reports where session id sits, or would sit, among the frozen
// rows in payload order, and whether its row is there.
func (c *Campaign) frozenAt(id string) (int, bool) {
	at := sort.Search(len(c.rowOrder), func(i int) bool { return c.frozenID(i) >= id })
	return at, at < len(c.rowOrder) && c.frozenID(at) == id
}

// appendAnalytics appends the payload to b: shell, the document with an
// empty participants list whose inside is at cut, with the frozen rows —
// spilled holds the rows file's valid region — copied into that list,
// merged in ascending session order with sc's listed live rows. Caller
// holds the campaign's lock.
func (c *Campaign) appendAnalytics(b, spilled, shell []byte, cut int, sc *renderScratch) []byte {
	b = append(b, shell[:cut]...)
	next := 0 // frozen rows copied so far, in payload order
	for i := 0; i <= len(sc.ids); i++ {
		at := len(c.rowOrder)
		if i < len(sc.ids) {
			at, _ = c.frozenAt(sc.ids[i])
		}
		b = c.appendFrozenRows(b, spilled, next, at)
		next = at
		if i < len(sc.ids) && sc.spans[i].to > sc.spans[i].from {
			b = append(append(b, sc.live[sc.spans[i].from:sc.spans[i].to]...), ',')
		}
	}
	return append(bytes.TrimSuffix(b, []byte(",")), shell[cut:]...)
}

// appendFrozenRows appends the frozen rows at payload positions [from, to)
// to b, each run of consecutive row numbers on one side of the spill
// boundary in one copy.
func (c *Campaign) appendFrozenRows(b, spilled []byte, from, to int) []byte {
	for from < to {
		first := c.rowOrder[from]
		end := first + 1
		for from++; from < to && c.rowOrder[from] == end && (end < c.spilled) == (first < c.spilled); from++ {
			end++
		}
		b = append(b, c.rows.span(spilled, first, end, c.spilled)...)
	}
	return b
}

// appendShell renders into sc.doc the payload's campaign-level fields
// around an empty list of the sessions it counts, and returns where the
// list's inside is. Per-video sections come in ascending video-ID order,
// as encoding/json orders a map's keys. Caller holds the campaign's
// shard lock, which the video shards it reads follow in the lock order,
// and has validated the band.
func (st *State) appendShell(sc *renderScratch, c *Campaign, lo, hi float64, sessions int) (int, error) {
	o := jsonOut{b: sc.doc[:0]}
	o.analyticsHead(&AnalyticsResponse{
		Campaign:  c.ID,
		Kind:      c.Kind,
		Sessions:  sessions,
		Completed: len(c.ids.ends),
		Summary:   AnalyticsSummary(c.analytics.Summary()), // same fields, this type names them in JSON
	})
	cut := len(o.b)
	o.b = append(o.b, ']')
	o.key("per_video")
	o.b = append(o.b, '{')
	switch c.Kind {
	case "timeline":
		c.analytics.EachBand(lo, hi, func(id string, band quality.Band) {
			o.videoAnalytics(id, &VideoAnalytics{
				Responses: band.Total,
				InBand:    band.InBand,
				BandLoS:   band.Lo,
				BandHiS:   band.Hi,
				MeanUPLTS: band.Mean,
				Banned:    st.videoBanned(id),
			})
		})
	case "ab":
		c.analytics.EachVotes(func(id string, votes *filtering.ABVotes) {
			o.videoAnalytics(id, &VideoAnalytics{
				Responses: votes.Total(),
				VotesA:    votes.A,
				VotesB:    votes.B,
				NoDiff:    votes.NoDiff,
				Agreement: votes.Agreement(),
				Banned:    st.videoBanned(id),
			})
		})
	}
	o.b = append(o.b, '}')
	if a := c.adaptive; a != nil {
		resolved, total := a.Resolved()
		stopping := StoppingAnalytics{Closed: a.Closed(), Resolved: resolved, Total: total}
		if c.Kind == "timeline" {
			stopping.TargetHalfWidth = a.Config().HalfWidth
		}
		o.key("stopping")
		o.stoppingHead(&stopping)
		// A video is registered once (applyVideo refuses a held ID), so
		// sorting the status by video gives the map's key order.
		sc.status = a.Status(sc.status[:0])
		slices.SortFunc(sc.status, func(x, y adaptive.VideoStatus) int { return strings.Compare(x.Video, y.Video) })
		for i := range sc.status {
			vs := &sc.status[i]
			o.videoStopping(vs.Video, &VideoStopping{
				State:   string(vs.State),
				Kept:    vs.N,
				Pending: vs.Pending,
				Lo:      finite(vs.Lo),
				Hi:      finite(vs.Hi),
				Verdict: string(vs.Verdict),
			})
		}
		o.b = append(o.b, "}}"...)
	}
	sc.doc = append(o.b, "}\n"...)
	return cut, o.err
}

// finite points at x, or is nil for an unbounded side, which JSON
// cannot carry.
func finite(x float64) *float64 {
	if math.IsInf(x, 0) {
		return nil
	}
	return &x
}
