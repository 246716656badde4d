package state

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/survey"
)

// docGen builds documents from a fuzzer's bytes: each pick reads one
// byte, and a value is drawn from pools that hold the fuzzer's own
// strings and numbers beside the cases JSON renders specially.
type docGen struct {
	data []byte
	strs []string
	nums []float64
	ints []int
}

func (g *docGen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *docGen) str() string  { return g.strs[g.pick(len(g.strs))] }
func (g *docGen) num() float64 { return g.nums[g.pick(len(g.nums))] }
func (g *docGen) int() int     { return g.ints[g.pick(len(g.ints))] }
func (g *docGen) flag() bool   { return g.pick(2) == 1 }
func (g *docGen) count() int   { return g.pick(5) }
func (g *docGen) numPtr() *float64 {
	if g.flag() {
		return nil
	}
	x := g.num()
	return &x
}

func (g *docGen) row() ParticipantVerdict {
	return ParticipantVerdict{
		Session: g.str(), Worker: g.str(), Completed: g.flag(), Verdict: g.str(), Provisional: g.flag(),
		Answered: g.int(), Actions: g.int(), ControlsFailed: g.int(),
	}
}

// jsonKeys returns m's keys in the order encoding/json renders them.
func jsonKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// oracle is encoding/json's rendering of v, as an Encoder writes it.
func oracle(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// handResults appends r as RenderResults does.
func handResults(r *ResultsResponse) ([]byte, error) {
	o := jsonOut{b: []byte{}}
	o.resultsHead(r)
	for _, id := range jsonKeys(r.PerVideo) {
		v := r.PerVideo[id]
		o.videoAg(id, &v)
	}
	return append(o.b, "}}\n"...), o.err
}

// handAnalytics appends r as Analytics does: the shell around the rows
// appendRow renders, comma-separated.
func handAnalytics(r *AnalyticsResponse) ([]byte, error) {
	o := jsonOut{b: []byte{}}
	o.analyticsHead(r)
	for i := range r.Participants {
		if i > 0 {
			o.b = append(o.b, ',')
		}
		o.b = r.Participants[i].appendRow(o.b)
	}
	o.b = append(o.b, ']')
	o.key("per_video")
	o.b = append(o.b, '{')
	for _, id := range jsonKeys(r.PerVideo) {
		v := r.PerVideo[id]
		o.videoAnalytics(id, &v)
	}
	o.b = append(o.b, '}')
	if s := r.Stopping; s != nil {
		o.key("stopping")
		o.stoppingHead(s)
		for _, id := range jsonKeys(s.PerVideo) {
			v := s.PerVideo[id]
			o.videoStopping(id, &v)
		}
		o.b = append(o.b, "}}"...)
	}
	return append(o.b, "}\n"...), o.err
}

// campaign builds a campaign of either kind, adaptive or not, whose
// kept sessions answer videos named in the generator's order, so they
// are folded, and registered with the stopper, out of key order.
func (g *docGen) campaign() *Campaign {
	kind := [2]string{"timeline", "ab"}[g.pick(2)]
	c := &Campaign{ID: g.str(), Kind: kind, analytics: quality.NewCampaign(kind)}
	if g.flag() {
		c.adaptive = adaptive.New(kind, adaptive.Config{})
	}
	registered := map[string]bool{}
	for i := g.count(); i > 0; i-- {
		rec := &filtering.SessionRecord{}
		var videos []string
		for j := g.count(); j > 0; j-- {
			video := g.str()
			videos = append(videos, video)
			if kind == "timeline" {
				rec.Timeline = append(rec.Timeline, &survey.TimelineResponse{VideoID: video, Submitted: time.Duration(g.pick(256)) * 37 * time.Millisecond})
			} else {
				rec.AB = append(rec.AB, &survey.ABResponse{VideoID: video, Choice: survey.ABChoice(g.pick(3)), AOnLeft: true, ControlPassed: true})
			}
			if c.adaptive != nil && !registered[video] {
				registered[video] = true
				c.adaptive.AddVideo(video)
			}
		}
		c.analytics.Complete(rec, filtering.Kept)
		if c.adaptive != nil {
			c.adaptive.NoteJoin(videos)
			c.adaptive.Complete(rec, filtering.Kept)
		}
	}
	return c
}

// oracleViews builds c's /results document and its /analytics document
// with no participants as structs, their per-video sections as maps
// that encoding/json orders.
func oracleViews(c *Campaign, lo, hi float64) (*ResultsResponse, *AnalyticsResponse) {
	sum := c.analytics.Summary()
	res := &ResultsResponse{Campaign: c.ID, Participants: sum.Total, Kept: sum.Kept, Engagement: sum.Engagement(), Soft: sum.Soft, Control: sum.Control, PerVideo: map[string]VideoAg{}}
	an := &AnalyticsResponse{Campaign: c.ID, Kind: c.Kind, Completed: len(c.ids.ends), Summary: AnalyticsSummary(sum), Participants: []ParticipantVerdict{}, PerVideo: map[string]VideoAnalytics{}}
	for id, b := range c.analytics.TimelineBands(filtering.WisdomLo, filtering.WisdomHi) {
		res.PerVideo[id] = VideoAg{Responses: b.InBand, MeanUPLT: b.Mean}
	}
	for id, b := range c.analytics.TimelineBands(lo, hi) {
		an.PerVideo[id] = VideoAnalytics{Responses: b.Total, InBand: b.InBand, BandLoS: b.Lo, BandHiS: b.Hi, MeanUPLTS: b.Mean}
	}
	c.analytics.EachVotes(func(id string, v *filtering.ABVotes) {
		res.PerVideo[id] = VideoAg{Responses: v.Total(), Agreement: v.Agreement()}
		an.PerVideo[id] = VideoAnalytics{Responses: v.Total(), VotesA: v.A, VotesB: v.B, NoDiff: v.NoDiff, Agreement: v.Agreement()}
	})
	if a := c.adaptive; a != nil {
		resolved, total := a.Resolved()
		s := &StoppingAnalytics{Closed: a.Closed(), Resolved: resolved, Total: total, PerVideo: map[string]VideoStopping{}}
		if c.Kind == "timeline" {
			s.TargetHalfWidth = a.Config().HalfWidth
		}
		for _, vs := range a.Status(nil) {
			s.PerVideo[vs.Video] = VideoStopping{State: string(vs.State), Kept: vs.N, Pending: vs.Pending, Lo: finite(vs.Lo), Hi: finite(vs.Hi), Verdict: string(vs.Verdict)}
		}
		an.Stopping = s
	}
	return res, an
}

// FuzzRenderDifferential holds the hand-appended documents to
// encoding/json: a /results document, an /analytics document (rows,
// per-video bands and votes, the stopping block) and a lone row, built
// from the fuzzer's bytes over strings that need escapes, NaN, ±Inf,
// -0, floats JSON writes in 'e' form, empty maps and absent bounds; and
// a campaign's own /results and /analytics shell, rendered by
// RenderResults and appendShell from its fold and stopper, whose videos
// arrived out of key order. Each must render to encoding/json's bytes,
// or both must fail.
func FuzzRenderDifferential(f *testing.F) {
	f.Add([]byte{}, "c1", "v1", 1.5, 1e-7, int64(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, "<a&b>", " \xff\"\\", -0.0, 1e21, int64(-1))
	f.Add(bytes.Repeat([]byte{0xff, 0x01, 0x80}, 40), "s\x00", "é", 123456.789, 5e-324, int64(1<<40))
	f.Add(bytes.Repeat([]byte{7, 3}, 60), "kept", "", math.Inf(1), math.NaN(), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, s1, s2 string, x, y float64, n int64) {
		g := &docGen{
			data: data,
			strs: []string{s1, s2, "", "v1", "v2", "kept", "<script>&amp;", "tab\there", "  ", "\xff\xfe", `quote"back\slash`, "\x7f"},
			nums: []float64{x, y, 0, math.Copysign(0, -1), 1, -2.5, 1e-7, 9.99e-7, 1e-6, 1e20, 1e21, -1e21, 123.456, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)},
			ints: []int{int(n), 0, 1, -1, 1 << 40, math.MinInt64},
		}
		check := func(what string, got []byte, gotErr error, v any) {
			t.Helper()
			want, wantErr := oracle(v)
			switch {
			case (gotErr != nil) != (wantErr != nil):
				t.Fatalf("%s: hand error %v, encoding/json error %v\nhand: %s\njson: %s", what, gotErr, wantErr, got, want)
			case wantErr == nil && !bytes.Equal(got, want):
				t.Fatalf("%s differs\nhand: %s\njson: %s", what, got, want)
			}
		}

		res := ResultsResponse{Campaign: g.str(), Participants: g.int(), Kept: g.int(), Engagement: g.int(), Soft: g.int(), Control: g.int(), PerVideo: map[string]VideoAg{}}
		for i := g.count(); i > 0; i-- {
			res.PerVideo[g.str()] = VideoAg{Responses: g.int(), MeanUPLT: g.num(), Agreement: g.num(), Banned: g.flag()}
		}
		got, err := handResults(&res)
		check("results", got, err, &res)

		an := AnalyticsResponse{
			Campaign: g.str(), Kind: g.str(), Sessions: g.int(), Completed: g.int(),
			Summary:      AnalyticsSummary{Total: g.int(), Kept: g.int(), EngagementSeeks: g.int(), EngagementFocus: g.int(), Soft: g.int(), Control: g.int()},
			Participants: []ParticipantVerdict{},
			PerVideo:     map[string]VideoAnalytics{},
		}
		for i := g.count(); i > 0; i-- {
			an.Participants = append(an.Participants, g.row())
		}
		for i := g.count(); i > 0; i-- {
			an.PerVideo[g.str()] = VideoAnalytics{
				Responses: g.int(), InBand: g.int(), BandLoS: g.num(), BandHiS: g.num(), MeanUPLTS: g.num(),
				VotesA: g.int(), VotesB: g.int(), NoDiff: g.int(), Agreement: g.num(), Banned: g.flag(),
			}
		}
		if g.flag() {
			s := &StoppingAnalytics{TargetHalfWidth: g.num(), Closed: g.flag(), Resolved: g.int(), Total: g.int(), PerVideo: map[string]VideoStopping{}}
			for i := g.count(); i > 0; i-- {
				s.PerVideo[g.str()] = VideoStopping{State: g.str(), Kept: g.int(), Pending: g.int(), Lo: g.numPtr(), Hi: g.numPtr(), Verdict: g.str()}
			}
			an.Stopping = s
		}
		got, err = handAnalytics(&an)
		check("analytics", got, err, &an)

		row := g.row()
		check("row", append(row.appendRow(nil), '\n'), nil, &row)

		c := g.campaign()
		band := [][2]float64{{filtering.WisdomLo, filtering.WisdomHi}, {0, 100}, {10, 90}}[g.pick(3)]
		wantRes, wantShell := oracleViews(c, band[0], band[1])
		st := New(nil, nil)
		got, err = st.RenderResults(c)
		check("campaign results", got, err, wantRes)
		sc := getScratch()
		defer sc.put()
		_, err = st.appendShell(sc, c, band[0], band[1], 0)
		check("campaign analytics", sc.doc, err, wantShell)
	})
}
