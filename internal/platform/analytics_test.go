// The incremental-equivalence property suite: the quality fold both
// /results and /analytics render from must equal filtering.Clean run
// offline over the same sessions, for any interleaving of events and
// responses, any worker count, and across a mid-campaign crash plus
// journal replay. This is the contract that makes serving verdicts from
// the fold alone safe.
package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"math/rand"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/stats"
	"github.com/eyeorg/eyeorg/internal/survey"
)

// sent is the oracle's input: what the test drivers sent and the server
// accepted, per session, recorded on the client side. The offline batch
// runs over records built from it, so the reference never reads the
// state whose fold it checks — only the campaign's completion order.
type sent struct {
	mu       sync.Mutex
	sessions map[string]*sentSession
}

type sentSession struct {
	worker  string
	tests   []AssignedTest
	batches map[string]EventBatch // latest accepted batch per video
	answers []ResponseBody        // accepted answers, in order
}

func newSent() *sent { return &sent{sessions: map[string]*sentSession{}} }

func (l *sent) join(jr JoinResponse, worker string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sessions[jr.Session] = &sentSession{worker: worker, tests: jr.Tests, batches: map[string]EventBatch{}}
}

func (l *sent) events(session string, b EventBatch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b.VideoID != "" {
		l.sessions[session].batches[b.VideoID] = b
	}
}

func (l *sent) response(session string, body ResponseBody) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ss := l.sessions[session]
	ss.answers = append(ss.answers, body)
}

func msToDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// record materializes one session the way the paper's offline pipeline
// sees it: one trace per assigned test in presentation order, and the
// answers with their control outcomes.
func (ss *sentSession) record() *filtering.SessionRecord {
	rec := &filtering.SessionRecord{
		Participant: &crowd.Participant{ID: ss.worker},
		Trace:       &survey.SessionTrace{},
	}
	byTest := map[string]AssignedTest{}
	for _, tt := range ss.tests {
		byTest[tt.TestID] = tt
		b := ss.batches[tt.VideoID]
		rec.Trace.Videos = append(rec.Trace.Videos, survey.VideoTrace{
			VideoID:         tt.VideoID,
			LoadTime:        msToDuration(b.LoadMs),
			TimeOnVideo:     msToDuration(b.TimeOnVideoMs),
			Plays:           b.Plays,
			Pauses:          b.Pauses,
			Seeks:           b.Seeks,
			WatchedFraction: b.WatchedFraction,
			OutOfFocus:      msToDuration(b.OutOfFocusMs),
		})
	}
	for _, body := range ss.answers {
		tt := byTest[body.TestID]
		if tt.Kind == "ab" {
			choice := map[string]survey.ABChoice{
				"left": survey.ChoiceLeft, "right": survey.ChoiceRight, "no difference": survey.ChoiceNoDifference,
			}[body.Choice]
			rec.AB = append(rec.AB, &survey.ABResponse{
				VideoID: tt.VideoID, Choice: choice, AOnLeft: true, Control: tt.Control,
				ControlPassed: !tt.Control || choice != survey.ChoiceRight,
			})
			continue
		}
		rec.Timeline = append(rec.Timeline, &survey.TimelineResponse{
			VideoID: tt.VideoID, Submitted: msToDuration(body.SubmittedMs), Control: tt.Control,
			ControlPassed: !tt.Control || body.KeptOriginal,
		})
	}
	return rec
}

// offline runs the batch §4.3 pipeline over the sent sessions, in the
// campaign's completion order.
func (l *sent) offline(t *testing.T, c *state.Campaign) *filtering.Outcome {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	records := make([]*filtering.SessionRecord, 0, len(c.Completed()))
	for _, sid := range c.Completed() {
		ss, ok := l.sessions[sid]
		if !ok {
			t.Fatalf("completed session %s was never driven by this test", sid)
		}
		if len(ss.answers) != len(ss.tests) {
			t.Fatalf("session %s completed with %d of %d answers accepted", sid, len(ss.answers), len(ss.tests))
		}
		records = append(records, ss.record())
	}
	return filtering.Clean(records, 0)
}

// offlineResults renders /results the way the batch pipeline defines
// it: Clean, then the wisdom-of-the-crowd band and its mean (timeline)
// or the vote tallies (A/B) over the kept records.
func offlineResults(s *Server, c *state.Campaign, offline *filtering.Outcome) []byte {
	res := ResultsResponse{
		Campaign:     c.ID,
		Participants: offline.Summary.Total,
		Kept:         offline.Summary.Kept,
		Engagement:   offline.Summary.Engagement(),
		Soft:         offline.Summary.Soft,
		Control:      offline.Summary.Control,
		PerVideo:     map[string]state.VideoAg{},
	}
	if c.Kind == "ab" {
		for id, votes := range filtering.ABByVideo(offline.Kept) {
			res.PerVideo[id] = state.VideoAg{Responses: votes.Total(), Agreement: votes.Agreement(), Banned: banned(s, id)}
		}
	} else {
		for id, vals := range filtering.WisdomOfCrowd(filtering.TimelineByVideo(offline.Kept)) {
			res.PerVideo[id] = state.VideoAg{Responses: len(vals), MeanUPLT: stats.Sample(vals).Mean(), Banned: banned(s, id)}
		}
	}
	buf, _ := json.Marshal(res)
	return append(buf, '\n')
}

// banned reports whether video id is banned.
func banned(s *Server, id string) bool {
	_, b, _ := s.state.Video(id)
	return b
}

// frozenVerdicts reads the campaign's completed /analytics rows, as s
// serves them, in completion order into worker -> verdict, a later
// session of the same worker replacing an earlier one as
// filtering.Clean's ReasonFor does.
func frozenVerdicts(t *testing.T, s *Server, c *state.Campaign) map[string]string {
	t.Helper()
	body, _, err := s.state.Analytics(nil, c.ID, filtering.WisdomLo, filtering.WisdomHi, func(state.ETag) bool { return false })
	var ar AnalyticsResponse
	if err == nil {
		err = json.Unmarshal(body, &ar)
	}
	if err != nil {
		t.Fatalf("analytics of %s: %v", c.ID, err)
	}
	rows := map[string]state.ParticipantVerdict{}
	for _, pv := range ar.Participants {
		rows[pv.Session] = pv
	}
	out := map[string]string{}
	for i, sid := range c.Completed() {
		pv, ok := rows[sid]
		if !ok || !pv.Completed || pv.Provisional {
			t.Fatalf("completed session %d's row is %+v (listed: %v), want completed session %s", i, pv, ok, sid)
		}
		out[pv.Worker] = pv.Verdict
	}
	return out
}

// assertLiveEqualsOffline compares a quiesced server's incremental
// analytics with the offline batch over the sessions the drivers sent:
// the summary histogram, the per-participant verdict map, and the
// per-video wisdom-of-the-crowd band (timeline) or vote tallies (A/B).
func assertLiveEqualsOffline(t *testing.T, s *Server, l *sent, campaignID string) {
	t.Helper()
	c, ok := s.state.Campaign(campaignID)
	if !ok {
		t.Fatalf("campaign %s missing", campaignID)
	}
	offline := l.offline(t, c)
	if got := c.Analytics().Summary(); got != offline.Summary {
		t.Fatalf("summary diverged:\nlive:    %+v\noffline: %+v", got, offline.Summary)
	}
	want := map[string]string{}
	for worker, reason := range offline.ReasonFor {
		want[worker] = reason.String()
	}
	if got := frozenVerdicts(t, s, c); !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts diverged:\nlive:    %v\noffline: %v", got, want)
	}
	switch c.Kind {
	case "timeline":
		want := filtering.WisdomOfCrowd(filtering.TimelineByVideo(offline.Kept))
		got := c.Analytics().TimelineFiltered(filtering.WisdomLo, filtering.WisdomHi)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("timeline bands diverged:\nlive:    %v\noffline: %v", got, want)
		}
	case "ab":
		want := filtering.ABByVideo(offline.Kept)
		if got := votesOf(c.Analytics()); !reflect.DeepEqual(got, want) {
			t.Fatalf("ab votes diverged:\nlive:    %v\noffline: %v", got, want)
		}
	}
}

// rawAnalytics fetches the exact /analytics body bytes.
func rawAnalytics(t *testing.T, c *client, campaign string) []byte {
	t.Helper()
	resp, err := http.Get(c.srv.URL + "/api/v1/campaigns/" + campaign + "/analytics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytics: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// oracleAnalytics renders /analytics from scratch on a quiesced server,
// the way the endpoint did before rows were frozen at completion: every
// session of the campaign, completed or in flight, is looked up in the
// session index — a completed one decoded from its frozen record —
// sorted by ID and encoded as one AnalyticsResponse. The served body, assembled from
// frozen rows, must equal it byte for byte.
func oracleAnalytics(t *testing.T, s *Server, campaignID string, lo, hi float64) []byte {
	t.Helper()
	c, ok := s.state.Campaign(campaignID)
	if !ok {
		t.Fatalf("campaign %s missing", campaignID)
	}
	ids := slices.Clone(c.Completed())
	s.state.Sessions(func(id string, sess *state.Session) bool {
		if sess.Campaign == c {
			ids = append(ids, id)
		}
		return true
	})
	resp := oracleShell(s, c, lo, hi, len(ids))
	sort.Strings(ids)
	for _, sid := range ids {
		sess, err := s.state.Session(sid)
		if err != nil {
			t.Fatalf("campaign %s lists session %s: %v", campaignID, sid, err)
		}
		snap := sess.Standing()
		resp.Participants = append(resp.Participants, state.ParticipantVerdict{
			Session:        sid,
			Worker:         sess.Worker.ID,
			Completed:      snap.Completed,
			Verdict:        snap.Current().String(),
			Provisional:    !snap.Completed,
			Answered:       snap.Answered,
			Actions:        snap.Actions,
			ControlsFailed: snap.ControlsFailed,
		})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// votesOf collects c's A/B tallies into a map of copies.
func votesOf(c *quality.Campaign) map[string]*filtering.ABVotes {
	out := map[string]*filtering.ABVotes{}
	c.EachVotes(func(id string, v *filtering.ABVotes) {
		cp := *v
		out[id] = &cp
	})
	return out
}

// oracleShell builds the /analytics payload's campaign-level fields
// around an empty list of the sessions it counts, as maps that
// encoding/json orders: the struct the served render appends by hand.
func oracleShell(s *Server, c *state.Campaign, lo, hi float64, sessions int) AnalyticsResponse {
	banned := func(id string) bool {
		_, banned, _ := s.state.Video(id)
		return banned
	}
	resp := AnalyticsResponse{
		Campaign:     c.ID,
		Kind:         c.Kind,
		Sessions:     sessions,
		Completed:    len(c.Completed()),
		Summary:      state.AnalyticsSummary(c.Analytics().Summary()),
		Participants: []state.ParticipantVerdict{},
		PerVideo:     map[string]state.VideoAnalytics{},
	}
	switch c.Kind {
	case "timeline":
		for id, band := range c.Analytics().TimelineBands(lo, hi) {
			resp.PerVideo[id] = state.VideoAnalytics{Responses: band.Total, InBand: band.InBand, BandLoS: band.Lo, BandHiS: band.Hi, MeanUPLTS: band.Mean, Banned: banned(id)}
		}
	case "ab":
		for id, votes := range votesOf(c.Analytics()) {
			resp.PerVideo[id] = state.VideoAnalytics{Responses: votes.Total(), VotesA: votes.A, VotesB: votes.B, NoDiff: votes.NoDiff, Agreement: votes.Agreement(), Banned: banned(id)}
		}
	}
	if a := c.Adaptive(); a != nil {
		resolved, total := a.Resolved()
		stopping := state.StoppingAnalytics{Closed: a.Closed(), Resolved: resolved, Total: total, PerVideo: map[string]state.VideoStopping{}}
		if c.Kind == "timeline" {
			stopping.TargetHalfWidth = a.Config().HalfWidth
		}
		bound := func(x float64) *float64 {
			if math.IsInf(x, 0) {
				return nil
			}
			return &x
		}
		for _, vs := range a.Status(nil) {
			stopping.PerVideo[vs.Video] = state.VideoStopping{State: string(vs.State), Kept: vs.N, Pending: vs.Pending, Lo: bound(vs.Lo), Hi: bound(vs.Hi), Verdict: string(vs.Verdict)}
		}
		resp.Stopping = &stopping
	}
	return resp
}

// assertAnalyticsEqualsOracle compares the served /analytics body with
// the from-scratch render, at the default band and at a wider one.
func assertAnalyticsEqualsOracle(t *testing.T, s *Server, c *client, campaignID string) {
	t.Helper()
	if got, want := rawAnalytics(t, c, campaignID), oracleAnalytics(t, s, campaignID, filtering.WisdomLo, filtering.WisdomHi); !bytes.Equal(got, want) {
		t.Fatalf("served /analytics diverged from the from-scratch render:\nserved: %s\noracle: %s", got, want)
	}
	status, got := rawDo(t, c, "GET", "/api/v1/campaigns/"+campaignID+"/analytics?lo=10&hi=90", nil)
	if want := oracleAnalytics(t, s, campaignID, 10, 90); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("served /analytics?lo=10&hi=90 (%d) diverged from the from-scratch render:\nserved: %s\noracle: %s", status, got, want)
	}
}

// chaos drives randomized participant sessions against a server from
// plain goroutine-safe HTTP plumbing (the test client's helpers call
// t.Fatal, which is illegal off the test goroutine).
type chaos struct {
	base   string
	client *http.Client
	sent   *sent
}

func (d *chaos) do(method, path string, body, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, d.base+path, &buf)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// postEvents and postResponse send one request that must be accepted,
// and record it as sent.
func (d *chaos) postEvents(session string, b EventBatch) error {
	if err := d.expect(http.StatusAccepted, "POST", "/api/v1/sessions/"+session+"/events", b, nil); err != nil {
		return err
	}
	d.sent.events(session, b)
	return nil
}

func (d *chaos) postResponse(session string, body ResponseBody) error {
	if err := d.expect(http.StatusAccepted, "POST", "/api/v1/sessions/"+session+"/responses", body, nil); err != nil {
		return err
	}
	d.sent.response(session, body)
	return nil
}

func (d *chaos) expect(want int, method, path string, body, out any) error {
	code, err := d.do(method, path, body, out)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d", method, path, code, want)
	}
	return nil
}

// driveSession runs one randomized participant through the lifecycle.
// Profiles are biased so every §4.3 rule fires across a run: diligent
// keepers, seek storms, long absences (excused and not), skipped videos,
// failed controls, abandoned sessions — plus invalid requests whose
// rejection statuses double as error-path coverage.
func (d *chaos) driveSession(r *rand.Rand, campaign, kind, worker string) error {
	var jr JoinResponse
	err := d.expect(http.StatusCreated, "POST", "/api/v1/sessions", JoinRequest{
		Campaign: campaign,
		Worker:   Worker{ID: worker, Gender: "f", Country: "IT", Source: "chaos"},
		Captcha:  "tok",
	}, &jr)
	if err != nil {
		return err
	}
	d.sent.join(jr, worker)
	profile := r.Intn(8)
	answerUpTo := len(jr.Tests)
	if profile == 7 { // abandoned mid-session
		answerUpTo = r.Intn(len(jr.Tests))
	}
	skipIdx := -1
	if profile == 4 { // soft rule: one video never inspected
		skipIdx = r.Intn(len(jr.Tests))
	}
	events := "/api/v1/sessions/" + jr.Session + "/events"
	responses := "/api/v1/sessions/" + jr.Session + "/responses"
	if err := d.postEvents(jr.Session, EventBatch{InstructionMs: 10_000 + r.Float64()*30_000}); err != nil {
		return err
	}
	for i, tt := range jr.Tests {
		if i != skipIdx {
			for n := 1 + r.Intn(2); n > 0; n-- { // replacement batches included
				if err := d.postEvents(jr.Session, d.batch(r, profile, tt.VideoID)); err != nil {
					return err
				}
			}
		}
		if r.Intn(16) == 0 { // instrumentation for a video never assigned
			if err := d.postEvents(jr.Session, d.batch(r, 0, "ghost-video")); err != nil {
				return err
			}
		}
		if i >= answerUpTo {
			continue
		}
		if err := d.postResponse(jr.Session, d.response(r, kind, profile, tt)); err != nil {
			return err
		}
		if r.Intn(8) == 0 { // duplicate answer must 409
			if err := d.expect(http.StatusConflict, "POST", responses, d.response(r, kind, profile, tt), nil); err != nil {
				return err
			}
		}
	}
	if answerUpTo == len(jr.Tests) && r.Intn(4) == 0 {
		// The session is complete: late instrumentation must 409 and the
		// folded verdict must not change.
		if err := d.expect(http.StatusConflict, "POST", events, d.batch(r, 1, jr.Tests[0].VideoID), nil); err != nil {
			return err
		}
	}
	if r.Intn(8) == 0 { // unknown test must 400
		if err := d.expect(http.StatusBadRequest, "POST", responses, ResponseBody{TestID: "nope", SubmittedMs: 1, Choice: "left"}, nil); err != nil {
			return err
		}
	}
	return nil
}

func (d *chaos) batch(r *rand.Rand, profile int, videoID string) EventBatch {
	b := EventBatch{
		VideoID:         videoID,
		LoadMs:          500 + r.Float64()*1500,
		TimeOnVideoMs:   5_000 + r.Float64()*20_000,
		Plays:           1,
		Seeks:           r.Intn(15),
		Pauses:          r.Intn(3),
		WatchedFraction: 0.5 + r.Float64()*0.5,
	}
	switch profile {
	case 1: // seek storm: > SeekFactor*TrustedMaxSeeks across the session
		b.Seeks = 100 + r.Intn(300)
	case 2: // long unexcused absence
		b.OutOfFocusMs = 12_000 + r.Float64()*30_000
	case 3: // long absence excused by a slower delivery
		b.OutOfFocusMs = 12_000 + r.Float64()*10_000
		b.LoadMs = b.OutOfFocusMs + 1_000 + r.Float64()*5_000
	}
	return b
}

func (d *chaos) response(r *rand.Rand, kind string, profile int, tt AssignedTest) ResponseBody {
	if kind == "ab" {
		choice := []string{"left", "right", "no difference"}[r.Intn(3)]
		if tt.Control {
			choice = "no difference"
			if profile == 5 { // failed control: picked the delayed side
				choice = "right"
			}
		}
		return ResponseBody{TestID: tt.TestID, Choice: choice}
	}
	sub := 800 + r.Float64()*4_000
	return ResponseBody{
		TestID:       tt.TestID,
		SliderMs:     sub + 200,
		HelperMs:     sub - 100,
		SubmittedMs:  sub,
		KeptOriginal: !(tt.Control && profile == 5), // 5 = blind accepter
	}
}

// runChaos fans sessions out over workers goroutines, each with its own
// deterministic RNG, records everything accepted into l, and fails the
// test on any unexpected status.
func runChaos(t *testing.T, l *sent, base, campaign, kind string, seed int64, workers, sessionsPerWorker int) {
	t.Helper()
	d := &chaos{base: base, client: &http.Client{}, sent: l}
	errs := make(chan error, workers*sessionsPerWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed*1000 + int64(w)))
			for i := 0; i < sessionsPerWorker; i++ {
				worker := fmt.Sprintf("%s-seed%d-w%d-s%d", kind, seed, w, i)
				if err := d.driveSession(r, campaign, kind, worker); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// crossCheckHTTP verifies both rendered payloads against the offline
// batch: /results byte for byte, and /analytics' summary, per-session
// verdict strings and band counts — and /analytics byte for byte
// against the from-scratch render.
func crossCheckHTTP(t *testing.T, s *Server, l *sent, c *client, campaignID string) {
	t.Helper()
	assertAnalyticsEqualsOracle(t, s, c, campaignID)
	var ar AnalyticsResponse
	if err := json.Unmarshal(rawAnalytics(t, c, campaignID), &ar); err != nil {
		t.Fatal(err)
	}
	cs, _ := s.state.Campaign(campaignID)
	offline := l.offline(t, cs)
	if got, want := rawResults(t, c, campaignID), offlineResults(s, cs, offline); !bytes.Equal(got, want) {
		t.Fatalf("rendered /results diverged from the offline batch:\nlive:    %s\noffline: %s", got, want)
	}
	want := state.AnalyticsSummary{
		Total:           offline.Summary.Total,
		Kept:            offline.Summary.Kept,
		EngagementSeeks: offline.Summary.EngagementSeeks,
		EngagementFocus: offline.Summary.EngagementFocus,
		Soft:            offline.Summary.Soft,
		Control:         offline.Summary.Control,
	}
	if ar.Summary != want {
		t.Fatalf("rendered summary %+v, want %+v", ar.Summary, want)
	}
	if ar.Completed != offline.Summary.Total {
		t.Fatalf("completed = %d, want %d", ar.Completed, offline.Summary.Total)
	}
	if ar.Sessions < ar.Completed || len(ar.Participants) != ar.Sessions {
		t.Fatalf("session counts inconsistent: sessions=%d completed=%d participants=%d",
			ar.Sessions, ar.Completed, len(ar.Participants))
	}
	completed := 0
	for _, pv := range ar.Participants {
		if !pv.Completed {
			if !pv.Provisional {
				t.Fatalf("in-flight session %s not marked provisional", pv.Session)
			}
			continue
		}
		completed++
		// Workers are unique per session in these runs, so the offline
		// reason map is directly addressable.
		wantReason, ok := offline.ReasonFor[pv.Worker]
		if !ok {
			t.Fatalf("completed session %s (worker %s) missing from offline reasons", pv.Session, pv.Worker)
		}
		if pv.Verdict != wantReason.String() {
			t.Fatalf("session %s verdict %q, offline %q", pv.Session, pv.Verdict, wantReason)
		}
	}
	if completed != ar.Completed {
		t.Fatalf("participants list has %d completed, header says %d", completed, ar.Completed)
	}
	if cs.Kind == "timeline" {
		bands := filtering.WisdomOfCrowd(filtering.TimelineByVideo(offline.Kept))
		if len(ar.PerVideo) != len(bands) {
			t.Fatalf("per_video has %d entries, offline %d", len(ar.PerVideo), len(bands))
		}
		for id, vals := range bands {
			va, ok := ar.PerVideo[id]
			if !ok {
				t.Fatalf("video %s missing from analytics", id)
			}
			if va.InBand != len(vals) {
				t.Fatalf("video %s in_band = %d, offline %d", id, va.InBand, len(vals))
			}
		}
	}
}

// TestPropertyAnalyticsEquivalence is the acceptance property: across
// randomized schedules, seeds and worker counts, live verdicts equal the
// offline batch. Run with -race in CI.
func TestPropertyAnalyticsEquivalence(t *testing.T) {
	for _, kind := range []string{"timeline", "ab"} {
		for _, workers := range []int{1, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/workers=%d/seed=%d", kind, workers, seed), func(t *testing.T) {
					srv := NewServer()
					c := newClientFor(t, srv)
					campaign, _ := setupCampaign(c, kind, 3)
					l := newSent()
					runChaos(t, l, c.srv.URL, campaign, kind, seed, workers, 6)
					assertLiveEqualsOffline(t, srv, l, campaign)
					crossCheckHTTP(t, srv, l, c, campaign)
				})
			}
		}
	}
}

// TestAnalyticsCrashReplayEquivalence crashes a persisted server mid-
// campaign — completed sessions, in-flight sessions, everything — and
// requires the replayed analytics to be byte-identical, the equivalence
// to hold, and a pre-crash in-flight session to complete correctly
// afterwards.
func TestAnalyticsCrashReplayEquivalence(t *testing.T) {
	for _, opts := range []Options{
		{}, // pure journal replay
		{SnapshotEvery: 8, SegmentBytes: 4 << 10}, // snapshot + tail
	} {
		t.Run(fmt.Sprintf("snapshotEvery=%d", opts.SnapshotEvery), func(t *testing.T) {
			dir := t.TempDir()
			srv, c := openPersisted(t, dir, opts)
			campaign, _ := setupCampaign(c, "timeline", 3)
			l := newSent()
			runChaos(t, l, c.srv.URL, campaign, "timeline", 42, 4, 4)
			// One known in-flight session to resume after the crash.
			half := join(c, campaign, "crash-survivor")
			l.join(half, "crash-survivor")
			answer := func(c *client, tt AssignedTest) {
				batch := EventBatch{VideoID: tt.VideoID, LoadMs: 800, TimeOnVideoMs: 9_000, Plays: 1, Seeks: 4, WatchedFraction: 0.8}
				body := ResponseBody{TestID: tt.TestID, SliderMs: 1_500, SubmittedMs: 1_400, KeptOriginal: true}
				if code := c.do("POST", "/api/v1/sessions/"+half.Session+"/events", batch, nil); code != http.StatusAccepted {
					t.Fatalf("survivor events: %d", code)
				}
				if code := c.do("POST", "/api/v1/sessions/"+half.Session+"/responses", body, nil); code != http.StatusAccepted {
					t.Fatalf("survivor response: %d", code)
				}
				l.events(half.Session, batch)
				l.response(half.Session, body)
			}
			c.do("POST", "/api/v1/sessions/"+half.Session+"/events", EventBatch{InstructionMs: 20_000}, nil)
			for _, tt := range half.Tests[:3] {
				answer(c, tt)
			}
			assertLiveEqualsOffline(t, srv, l, campaign)
			before := rawAnalytics(t, c, campaign)
			// Crash: abandon the server without Close. Every journal
			// append was flushed, so recovery sees the full history.
			c.srv.Close()
			abandon(srv)

			srv2, c2 := openPersisted(t, dir, opts)
			defer srv2.Close()
			after := rawAnalytics(t, c2, campaign)
			if !bytes.Equal(before, after) {
				t.Fatalf("analytics diverged after replay:\n before: %s\n after:  %s", before, after)
			}
			assertLiveEqualsOffline(t, srv2, l, campaign)

			// The pre-crash in-flight session completes post-replay and
			// lands in the analytics like any other.
			for _, tt := range half.Tests[3:] {
				answer(c2, tt)
			}
			runChaos(t, l, c2.srv.URL, campaign, "timeline", 43, 4, 2)
			assertLiveEqualsOffline(t, srv2, l, campaign)
			crossCheckHTTP(t, srv2, l, c2, campaign)
			cs, _ := srv2.state.Campaign(campaign)
			if v := frozenVerdicts(t, srv2, cs)["crash-survivor"]; v != filtering.Kept.String() {
				t.Fatalf("crash-survivor verdict = %q, want kept", v)
			}
		})
	}
}

// TestAnalyticsScriptedVerdicts pins the endpoint's semantics with one
// participant per rule plus an in-flight provisional session.
func TestAnalyticsScriptedVerdicts(t *testing.T) {
	c := newClient(t)
	campaign, _ := setupCampaign(c, "timeline", 2)
	profiles := []struct {
		worker  string
		seeks   int
		focusMs float64
		kept    bool // keptOriginal on the control
		verdict string
	}{
		{"p-kept", 10, 0, true, "kept"},
		{"p-seeks", 100, 0, true, "engagement-seeks"},
		{"p-focus", 10, 45_000, true, "engagement-focus"},
		{"p-control", 10, 0, false, "control"},
	}
	for _, p := range profiles {
		jr := join(c, campaign, p.worker)
		completeSession(c, jr, 1_500, p.kept, p.seeks, p.focusMs)
	}
	inflight := join(c, campaign, "p-inflight")
	c.do("POST", "/api/v1/sessions/"+inflight.Session+"/events", EventBatch{InstructionMs: 9_000}, nil)

	var ar AnalyticsResponse
	if code := c.do("GET", "/api/v1/campaigns/"+campaign+"/analytics", nil, &ar); code != http.StatusOK {
		t.Fatalf("analytics: %d", code)
	}
	if ar.Sessions != 5 || ar.Completed != 4 {
		t.Fatalf("sessions=%d completed=%d, want 5/4", ar.Sessions, ar.Completed)
	}
	want := state.AnalyticsSummary{Total: 4, Kept: 1, EngagementSeeks: 1, EngagementFocus: 1, Control: 1}
	if ar.Summary != want {
		t.Fatalf("summary %+v, want %+v", ar.Summary, want)
	}
	byWorker := map[string]state.ParticipantVerdict{}
	for _, pv := range ar.Participants {
		byWorker[pv.Worker] = pv
	}
	for _, p := range profiles {
		pv := byWorker[p.worker]
		if pv.Verdict != p.verdict || !pv.Completed || pv.Provisional {
			t.Fatalf("%s: got %+v, want verdict %q", p.worker, pv, p.verdict)
		}
	}
	if pv := byWorker["p-inflight"]; pv.Completed || !pv.Provisional || pv.Verdict != "soft" {
		t.Fatalf("in-flight session: %+v, want provisional soft", pv)
	}
	for id, va := range ar.PerVideo {
		if va.Responses == 0 || va.InBand == 0 || va.BandHiS < va.BandLoS || va.MeanUPLTS <= 0 {
			t.Fatalf("video %s band malformed: %+v", id, va)
		}
	}
	if code := c.do("GET", "/api/v1/campaigns/ghost/analytics", nil, nil); code != http.StatusNotFound {
		t.Fatalf("ghost campaign analytics: %d", code)
	}
}

// TestAnalyticsAfterSnapshotLoad: the frozen rows are never serialized;
// a server that loads a snapshot gets them from fileCompleted, so it
// serves the bytes it served before under the same validator, equal to
// the from-scratch render, and keeps folding.
func TestAnalyticsAfterSnapshotLoad(t *testing.T) {
	for _, kind := range []string{"timeline", "ab"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			src, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
			campaign, _ := setupCampaign(c, kind, 3)
			l := newSent()
			runChaos(t, l, c.srv.URL, campaign, kind, 5, 4, 5)
			path := "/api/v1/campaigns/" + campaign + "/analytics"
			_, tag, body := getConditional(c, path, "")
			if err := src.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := src.Close(); err != nil {
				t.Fatal(err)
			}

			dst, c2 := openPersisted(t, dir, Options{SnapshotEvery: -1})
			defer dst.Close()
			status, tag2, body2 := getConditional(c2, path, "")
			if status != http.StatusOK || !bytes.Equal(body2, body) || tag2 != tag {
				t.Fatalf("loaded campaign serves %d tag %s, before the snapshot tag %s\nloaded: %s\nbefore: %s", status, tag2, tag, body2, body)
			}
			if status, _, got := getConditional(c2, path, tag); status != http.StatusNotModified || len(got) != 0 {
				t.Fatalf("the validator from before the snapshot: %d with %d body bytes, want 304 and none", status, len(got))
			}
			assertAnalyticsEqualsOracle(t, dst, c2, campaign)
			runChaos(t, l, c2.srv.URL, campaign, kind, 6, 4, 2)
			assertLiveEqualsOffline(t, dst, l, campaign)
			crossCheckHTTP(t, dst, l, c2, campaign)
		})
	}
}
