// What a completed session costs: retained heap per session, and
// /results and /analytics renders whose allocations do not scale with
// the number of sessions folded.
package platform

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/survey"
)

// dispatch runs one request straight through the handler (fuzzEnv.do,
// with JSON bodies encoded) and decodes a 2xx JSON reply into out.
func dispatch(tb testing.TB, h http.Handler, method, path string, body, out any) {
	tb.Helper()
	raw, ok := body.([]byte)
	if !ok && body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			tb.Fatal(err)
		}
	}
	rec := (&fuzzEnv{handler: h}).do(method, path, raw)
	if rec.Code >= 300 {
		tb.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.Bytes())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			tb.Fatal(err)
		}
	}
}

// seedDispatch creates a timeline campaign with n videos.
func seedDispatch(tb testing.TB, h http.Handler, n int) string {
	tb.Helper()
	var created CreateCampaignResponse
	dispatch(tb, h, "POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "retention", Kind: "timeline"}, &created)
	for i := 0; i < n; i++ {
		dispatch(tb, h, "POST", "/api/v1/campaigns/"+created.ID+"/videos", sampleVideoBytes(), nil)
	}
	return created.ID
}

// completeSessions drives n diligent participants, numbered from first,
// through join, one engagement batch and one answer per test.
func completeSessions(tb testing.TB, h http.Handler, campaign string, first, n int) {
	tb.Helper()
	for i := first; i < first+n; i++ {
		completeDispatched(tb, h, campaign, i, 1_000+float64(i%997))
	}
}

// completeDispatched drives participant i through join, one engagement
// batch and one answer of sub ms per test.
func completeDispatched(tb testing.TB, h http.Handler, campaign string, i int, sub float64) {
	tb.Helper()
	var jr JoinResponse
	dispatch(tb, h, "POST", "/api/v1/sessions", JoinRequest{
		Campaign: campaign,
		Worker:   Worker{ID: fmt.Sprintf("retained-%d", i), Gender: "f", Country: "ES", Source: "test"},
		Captcha:  "tok",
	}, &jr)
	base := "/api/v1/sessions/" + jr.Session
	for _, tt := range jr.Tests {
		dispatch(tb, h, "POST", base+"/events", EventBatch{
			VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 3 + i%5, WatchedFraction: 0.9,
		}, nil)
		dispatch(tb, h, "POST", base+"/responses", ResponseBody{
			TestID: tt.TestID, SliderMs: sub + 200, HelperMs: sub, SubmittedMs: sub, KeptOriginal: true,
		}, nil)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCompletedSessionRetainedHeap bounds what the server keeps per
// completed session on an in-memory server: its ID in the campaign's
// completion-order arena and its place in rowOrder, its frozen record
// (about 90 B) and its rendered /analytics row (about 100 B), each
// stored back to back, and its values in the campaign's sketches. This
// test measured 5,036 B/session while a session kept its record, tracker
// and traces, 1,221 once it kept only its folded form, 1,284 with the
// rendered row beside it, 562 once no sessionState outlived completion
// — which it also checks — 542 once the campaign kept no join-order list
// beside that one, 494 once the index key was no longer the completing
// request's line (TestCompletedSessionPinsNoRequestBytes), 428 once a
// sketch kept each answer as a 4-byte code over its distinct values in
// place of two float64 copies (TestSketchBytesPerSubmission in
// internal/quality), and 314 now that the sessions index holds no
// completed session and a frozen record stores none of the test IDs its
// join minted. A record framed with a length and a CRC32-C (about 7 B
// more) measured 314-316 B, as before; 273 B once the IDs were packed in
// one arena in place of a string each and a sketch's codes were one byte
// wide while a video has at most 256 distinct answers; the ceiling is
// that plus 10%.
func TestCompletedSessionRetainedHeap(t *testing.T) {
	const (
		sessions = 4000
		ceiling  = 300 // bytes per completed session
	)
	if raceEnabled {
		t.Skip("heap accounting is measured without the race detector")
	}
	srv := NewServer()
	h := srv.Handler()
	campaign := seedDispatch(t, h, 4)
	completeSessions(t, h, campaign, 0, 64) // warm pools, size the first map buckets
	before := liveHeap()
	completeSessions(t, h, campaign, 64, sessions)
	after := liveHeap()
	per := float64(after-before) / sessions
	t.Logf("retained heap: %.0f B per completed session", per)
	if per > ceiling {
		t.Fatalf("retained %.0f B per completed session, ceiling %d", per, ceiling)
	}
	var res ResultsResponse
	dispatch(t, h, "GET", "/api/v1/campaigns/"+campaign+"/results", nil, &res)
	if res.Participants != sessions+64 {
		t.Fatalf("participants = %d, want %d", res.Participants, sessions+64)
	}
	if inflight, completed := sessionCounts(t, srv, campaign); inflight != 0 || completed != sessions+64 {
		t.Fatalf("index holds %d sessions and the campaign files %d completed, want 0 and %d", inflight, completed, sessions+64)
	}
}

// TestSpilledSessionRetainedHeap bounds what a server with a data
// directory keeps per completed session once a snapshot has spilled its
// frozen record and /analytics row to the campaign's files: its ID in
// the completion-order arena, its place in rowOrder, the two offsets its
// entry and row end at, and its values in the campaign's sketches, each
// with the spare capacity of the slice it was appended to. This test
// measured 97 B/session when it was written, against the 314 an
// in-memory server keeps (TestCompletedSessionRetainedHeap). Framed
// records (one stream type) measured 96-98 B; the ID arena and one-byte
// sketch codes 56-57 B; the ceiling is that plus 10%.
func TestSpilledSessionRetainedHeap(t *testing.T) {
	const (
		sessions = 4000
		ceiling  = 63 // bytes per completed session
	)
	if raceEnabled {
		t.Skip("heap accounting is measured without the race detector")
	}
	srv, err := Open(Options{DataDir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	campaign := seedDispatch(t, h, 4)
	completeSessions(t, h, campaign, 0, 64) // warm pools, size the first map buckets
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	completeSessions(t, h, campaign, 64, sessions)
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	per := float64(after-before) / sessions
	t.Logf("retained heap: %.0f B per spilled completed session", per)
	if per > ceiling {
		t.Fatalf("retained %.0f B per spilled completed session, ceiling %d", per, ceiling)
	}
	if held := srv.state.Counts().CompletedBytes; held != 0 {
		t.Fatalf("the snapshot left %d bytes of completed sessions in the heap, want every one spilled", held)
	}
	var res ResultsResponse
	dispatch(t, h, "GET", "/api/v1/campaigns/"+campaign+"/results", nil, &res)
	if res.Participants != sessions+64 {
		t.Fatalf("participants = %d, want %d", res.Participants, sessions+64)
	}
}

// joinSessions drives n participants, numbered from first, through join
// and one engagement batch per assigned test, and answers nothing.
func joinSessions(tb testing.TB, h http.Handler, campaign string, first, n int) {
	tb.Helper()
	for i := first; i < first+n; i++ {
		var jr JoinResponse
		dispatch(tb, h, "POST", "/api/v1/sessions", JoinRequest{
			Campaign: campaign,
			Worker:   Worker{ID: fmt.Sprintf("walked-%d", i), Gender: "f", Country: "ES", Source: "test"},
			Captcha:  "tok",
		}, &jr)
		for _, tt := range jr.Tests {
			dispatch(tb, h, "POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{
				VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 3 + i%5, WatchedFraction: 0.9,
			}, nil)
		}
	}
}

// TestLiveSessionRetainedHeap bounds what the server keeps per session in
// flight on an in-memory server, the form a participant who walks away
// stays in: its index entry, its state (tracker and answer storage
// inline), its tracker's entry per distinct video with the latest trace,
// its assignment and test IDs, its worker's fields and its place in the
// campaign's in-flight list. Each session here joins a campaign of 8
// videos and sends a trace per assigned test. This test measured 2,203 B
// per session while the tracker kept two maps and the state its answers
// apart, 1,778 while an index slot held a 24-byte entry in place of the
// state's pointer, 1,746 now.
func TestLiveSessionRetainedHeap(t *testing.T) {
	const (
		sessions = 4000
		ceiling  = 1870 // bytes per session in flight
	)
	if raceEnabled {
		t.Skip("heap accounting is measured without the race detector")
	}
	srv := NewServer()
	h := srv.Handler()
	campaign := seedDispatch(t, h, 8)
	joinSessions(t, h, campaign, 0, 64) // warm pools, size the first map buckets
	before := liveHeap()
	joinSessions(t, h, campaign, 64, sessions)
	after := liveHeap()
	per := float64(after-before) / sessions
	t.Logf("retained heap: %.0f B per session in flight", per)
	if per > ceiling {
		t.Fatalf("retained %.0f B per session in flight, ceiling %d", per, ceiling)
	}
	if inflight, completed := sessionCounts(t, srv, campaign); inflight != sessions+64 || completed != 0 {
		t.Fatalf("index holds %d sessions and the campaign files %d completed, want %d and 0", inflight, completed, sessions+64)
	}
}

// TestCompletedSessionPinsNoRequestBytes: the campaign's ID arena is
// the only copy of a completed session's ID — the sessions index holds
// no entry for it, the campaign's completed IDs are views of its bytes,
// back to back in completion order, the same bytes at every call of
// Completed, and on the live path none of them is the string the join
// minted, let alone a substring of the request line that completed it.
// The session in flight is indexed under its own ID string. All of it
// holds on the live path, after a journal replay and after a snapshot
// load. On the live path the session in flight also points at its
// campaign, so it keeps none of the request's strings for it
// (FuzzStateVsModel in internal/platform/state holds every video and
// session in flight to that on every path).
func TestCompletedSessionPinsNoRequestBytes(t *testing.T) {
	var campaign string
	owned := func(how string, srv *Server, minted map[string]*byte) {
		t.Helper()
		if inflight, completed := sessionCounts(t, srv, campaign); inflight != 1 || completed != 6 {
			t.Fatalf("%s: index holds %d sessions and the campaign files %d completed, want 1 and 6", how, inflight, completed)
		}
		srv.state.Sessions(func(id string, sess *state.Session) bool {
			if unsafe.StringData(id) != unsafe.StringData(sess.ID) {
				t.Errorf("%s: session %s is indexed under a string of its own, not its ID", how, id)
			}
			return true
		})
		c, _ := srv.state.Campaign(campaign)
		ids, again := c.Completed(), c.Completed()
		for i, id := range ids {
			if p, ok := minted[id]; ok && p == unsafe.StringData(id) {
				t.Errorf("%s: the campaign keeps the ID string session %s's join minted", how, id)
			}
			if unsafe.StringData(id) != unsafe.StringData(again[i]) {
				t.Errorf("%s: the campaign lists session %s as a copy, not a view of its arena", how, id)
			}
			if i > 0 && unsafe.StringData(id) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(ids[i-1])), len(ids[i-1]))) {
				t.Errorf("%s: session %s's ID does not follow %s's in the campaign's arena", how, id, ids[i-1])
			}
		}
	}
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	campaign = seedDispatch(t, h, 2)
	minted := map[string]*byte{}
	var joined []JoinResponse
	for i := 0; i < 6; i++ {
		var jr JoinResponse
		dispatch(t, h, "POST", "/api/v1/sessions", JoinRequest{Campaign: campaign, Worker: Worker{ID: fmt.Sprintf("owned-%d", i)}, Captcha: "tok"}, &jr)
		sess, _ := srv.state.Session(jr.Session)
		minted[jr.Session] = unsafe.StringData(sess.ID)
		joined = append(joined, jr)
	}
	for _, jr := range joined {
		for _, tt := range jr.Tests {
			dispatch(t, h, "POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{TestID: tt.TestID, SubmittedMs: 1_500, KeptOriginal: true}, nil)
		}
	}
	dispatch(t, h, "POST", "/api/v1/sessions", JoinRequest{Campaign: campaign, Worker: Worker{ID: "in-flight"}, Captcha: "tok"}, nil)
	owned("live", srv, minted)
	c, _ := srv.state.Campaign(campaign)
	srv.state.Sessions(func(id string, sess *state.Session) bool {
		if sess.Campaign != c {
			t.Errorf("live: session %s in flight does not point at its campaign", id)
		}
		return true
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	for _, how := range []string{"replayed", "snapshot-loaded"} {
		srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		owned(how, srv, nil)
		if how == "replayed" {
			if err := srv.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// resultsRenderFixture returns an in-memory server whose campaign has
// folded n completed sessions.
func resultsRenderFixture(tb testing.TB, n int) (*Server, *state.Campaign) {
	tb.Helper()
	return renderFixture(tb, NewServer(), n)
}

// renderFixture gives srv a campaign that has folded n completed
// sessions.
func renderFixture(tb testing.TB, srv *Server, n int) (*Server, *state.Campaign) {
	tb.Helper()
	h := srv.Handler()
	campaign := seedDispatch(tb, h, 4)
	completeSessions(tb, h, campaign, 0, n)
	c, _ := srv.state.Campaign(campaign)
	return srv, c
}

var renderSink []byte

// renderCases are the states a render finds a fixture's campaign in,
// each brought about by a step taken before the render and not counted
// with it:
//
//   - unchanged: nothing happened since the last render, so each
//     video's band memo resumes with no answer to add;
//   - cold: a render of another band took every memo, so the render
//     sums every kept answer again;
//   - completion: one more kept session's answers were folded in, one
//     per video and valued as the fixture's, so the memos resume over
//     them. The step is the fold a completion makes
//     (quality.Campaign.Complete) without the session's row, so the
//     campaign keeps its size however many renders a benchmark runs.
var renderCases = []struct {
	name   string
	before func(c *state.Campaign)
}{
	{"unchanged", func(*state.Campaign) {}},
	{"cold", func(c *state.Campaign) { c.Analytics().TimelineBands(0, 100) }},
	{"completion", func(c *state.Campaign) {
		sub := time.Duration(1_000+c.Analytics().Summary().Total%997) * time.Millisecond
		rec := &filtering.SessionRecord{}
		for _, v := range c.Videos {
			rec.Timeline = append(rec.Timeline, &survey.TimelineResponse{VideoID: v, Submitted: sub})
		}
		c.Analytics().Complete(rec, filtering.Kept)
	}},
}

// benchRenders times render in each of renderCases on a fixture of n
// completed sessions, the case's step untimed.
func benchRenders(b *testing.B, n int, fixture func(testing.TB, int) (*state.Campaign, func())) {
	c, render := fixture(b, n)
	for _, rc := range renderCases {
		b.Run(fmt.Sprintf("sessions=%d/%s", n, rc.name), func(b *testing.B) {
			render() // the memos and the pooled buffers are warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rc.before(c)
				b.StartTimer()
				render()
			}
		})
	}
}

// resultsRender returns a /results cache-miss render — the work done
// under the campaign shard's exclusive lock after every completion — on
// a fixture of n completed sessions.
func resultsRender(tb testing.TB, n int) (*state.Campaign, func()) {
	srv, c := resultsRenderFixture(tb, n)
	return c, func() {
		body, err := srv.state.RenderResults(c)
		if err != nil {
			tb.Fatal(err)
		}
		renderSink = body
	}
}

// BenchmarkResultsRender prices the /results cache-miss render at two
// campaign sizes, in each of renderCases.
func BenchmarkResultsRender(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		benchRenders(b, n, resultsRender)
	}
}

// renderAllocs is testing.AllocsPerRun over render alone: before runs
// ahead of each render, its allocations not counted.
func renderAllocs(runs int, before, render func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	render() // warm up, as AllocsPerRun does
	var m runtime.MemStats
	var mallocs uint64
	for i := 0; i < runs; i++ {
		before()
		runtime.ReadMemStats(&m)
		start := m.Mallocs
		render()
		runtime.ReadMemStats(&m)
		mallocs += m.Mallocs - start
	}
	return float64(mallocs / uint64(runs))
}

// checkRenderAllocsFlat fails t unless a render allocates, in each of
// renderCases and at 100 and at 800 completed sessions, no more than
// ceiling objects, the ones it keeps: it allocates neither per session
// nor per video, and resuming a band memo allocates nothing.
func checkRenderAllocsFlat(t *testing.T, what string, ceiling float64, fixture func(testing.TB, int) (*state.Campaign, func())) {
	for _, n := range []int{100, 800} {
		c, render := fixture(t, n)
		for _, rc := range renderCases {
			got := renderAllocs(100, func() { rc.before(c) }, render)
			t.Logf("%s allocations, %s: %.0f at %d sessions (ceiling %.0f)", what, rc.name, got, n, ceiling)
			if got > ceiling {
				t.Errorf("%s allocations, %s: %.0f at %d sessions, ceiling %.0f", what, rc.name, got, n, ceiling)
			}
		}
	}
}

// TestResultsRenderAllocsFlat holds the /results miss render to
// checkRenderAllocsFlat with the one object it keeps, the body; the
// cache adds the tag and its header value (TestRequestPathAllocBudget's
// "results miss" row). Skipped under the race detector, whose sync.Pool
// drops pooled buffers at random.
func TestResultsRenderAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	checkRenderAllocsFlat(t, "render", 1, resultsRender)
}

// discardWriter is the cheapest ResponseWriter: it keeps the status and
// counts the body, so what a render benchmark measures is the handler.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(c int)   { d.status = c }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// analyticsRender returns a function serving one GET /analytics, through
// the whole handler, on an in-memory server's campaign with n completed
// sessions and one in flight.
func analyticsRender(tb testing.TB, n int) (*state.Campaign, func()) {
	tb.Helper()
	return analyticsRenderOn(tb, NewServer(), n)
}

// spilledAnalyticsRender is analyticsRender on a server with a data
// directory, after a snapshot spilled the n completed sessions to the
// campaign's files: each render reads the rows file once.
func spilledAnalyticsRender(tb testing.TB, n int) (*state.Campaign, func()) {
	tb.Helper()
	srv, err := Open(Options{DataDir: tb.TempDir(), SnapshotEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	c, render := analyticsRenderOn(tb, srv, n)
	if err := srv.Snapshot(); err != nil {
		tb.Fatal(err)
	}
	if held := srv.state.Counts().CompletedBytes; held != 0 || len(c.Completed()) != n {
		tb.Fatalf("the snapshot left %d bytes of %d completed sessions in the heap, want %d, every one spilled", held, len(c.Completed()), n)
	}
	return c, render
}

// analyticsRenderOn is analyticsRender on srv.
func analyticsRenderOn(tb testing.TB, srv *Server, n int) (*state.Campaign, func()) {
	tb.Helper()
	srv, c := renderFixture(tb, srv, n)
	h := srv.Handler()
	dispatch(tb, h, "POST", "/api/v1/sessions", JoinRequest{
		Campaign: c.ID, Worker: Worker{ID: "in-flight"}, Captcha: "tok",
	}, nil)
	req := httptest.NewRequest("GET", "/api/v1/campaigns/"+c.ID+"/analytics", nil)
	w := &discardWriter{header: http.Header{}}
	return c, func() {
		clear(w.header)
		w.status, w.n = 0, 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n < 90*n {
			tb.Fatalf("analytics: status %d, %d body bytes for %d sessions", w.status, w.n, n)
		}
	}
}

// BenchmarkAnalyticsRender prices one /analytics poll, handler entry to
// last byte written, at two campaign sizes and in each of renderCases:
// a copy per completed session, and allocations that do not depend on
// their number.
func BenchmarkAnalyticsRender(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		benchRenders(b, n, analyticsRender)
	}
	b.Run("spilled", func(b *testing.B) {
		for _, n := range []int{1000, 8000} {
			benchRenders(b, n, spilledAnalyticsRender)
		}
	})
}

// TestAnalyticsRenderAllocsFlat holds the /analytics poll, in memory
// and spilled, to checkRenderAllocsFlat with the two objects it keeps,
// the tag and one array of header values (TestRequestPathAllocBudget's
// "analytics" row): completed sessions are copied from their frozen
// rows. Skipped under the race detector, like TestResultsRenderAllocsFlat.
func TestAnalyticsRenderAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	checkRenderAllocsFlat(t, "analytics", 2, analyticsRender)
	checkRenderAllocsFlat(t, "spilled analytics", 2, spilledAnalyticsRender)
}

// BenchmarkSessionLookupMiss prices the lookup of a session the sessions
// index does not hold — what a late request to a completed session and
// the rate limiter's first sight of its key pay — on servers of 1 and 16
// campaigns sharing 1k and 8k completed sessions: the index miss, then
// each campaign's frozenAt in turn until one files the session. An
// unknown ID asks every campaign.
func BenchmarkSessionLookupMiss(b *testing.B) {
	for _, campaigns := range []int{1, 16} {
		for _, completed := range []int{1000, 8000} {
			srv := NewServer()
			h := srv.Handler()
			var filed []string
			for i := 0; i < campaigns; i++ {
				id := seedDispatch(b, h, 4)
				completeSessions(b, h, id, i*completed/campaigns, completed/campaigns)
				c, _ := srv.state.Campaign(id)
				filed = append(filed, c.Completed()...)
			}
			unknown := make([]string, len(filed))
			minted, _ := strconv.ParseInt(srv.state.NewID(""), 10, 64)
			for i := range unknown {
				unknown[i] = "s" + strconv.FormatInt(minted+1+int64(i), 10)
			}
			for _, tc := range []struct {
				name string
				ids  []string
				held bool
			}{{"completed", filed, true}, {"unknown", unknown, false}} {
				b.Run(fmt.Sprintf("campaigns=%d/sessions=%d/id=%s", campaigns, completed, tc.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if id := tc.ids[i%len(tc.ids)]; srv.state.Held(id) != tc.held {
							b.Fatalf("Held(%s) = %v, want %v", id, !tc.held, tc.held)
						}
					}
				})
			}
		}
	}
}
