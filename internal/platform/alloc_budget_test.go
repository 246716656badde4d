// What one request costs in heap objects, endpoint by endpoint. The
// benchmark's allocs_per_session is the sum of these over a session's 24
// requests plus net/http's own share (readRequest, the reply's
// Header.Clone, the connection's background read), which only a socket
// shows; a regression there says nothing about where, and this says it.
package platform

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"github.com/eyeorg/eyeorg/internal/wire"
)

// replayBody is a request body that can be rewound, so one *http.Request
// serves every run of a measurement.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// budgetRig drives Handler().ServeHTTP with one reused request and one
// reused writer per measurement: what testing.AllocsPerRun then counts is
// the platform, its route match included, not the harness.
type budgetRig struct {
	t    testing.TB
	h    http.Handler
	w    *discardWriter
	body *replayBody
}

func (rig *budgetRig) request(method, contentType string) *http.Request {
	req := httptest.NewRequest(method, "/", nil)
	req.Body = rig.body
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return req
}

// serve sends body to path on req and fails the test on any other status.
func (rig *budgetRig) serve(req *http.Request, path string, body []byte, want int) {
	clear(rig.w.header)
	rig.w.status, rig.w.n = 0, 0
	rig.body.Reset(body)
	req.URL.Path = path
	req.ContentLength = int64(len(body))
	rig.h.ServeHTTP(rig.w, req)
	if rig.w.status != want {
		rig.t.Fatalf("%s %s: status %d, want %d", req.Method, path, rig.w.status, want)
	}
}

// TestRequestPathAllocBudget pins heap objects per request on an
// in-memory server with telemetry on, the benchmark's crowd-mem
// configuration. Each ceiling is the measured count plus one: the request
// path's pools are warm and nothing else runs, so the counts repeat
// exactly, and the next regression names its endpoint. Objects a request
// retains are in the count: a join's are the session's own (see
// sessionKeeps), and the rows a completion files grow by amortized
// appends, which round to none.
func TestRequestPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	const runs = 200
	srv := NewServer()
	rig := &budgetRig{t: t, h: srv.Handler(), w: &discardWriter{header: http.Header{}}, body: &replayBody{}}
	campaign := seedDispatch(t, rig.h, 8)

	// The response measurements each need a test nobody answered yet:
	// one session per run (AllocsPerRun makes runs+1), the completing
	// one with six of its seven tests answered beforehand.
	type joined struct {
		path        string // of the session, and of its responses
		responses   string
		tests       []AssignedTest
		first, last []byte // the answers to its first and its control test
	}
	answer := func(tt AssignedTest) []byte {
		return []byte(`{"test_id":"` + tt.TestID + `","slider_ms":1400.5,"helper_ms":1200,"submitted_ms":1200,"kept_original":true}`)
	}
	post := rig.request("POST", "application/json")
	// join starts n sessions of campaign on rig; with nearlyDone, each
	// answers all but its control test, which completes it.
	joins := 0
	join := func(rig *budgetRig, campaign string, n int, nearlyDone bool) []joined {
		post := rig.request("POST", "application/json")
		sessions := make([]joined, n)
		for i := range sessions {
			joins++
			var jr JoinResponse
			dispatch(t, rig.h, "POST", "/api/v1/sessions", JoinRequest{
				Campaign: campaign, Worker: Worker{ID: "budget-" + strconv.Itoa(joins), Gender: "f", Country: "ES", Source: "test"}, Captcha: "tok",
			}, &jr)
			sessions[i] = joined{"/api/v1/sessions/" + jr.Session, "/api/v1/sessions/" + jr.Session + "/responses", jr.Tests, answer(jr.Tests[0]), answer(jr.Tests[TestsPerSession-1])}
		}
		if nearlyDone {
			for _, s := range sessions {
				for _, tt := range s.tests[:TestsPerSession-1] {
					rig.serve(post, s.responses, answer(tt), http.StatusAccepted)
				}
			}
		}
		return sessions
	}
	sessions := append(join(rig, campaign, runs+1, false), join(rig, campaign, runs+1, true)...)

	first := sessions[0]
	testsPath, eventsPath := first.path+"/tests", first.path+"/events"
	video := "/api/v1/videos/" + first.tests[0].VideoID
	events := []byte(`{"video_id":"` + first.tests[0].VideoID + `","load_ms":912.25,"time_on_video_ms":21000,"plays":1,"pauses":0,"seeks":4,"watched_fraction":0.9,"out_of_focus_ms":0}`)
	var recs []wire.Record
	for _, tt := range first.tests {
		recs = AppendWireRecords(recs, EventBatch{VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 4, WatchedFraction: 0.9})
	}
	var enc wire.Encoder
	batch := enc.AppendBatch(nil, recs)
	joinBody := []byte(`{"campaign":"` + campaign + `","worker":{"id":"w12345","gender":"f","country":"ES","source":"bench"},"captcha":"bench"}`)

	get := rig.request("GET", "")
	binary := rig.request("POST", wire.ContentType)
	// The Range row asks for the last 2 KiB of a video longer than that,
	// as the benchmark's 64 KiB suffix does: a reply of 1 KiB or more has
	// no shared Content-Length value.
	large, tag := seedLargeVideo(t, rig.h)
	ranged := rig.request("GET", "")
	ranged.Header.Set("Range", "bytes=-2048")
	revalidate := rig.request("GET", "")
	revalidate.Header.Set("If-None-Match", tag)
	next := 0
	cases := []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"join", sessionKeeps + 1, func() { rig.serve(post, "/api/v1/sessions", joinBody, http.StatusCreated) }},
		{"tests", 1, func() { rig.serve(get, testsPath, nil, http.StatusOK) }},
		{"video cache hit", 1, func() { rig.serve(get, video, nil, http.StatusOK) }},
		{"video range", 3, func() { rig.serve(ranged, large, nil, http.StatusPartialContent) }},
		{"video not modified", 1, func() { rig.serve(revalidate, large, nil, http.StatusNotModified) }},
		{"events JSON", 1, func() { rig.serve(post, eventsPath, events, http.StatusAccepted) }},
		{"events EYB1", 2, func() { rig.serve(binary, eventsPath, batch, http.StatusAccepted) }},
		{"response", 1, func() {
			s := sessions[next]
			next++
			rig.serve(post, s.responses, s.first, http.StatusAccepted)
		}},
		{"response completing", 1, func() {
			s := sessions[next]
			next++
			rig.serve(post, s.responses, s.last, http.StatusAccepted)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rig.t = t
			got := testing.AllocsPerRun(runs, c.run)
			t.Logf("%-20s %5.1f objects per request (ceiling %.0f)", c.name, got, c.ceiling)
			if got > c.ceiling {
				t.Errorf("%s: %.1f objects per request, ceiling %.0f", c.name, got, c.ceiling)
			}
		})
	}

	// The experimenter's views, on this timeline campaign and on an
	// adaptive one, whose /analytics adds the stopping block. Each
	// ceiling is what the request keeps, with no slack: a /results miss
	// its body, its tag and the tag's header value, a hit nothing, and an
	// /analytics poll its tag and one array for the tag's and the body
	// length's header values. A miss is measured after a completion drops
	// the cached render, the completion not counted.
	adaptive, err := Open(Options{Adaptive: true, CIHalfWidth: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	defer adaptive.Close()
	arig := &budgetRig{t: t, h: adaptive.Handler(), w: &discardWriter{header: http.Header{}}, body: &replayBody{}}
	acampaign := seedDispatch(t, arig.h, 8)
	completeSessions(t, arig.h, acampaign, 0, 64)
	type view struct {
		name               string
		rig                *budgetRig
		results, analytics string
		completing         []joined
	}
	views := []view{
		{"timeline", rig, "/api/v1/campaigns/" + campaign + "/results", "/api/v1/campaigns/" + campaign + "/analytics", join(rig, campaign, runs, true)},
		{"adaptive", arig, "/api/v1/campaigns/" + acampaign + "/results", "/api/v1/campaigns/" + acampaign + "/analytics", join(arig, acampaign, runs, true)},
	}
	rows := []struct {
		name    string
		ceiling float64
		measure func(v *view) float64
	}{
		{"results miss", 3, func(v *view) float64 {
			post, get, next := v.rig.request("POST", "application/json"), v.rig.request("GET", ""), 0
			return renderAllocs(runs, func() {
				v.rig.serve(post, v.completing[next].responses, v.completing[next].last, http.StatusAccepted)
				next++
			}, func() { v.rig.serve(get, v.results, nil, http.StatusOK) })
		}},
		{"results hit", 0, func(v *view) float64 {
			hit := v.rig.request("GET", "")
			v.rig.serve(hit, v.results, nil, http.StatusOK)
			hit.Header.Set("If-None-Match", v.rig.w.header.Get("Etag"))
			return testing.AllocsPerRun(runs, func() { v.rig.serve(hit, v.results, nil, http.StatusNotModified) })
		}},
		{"analytics", 2, func(v *view) float64 {
			get := v.rig.request("GET", "")
			return testing.AllocsPerRun(runs, func() { v.rig.serve(get, v.analytics, nil, http.StatusOK) })
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for i := range views {
				v := &views[i]
				t.Run(v.name, func(t *testing.T) {
					v.rig.t = t
					got := row.measure(v)
					t.Logf("%-12s %-8s %5.1f objects per request (ceiling %.0f)", row.name, v.name, got, row.ceiling)
					if got > row.ceiling {
						t.Errorf("%s on the %s campaign: %.1f objects per request, ceiling %.0f", row.name, v.name, got, row.ceiling)
					}
				})
			}
		})
	}
}

// sessionKeeps is what a join allocates, all of it kept until the session
// completes: the session's state (its tracker and answer storage inline),
// its tracker's entries, its ID, its assignment and the one string its
// test IDs are cut from, and the one string its worker's fields are cut
// from. The campaign ID and the captcha token are read in place.
const sessionKeeps = 6

// TestSessionLifecycleAllocBudget pins heap objects per whole session on
// the server TestRequestPathAllocBudget measures: a join, its /tests, an
// engagement batch per test and an answer per test, the last completing
// it. The ceiling is what the join keeps: nothing else a session sends
// allocates, completion included, which folds from and renders into the
// campaign's own storage, so one object more is a request allocating
// again.
func TestSessionLifecycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	const runs = 200
	srv := NewServer()
	rig := &budgetRig{t: t, h: srv.Handler(), w: &discardWriter{header: http.Header{}}, body: &replayBody{}}
	campaign := seedDispatch(t, rig.h, 8)
	completeSessions(t, rig.h, campaign, 0, 64) // size the campaign's rows, sketches and scratch

	c, _ := srv.state.Campaign(campaign)
	events := map[string][]byte{}
	for _, vid := range c.Videos {
		events[vid] = []byte(`{"video_id":"` + vid + `","load_ms":912.25,"time_on_video_ms":21000,"plays":1,"pauses":0,"seeks":4,"watched_fraction":0.9,"out_of_focus_ms":0}`)
	}
	joinBody := []byte(`{"campaign":"` + campaign + `","worker":{"id":"w12345","gender":"f","country":"ES","source":"bench"},"captcha":"bench"}`)
	// Nothing but the joins mints an ID from here on, so the sessions'
	// IDs, and with them their paths, are known ahead (AllocsPerRun makes
	// runs+1). The answers name the tests the server assigned, appended
	// into one buffer sized for them.
	type paths struct{ id, tests, events, responses string }
	next, sessions := 0, make([]paths, runs+1)
	minted, _ := strconv.ParseInt(srv.state.NewID(""), 10, 64)
	for i := range sessions {
		id := "s" + strconv.FormatInt(minted+1+int64(i), 10)
		sessions[i] = paths{id, "/api/v1/sessions/" + id + "/tests", "/api/v1/sessions/" + id + "/events", "/api/v1/sessions/" + id + "/responses"}
	}
	answer := make([]byte, 0, 256)
	post, get := rig.request("POST", "application/json"), rig.request("GET", "")
	got := testing.AllocsPerRun(runs, func() {
		s := sessions[next]
		next++
		rig.serve(post, "/api/v1/sessions", joinBody, http.StatusCreated)
		tests := srv.state.Assignment(s.id)
		if tests == nil {
			t.Fatalf("the join did not start session %s", s.id)
		}
		rig.serve(get, s.tests, nil, http.StatusOK)
		for _, tt := range tests {
			rig.serve(post, s.events, events[tt.VideoID], http.StatusAccepted)
		}
		for _, tt := range tests {
			answer = append(append(append(answer[:0], `{"test_id":"`...), tt.TestID...), `","slider_ms":1400.5,"helper_ms":1200,"submitted_ms":1200,"kept_original":true}`...)
			rig.serve(post, s.responses, answer, http.StatusAccepted)
		}
		if srv.state.Assignment(s.id) != nil {
			t.Fatalf("session %s did not complete", s.id)
		}
	})
	t.Logf("whole session %5.1f objects (ceiling %d)", got, sessionKeeps)
	if got > sessionKeeps {
		t.Errorf("whole session: %.1f objects, ceiling %d", got, sessionKeeps)
	}
}

// TestJournaledResponseAllocBudget pins heap objects per answer on a
// DataDir server: the in-memory response's objects plus what journaling
// its record costs. journal encodes the record into a pooled buffer and
// the journal copies it into its write buffer, and the request that
// waits for the record leads its window itself, so the journal path
// adds no object of its own. The ceiling has no slack: it is the
// in-memory response's measured count (TestRequestPathAllocBudget), and
// one object more is the journal allocating again.
func TestJournaledResponseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	const runs = 200
	srv, err := Open(Options{DataDir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rig := &budgetRig{t: t, h: srv.Handler(), w: &discardWriter{header: http.Header{}}, body: &replayBody{}}
	campaign := seedDispatch(t, rig.h, 8)
	// One session per run (AllocsPerRun makes runs+1), each answering its
	// first test.
	paths, answers := make([]string, runs+1), make([][]byte, runs+1)
	for i := range paths {
		var jr JoinResponse
		dispatch(t, rig.h, "POST", "/api/v1/sessions", JoinRequest{
			Campaign: campaign, Worker: Worker{ID: "journaled-" + strconv.Itoa(i), Gender: "f", Country: "ES", Source: "test"}, Captcha: "tok",
		}, &jr)
		paths[i] = "/api/v1/sessions/" + jr.Session + "/responses"
		answers[i] = []byte(`{"test_id":"` + jr.Tests[0].TestID + `","slider_ms":1400.5,"helper_ms":1200,"submitted_ms":1200,"kept_original":true}`)
	}
	post := rig.request("POST", "application/json")
	next := 0
	const ceiling = 0
	got := testing.AllocsPerRun(runs, func() {
		rig.serve(post, paths[next], answers[next], http.StatusAccepted)
		next++
	})
	t.Logf("journaled response %5.1f objects per request (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("journaled response: %.1f objects per request, ceiling %d", got, ceiling)
	}
}
