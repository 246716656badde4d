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
// the mux match and the platform, not the harness.
type budgetRig struct {
	t    *testing.T
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
// retains (a join's session, a completion's rows) are in the count.
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
	sessions := make([]joined, 2*(runs+1))
	for i := range sessions {
		var jr JoinResponse
		dispatch(t, rig.h, "POST", "/api/v1/sessions", JoinRequest{
			Campaign: campaign, Worker: Worker{ID: "budget-" + strconv.Itoa(i), Gender: "f", Country: "ES", Source: "test"}, Captcha: "tok",
		}, &jr)
		sessions[i] = joined{"/api/v1/sessions/" + jr.Session, "/api/v1/sessions/" + jr.Session + "/responses", jr.Tests, answer(jr.Tests[0]), answer(jr.Tests[TestsPerSession-1])}
	}
	post := rig.request("POST", "application/json")
	for _, s := range sessions[runs+1:] {
		for _, tt := range s.tests[:TestsPerSession-1] {
			rig.serve(post, s.path+"/responses", answer(tt), http.StatusAccepted)
		}
	}

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
	next := 0
	cases := []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"join", 18, func() { rig.serve(post, "/api/v1/sessions", joinBody, http.StatusCreated) }},
		{"tests", 3, func() { rig.serve(get, testsPath, nil, http.StatusOK) }},
		{"video cache hit", 2, func() { rig.serve(get, video, nil, http.StatusOK) }},
		{"events JSON", 2, func() { rig.serve(post, eventsPath, events, http.StatusAccepted) }},
		{"events EYB1", 3, func() { rig.serve(binary, eventsPath, batch, http.StatusAccepted) }},
		{"response", 2, func() {
			s := sessions[next]
			next++
			rig.serve(post, s.responses, s.first, http.StatusAccepted)
		}},
		{"response completing", 8, func() {
			s := sessions[next]
			next++
			rig.serve(post, s.responses, s.last, http.StatusAccepted)
		}},
	}
	for _, c := range cases {
		got := testing.AllocsPerRun(runs, c.run)
		t.Logf("%-20s %5.1f objects per request (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %.1f objects per request, ceiling %.0f", c.name, got, c.ceiling)
		}
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
	const ceiling = 1
	got := testing.AllocsPerRun(runs, func() {
		rig.serve(post, paths[next], answers[next], http.StatusAccepted)
		next++
	})
	t.Logf("journaled response %5.1f objects per request (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("journaled response: %.1f objects per request, ceiling %d", got, ceiling)
	}
}
