package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// newClientFor wraps an existing server in httptest plumbing.
func newClientFor(t *testing.T, s *Server) *client {
	t.Helper()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return &client{t: t, srv: srv}
}

func TestDuplicateResponseRejected(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 2)
	jr := join(c, id, "resubmitter")

	body := ResponseBody{TestID: jr.Tests[0].TestID, SliderMs: 1500, SubmittedMs: 1400, KeptOriginal: true}
	if code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", body, nil); code != http.StatusAccepted {
		t.Fatalf("first response rejected: %d", code)
	}
	// Resubmitting the same test must not count twice.
	for i := 0; i < TestsPerSession; i++ {
		var out struct {
			Done  bool   `json:"session_complete"`
			Error string `json:"error"`
		}
		code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", body, &out)
		if code != http.StatusConflict {
			t.Fatalf("duplicate response %d accepted: %d", i, code)
		}
		if out.Done {
			t.Fatal("duplicate response completed the session")
		}
	}
	// The session still needs the remaining six answers.
	var res ResultsResponse
	c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, &res)
	if res.Participants != 0 {
		t.Fatalf("session counted as complete after duplicates: %+v", res)
	}
	for _, tt := range jr.Tests[1:] {
		c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{
			TestID: tt.TestID, SliderMs: 1500, SubmittedMs: 1400, KeptOriginal: true,
		}, nil)
	}
	c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, &res)
	if res.Participants != 1 {
		t.Fatalf("participants = %d after completing all distinct tests, want 1", res.Participants)
	}
}

func TestEventsAfterCompletionRejected(t *testing.T) {
	c := newClient(t)
	id, vids := setupCampaign(c, "timeline", 1)
	jr := join(c, id, "late-events")
	completeSession(c, jr, 1500, true, 10, 0)
	code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{
		VideoID: vids[0], LoadMs: 1, TimeOnVideoMs: 1,
	}, nil)
	if code != http.StatusConflict {
		t.Fatalf("post-completion events returned %d, want 409", code)
	}
}

// TestJoinRoundRobinCoversVideos pins assignment fairness: sequential
// joins draw unique offsets, so controls rotate over every live video.
func TestJoinRoundRobinCoversVideos(t *testing.T) {
	c := newClient(t)
	id, vids := setupCampaign(c, "timeline", 5)
	seen := map[string]bool{}
	for i := 0; i < len(vids); i++ {
		jr := join(c, id, fmt.Sprintf("rr-%d", i))
		seen[jr.Tests[TestsPerSession-1].VideoID] = true
	}
	if len(seen) != len(vids) {
		t.Fatalf("%d joins covered %d control videos, want %d", len(vids), len(seen), len(vids))
	}
}

// TestConcurrentSessions drives 64 full participant lifecycles in
// parallel against a sharded server — the acceptance floor, run under
// go test -race in CI.
func TestConcurrentSessions(t *testing.T) {
	const participants = 64
	srv, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 5)

	errc := make(chan error, participants)
	var wg sync.WaitGroup
	for i := 0; i < participants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var jr JoinResponse
			code := c.do("POST", "/api/v1/sessions", JoinRequest{
				Campaign: id,
				Worker:   Worker{ID: fmt.Sprintf("conc-%d", i), Gender: "f", Country: "IT", Source: "crowdflower"},
				Captcha:  "tok",
			}, &jr)
			if code != http.StatusCreated {
				errc <- fmt.Errorf("worker %d: join returned %d", i, code)
				return
			}
			if code := c.do("GET", "/api/v1/sessions/"+jr.Session+"/tests", nil, nil); code != http.StatusOK {
				errc <- fmt.Errorf("worker %d: tests returned %d", i, code)
				return
			}
			c.do("POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{InstructionMs: 25_000}, nil)
			for _, tt := range jr.Tests {
				if code := c.do("GET", "/api/v1/videos/"+tt.VideoID, nil, nil); code != http.StatusOK {
					errc <- fmt.Errorf("worker %d: video returned %d", i, code)
					return
				}
				c.do("POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{
					VideoID: tt.VideoID, LoadMs: 800, TimeOnVideoMs: 20_000,
					Seeks: 12, Plays: 1, WatchedFraction: 0.9,
				}, nil)
				code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{
					TestID: tt.TestID, SliderMs: 1500 + float64(i), SubmittedMs: 1400 + float64(i), KeptOriginal: true,
				}, nil)
				if code != http.StatusAccepted {
					errc <- fmt.Errorf("worker %d: response for %s returned %d", i, tt.TestID, code)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	var res ResultsResponse
	if code := c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, &res); code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}
	if res.Participants != participants {
		t.Fatalf("participants = %d, want %d", res.Participants, participants)
	}
	if res.Kept != participants {
		t.Fatalf("kept = %d, want %d (diligent traces)", res.Kept, participants)
	}
}

// TestLateRequestsRaceCompletions hammers completed sessions with late
// requests — each answered by reading the session's frozen record in
// place — while other sessions of the same campaign complete, each
// appending to the arena those records sit in and, as it grows, moving
// it. Run under -race; every reply is, byte for byte, what a quiet
// server answered.
func TestLateRequestsRaceCompletions(t *testing.T) {
	const frozen, completing, hammers = 8, 96, 4
	srv := NewServer()
	h := srv.Handler()
	campaign := seedDispatch(t, h, 3)
	do := func(method, path string, body any) (int, string) {
		raw, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		rec := (&fuzzEnv{handler: h}).do(method, path, raw)
		return rec.Code, rec.Body.String()
	}
	var done []JoinResponse
	for i := 0; i < frozen; i++ {
		var jr JoinResponse
		dispatch(t, h, "POST", "/api/v1/sessions", JoinRequest{Campaign: campaign, Worker: Worker{ID: fmt.Sprintf("late-%d", i)}, Captcha: "tok"}, &jr)
		done = append(done, jr)
	}
	completeSessions(t, h, campaign, 0, 1) // a record ahead of theirs in the arena
	for _, jr := range done {
		for _, tt := range jr.Tests {
			dispatch(t, h, "POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{TestID: tt.TestID, SubmittedMs: 1_500, KeptOriginal: true}, nil)
		}
	}
	type late struct {
		method, path string
		body         any
		status       int
		reply        string
	}
	var lates []late
	for _, jr := range done {
		base := "/api/v1/sessions/" + jr.Session
		for _, l := range []late{
			{method: "GET", path: base + "/tests", status: http.StatusOK},
			{method: "POST", path: base + "/responses", body: ResponseBody{TestID: jr.Tests[3].TestID, SubmittedMs: 1}, status: http.StatusConflict},
			{method: "POST", path: base + "/responses", body: ResponseBody{TestID: jr.Session + "-t9"}, status: http.StatusBadRequest},
			{method: "POST", path: base + "/events", body: EventBatch{VideoID: jr.Tests[0].VideoID, Plays: 1}, status: http.StatusConflict},
		} {
			var status int
			if status, l.reply = do(l.method, l.path, l.body); status != l.status {
				t.Fatalf("%s %s on a quiet server: %d %s, want %d", l.method, l.path, status, l.reply, l.status)
			}
			lates = append(lates, l)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < hammers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				l := lates[i%len(lates)]
				if status, reply := do(l.method, l.path, l.body); status != l.status || reply != l.reply {
					t.Errorf("%s %s while others complete: %d %s, want %d %s", l.method, l.path, status, reply, l.status, l.reply)
					return
				}
			}
		}(w)
	}
	completeSessions(t, h, campaign, 1, completing)
	close(stop)
	wg.Wait()
	if inflight, completed := sessionCounts(t, srv, campaign); inflight != 0 || completed != frozen+1+completing {
		t.Fatalf("index holds %d sessions and the campaign files %d completed, want 0 and %d", inflight, completed, frozen+1+completing)
	}
}

// TestBandMemoRendersRaceCompletions runs /analytics polls, which read
// the wisdom-band sketches under the campaign lock held shared, and
// /results misses, which hold it exclusively, against completions.
// Every render writes each sketch's band memo under the sketch's own
// mutex, and two polls at once write the same memo: run under -race
// this pins that mutex. One poller asks for a custom band, so the memos
// are both resumed and retaken, and the answers repeat seven values, so
// resumes are common and bounds cross values. Once the completions
// stop, each render must be byte for byte what a server that completed
// the same sessions, rendering nothing before, serves.
func TestBandMemoRendersRaceCompletions(t *testing.T) {
	const sessions = 60
	complete := func(h http.Handler, campaign string) {
		for i := 0; i < sessions; i++ {
			completeDispatched(t, h, campaign, i, 1_000+float64(i%7)*100)
		}
	}
	h := NewServer().Handler()
	env := &fuzzEnv{handler: h}
	campaign := seedDispatch(t, h, 4)
	base := "/api/v1/campaigns/" + campaign
	paths := []string{base + "/results", base + "/analytics", base + "/analytics?lo=10&hi=90", base + "/analytics"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range paths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec := env.do("GET", path, nil); rec.Code != http.StatusOK {
					t.Errorf("GET %s: %d %s", path, rec.Code, rec.Body.Bytes())
					return
				}
			}
		}()
	}
	complete(h, campaign)
	close(stop)
	wg.Wait()

	fresh := &fuzzEnv{handler: NewServer().Handler()}
	if id := seedDispatch(t, fresh.handler, 4); id != campaign {
		t.Fatalf("the fresh server minted campaign %s, not %s", id, campaign)
	}
	complete(fresh.handler, campaign)
	for _, path := range paths {
		want := fresh.do("GET", path, nil).Body.Bytes()
		if got := env.do("GET", path, nil).Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("GET %s after the race:\n%s\nwant, as a server that rendered nothing before serves:\n%s", path, got, want)
		}
	}
}
