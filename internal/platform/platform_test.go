package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// client wraps httptest plumbing for the API.
type client struct {
	t   *testing.T
	srv *httptest.Server
}

func newClient(t *testing.T) *client {
	t.Helper()
	srv := httptest.NewServer(NewServer().Handler())
	t.Cleanup(srv.Close)
	return &client{t: t, srv: srv}
}

func (c *client) do(method, path string, body any, out any) int {
	c.t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case []byte:
		buf.Write(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			c.t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, c.srv.URL+path, &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// sampleVideoBytes returns an encoded two-stage load video.
func sampleVideoBytes() []byte {
	paints := []browsersim.PaintEvent{
		{T: 300 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
		{T: 1200 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 2, W: 30, H: 10}, Value: 2},
	}
	return video.Encode(webpeg.Render(paints, 3*time.Second, 10))
}

// setupCampaign creates a timeline campaign with n videos.
func setupCampaign(c *client, kind string, n int) (campaignID string, videoIDs []string) {
	var created CreateCampaignResponse
	if code := c.do("POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "test", Kind: kind}, &created); code != http.StatusCreated {
		c.t.Fatalf("create campaign: %d", code)
	}
	for i := 0; i < n; i++ {
		var added AddVideoResponse
		if code := c.do("POST", "/api/v1/campaigns/"+created.ID+"/videos", sampleVideoBytes(), &added); code != http.StatusCreated {
			c.t.Fatalf("add video: %d", code)
		}
		videoIDs = append(videoIDs, added.ID)
	}
	return created.ID, videoIDs
}

func join(c *client, campaign, workerID string) JoinResponse {
	var jr JoinResponse
	code := c.do("POST", "/api/v1/sessions", JoinRequest{
		Campaign: campaign,
		Worker:   Worker{ID: workerID, Gender: "m", Country: "VE", Source: "crowdflower"},
		Captcha:  "ok-token",
	}, &jr)
	if code != http.StatusCreated {
		c.t.Fatalf("join: %d", code)
	}
	return jr
}

func TestCampaignLifecycle(t *testing.T) {
	c := newClient(t)
	id, vids := setupCampaign(c, "timeline", 3)
	if id == "" || len(vids) != 3 {
		t.Fatal("setup failed")
	}
}

func TestCreateCampaignValidation(t *testing.T) {
	c := newClient(t)
	if code := c.do("POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "x", Kind: "weird"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad kind accepted: %d", code)
	}
	if code := c.do("POST", "/api/v1/campaigns", CreateCampaignRequest{Kind: "timeline"}, nil); code != http.StatusBadRequest {
		t.Fatalf("missing name accepted: %d", code)
	}
}

func TestAddVideoRejectsGarbage(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 1)
	if code := c.do("POST", "/api/v1/campaigns/"+id+"/videos", []byte("not a video"), nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("garbage video accepted: %d", code)
	}
	if code := c.do("POST", "/api/v1/campaigns/ghost/videos", sampleVideoBytes(), nil); code != http.StatusNotFound {
		t.Fatalf("ghost campaign accepted: %d", code)
	}
}

func TestCaptchaGate(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 2)
	code := c.do("POST", "/api/v1/sessions", JoinRequest{
		Campaign: id,
		Worker:   Worker{ID: "w1"},
	}, nil)
	if code != http.StatusForbidden {
		t.Fatalf("captcha-less join returned %d, want 403", code)
	}
}

func TestJoinAssignsSevenTests(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 3)
	jr := join(c, id, "w1")
	if len(jr.Tests) != TestsPerSession {
		t.Fatalf("assignment = %d tests, want %d", len(jr.Tests), TestsPerSession)
	}
	controls := 0
	for _, tt := range jr.Tests {
		if tt.Control {
			controls++
		}
		if tt.Kind != "timeline" {
			t.Fatalf("test kind = %s", tt.Kind)
		}
	}
	if controls != 1 {
		t.Fatalf("controls = %d, want 1", controls)
	}
	// The assignment is retrievable.
	var again JoinResponse
	if code := c.do("GET", "/api/v1/sessions/"+jr.Session+"/tests", nil, &again); code != http.StatusOK {
		t.Fatalf("get tests: %d", code)
	}
	if len(again.Tests) != len(jr.Tests) {
		t.Fatal("assignment not stable")
	}
}

func TestVideoServedAndDecodable(t *testing.T) {
	c := newClient(t)
	_, vids := setupCampaign(c, "timeline", 1)
	resp, err := http.Get(c.srv.URL + "/api/v1/videos/" + vids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	v, err := video.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("served video undecodable: %v", err)
	}
	if v.Duration() <= 0 {
		t.Fatal("decoded video empty")
	}
}

func TestFlagBansAtThreshold(t *testing.T) {
	c := newClient(t)
	id, vids := setupCampaign(c, "timeline", 2)
	target := vids[0]
	for i := 0; i < state.BanThreshold; i++ {
		var out struct {
			Flags  int  `json:"flags"`
			Banned bool `json:"banned"`
		}
		c.do("POST", "/api/v1/videos/"+target+"/flag", map[string]string{"worker": fmt.Sprintf("w%d", i)}, &out)
		if i < state.BanThreshold-1 && out.Banned {
			t.Fatalf("banned after only %d flags", i+1)
		}
		if i == state.BanThreshold-1 && !out.Banned {
			t.Fatal("not banned at threshold")
		}
	}
	// Duplicate flags from one worker do not count twice.
	var dup struct {
		Flags int `json:"flags"`
	}
	c.do("POST", "/api/v1/videos/"+vids[1]+"/flag", map[string]string{"worker": "same"}, &dup)
	c.do("POST", "/api/v1/videos/"+vids[1]+"/flag", map[string]string{"worker": "same"}, &dup)
	if dup.Flags != 1 {
		t.Fatalf("duplicate flags counted: %d", dup.Flags)
	}
	// Banned videos are not served and not assigned.
	if code := c.do("GET", "/api/v1/videos/"+target, nil, nil); code != http.StatusGone {
		t.Fatalf("banned video served: %d", code)
	}
	jr := join(c, id, "w-after")
	for _, tt := range jr.Tests {
		if tt.VideoID == target {
			t.Fatal("banned video assigned to a new session")
		}
	}
}

// completeSession drives one participant through events + responses.
func completeSession(c *client, jr JoinResponse, submittedMs float64, keptOriginal bool, seeks int, outOfFocusMs float64) {
	c.do("POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{InstructionMs: 25_000}, nil)
	for _, tt := range jr.Tests {
		c.do("POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{
			VideoID:         tt.VideoID,
			LoadMs:          900,
			TimeOnVideoMs:   21_000,
			Seeks:           seeks,
			Plays:           1,
			WatchedFraction: 0.9,
			OutOfFocusMs:    outOfFocusMs,
		}, nil)
		c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{
			TestID:       tt.TestID,
			SliderMs:     submittedMs + 200,
			HelperMs:     submittedMs,
			SubmittedMs:  submittedMs,
			KeptOriginal: keptOriginal,
		}, nil)
	}
}

func TestEndToEndTimelineResults(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 2)
	// Three diligent participants and one distracted one.
	for i := 0; i < 3; i++ {
		jr := join(c, id, fmt.Sprintf("good-%d", i))
		completeSession(c, jr, 1400+float64(i)*100, true, 12, 0)
	}
	jr := join(c, id, "away")
	completeSession(c, jr, 9000, true, 12, 45_000)

	var res ResultsResponse
	if code := c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, &res); code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}
	if res.Participants != 4 {
		t.Fatalf("participants = %d, want 4", res.Participants)
	}
	if res.Kept != 3 || res.Engagement != 1 {
		t.Fatalf("filtering wrong: %+v", res)
	}
	if len(res.PerVideo) == 0 {
		t.Fatal("no per-video aggregates")
	}
	for id, ag := range res.PerVideo {
		if ag.Responses == 0 || ag.MeanUPLT <= 0 {
			t.Fatalf("video %s aggregate empty: %+v", id, ag)
		}
	}
}

func TestControlFailureDropsParticipant(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 2)
	jr := join(c, id, "blind-accepter")
	// keptOriginal=false on the control question = blindly accepted the
	// wrong rewind frame.
	completeSession(c, jr, 1500, false, 10, 0)
	var res ResultsResponse
	c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, &res)
	if res.Control != 1 || res.Kept != 0 {
		t.Fatalf("control filtering wrong: %+v", res)
	}
}

func TestABFlow(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "ab", 2)
	jr := join(c, id, "ab-worker")
	for _, tt := range jr.Tests {
		c.do("POST", "/api/v1/sessions/"+jr.Session+"/events", EventBatch{
			VideoID: tt.VideoID, TimeOnVideoMs: 7000, Plays: 1, WatchedFraction: 1,
		}, nil)
		choice := "left"
		if tt.Control {
			choice = "no difference" // not the delayed side: passes
		}
		code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{TestID: tt.TestID, Choice: choice}, nil)
		if code != http.StatusAccepted {
			t.Fatalf("ab response rejected: %d", code)
		}
	}
	var res ResultsResponse
	c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, &res)
	if res.Kept != 1 {
		t.Fatalf("ab participant not kept: %+v", res)
	}
	for _, ag := range res.PerVideo {
		if ag.Agreement <= 0 {
			t.Fatalf("agreement missing: %+v", ag)
		}
	}
}

func TestABHardRule(t *testing.T) {
	// The §3.3 hard rule: an A/B answer must be one of the three choices.
	c := newClient(t)
	id, _ := setupCampaign(c, "ab", 1)
	jr := join(c, id, "w")
	code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{
		TestID: jr.Tests[0].TestID, Choice: "maybe",
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid choice accepted: %d", code)
	}
}

func TestUnknownRoutes(t *testing.T) {
	c := newClient(t)
	if code := c.do("GET", "/api/v1/videos/ghost", nil, nil); code != http.StatusNotFound {
		t.Fatalf("ghost video: %d", code)
	}
	if code := c.do("GET", "/api/v1/sessions/ghost/tests", nil, nil); code != http.StatusNotFound {
		t.Fatalf("ghost session: %d", code)
	}
	if code := c.do("GET", "/api/v1/campaigns/ghost/results", nil, nil); code != http.StatusNotFound {
		t.Fatalf("ghost campaign: %d", code)
	}
	if code := c.do("POST", "/api/v1/sessions/ghost/responses", ResponseBody{TestID: "x"}, nil); code != http.StatusNotFound {
		t.Fatalf("ghost session response: %d", code)
	}
}

func TestUnknownTestRejected(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 1)
	jr := join(c, id, "w")
	code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{TestID: "nope", SubmittedMs: 100}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown test accepted: %d", code)
	}
}
