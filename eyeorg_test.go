// Tests of the public facade plus the repository's broadest integration
// test: a simulated crowd driving the Eyeorg web service over real HTTP,
// from campaign creation through video upload, CAPTCHA-gated sessions,
// engagement events and responses, to filtered results — the §3 loop
// end to end.
package eyeorg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/survey"
)

func TestFacadeCorpusAndCapture(t *testing.T) {
	pages := GenerateCorpus(1, 3, 1.0)
	if len(pages) != 3 {
		t.Fatalf("corpus = %d", len(pages))
	}
	cap, err := CaptureSite(pages[0], CaptureConfig{Seed: 1, Loads: 3})
	if err != nil {
		t.Fatal(err)
	}
	plt := ComputePLT(cap.Video, cap.Selected.OnLoad)
	if plt.OnLoad <= 0 || plt.SpeedIndex <= 0 {
		t.Fatalf("metrics implausible: %+v", plt)
	}
	// Codec round-trip through the public API.
	decoded, err := DecodeVideo(EncodeVideo(cap.Video))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Duration() != cap.Video.Duration() {
		t.Fatal("codec round-trip changed duration")
	}
}

func TestFacadeCampaignPipeline(t *testing.T) {
	pages := GenerateCorpus(2, 4, 0.75)
	campaign, err := BuildTimelineCampaign("facade", pages, CaptureConfig{Seed: 2, Loads: 3})
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunCampaign(campaign, CrowdFlower, 60)
	if err != nil {
		t.Fatal(err)
	}
	uplt := WisdomOfCrowd(TimelineByVideo(run.KeptRecords()))
	if len(uplt) == 0 {
		t.Fatal("no per-video UPLT")
	}
	row := run.Stats()
	if row.Participants != 60 || row.CostDollars <= 0 {
		t.Fatalf("stats row wrong: %+v", row)
	}
}

func TestFacadeBlockers(t *testing.T) {
	for _, b := range []*Blocker{AdBlock(), Ghostery(), UBlock()} {
		if b == nil || b.List.Len() == 0 {
			t.Fatal("blocker profile empty")
		}
	}
	if _, err := BlockerNamed("nope"); err == nil {
		t.Fatal("unknown blocker accepted")
	}
}

// --- the full-stack integration test ---

// apiClient drives the platform API over real HTTP.
type apiClient struct {
	t    *testing.T
	base string
}

func (c *apiClient) post(path string, body any, out any) int {
	c.t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case []byte:
		buf.Write(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			c.t.Fatal(err)
		}
	}
	resp, err := http.Post(c.base+path, "application/json", &buf)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func (c *apiClient) get(path string, out any) int {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

func TestEndToEndCrowdOverHTTP(t *testing.T) {
	// 1. Capture a real (simulated) corpus with webpeg.
	pages := GenerateAdCorpus(31, 3)
	captures, err := Captures(pages, CaptureConfig{Seed: 31, Loads: 3})
	if err != nil {
		t.Fatal(err)
	}

	// 2. Stand up the web service and create a campaign with the videos.
	srv := httptest.NewServer(NewPlatformHandler())
	defer srv.Close()
	api := &apiClient{t: t, base: srv.URL}

	var created struct {
		ID string `json:"id"`
	}
	if code := api.post("/api/v1/campaigns", map[string]string{"name": "e2e", "kind": "timeline"}, &created); code != http.StatusCreated {
		t.Fatalf("create campaign: %d", code)
	}
	videoIDs := map[string]int{} // platform video id -> capture index
	for i, cap := range captures {
		var added struct {
			ID string `json:"id"`
		}
		if code := api.post("/api/v1/campaigns/"+created.ID+"/videos", EncodeVideo(cap.Video), &added); code != http.StatusCreated {
			t.Fatalf("upload video: %d", code)
		}
		videoIDs[added.ID] = i
	}

	// 3. A simulated crowd takes the tests through the HTTP API: each
	// participant downloads their videos, answers with their perception
	// model, and uploads engagement traces.
	pop := crowd.NewPopulation(rng.New(31), crowd.PopulationConfig{Class: crowd.Paid, N: 30})
	completed := 0
	for pi, p := range pop {
		var joined struct {
			Session string `json:"session"`
			Tests   []struct {
				TestID  string `json:"test_id"`
				VideoID string `json:"video_id"`
				Control bool   `json:"control"`
			} `json:"tests"`
		}
		code := api.post("/api/v1/sessions", map[string]any{
			"campaign": created.ID,
			"worker":   map[string]string{"id": fmt.Sprintf("w-%03d", pi), "gender": p.Gender, "country": p.Country},
			"captcha":  "not-a-robot",
		}, &joined)
		if code != http.StatusCreated {
			t.Fatalf("join: %d", code)
		}
		api.post("/api/v1/sessions/"+joined.Session+"/events",
			map[string]any{"instruction_ms": p.InstructionTime().Milliseconds()}, nil)

		for _, tt := range joined.Tests {
			// Download and decode the video like a browser would.
			resp, err := http.Get(srv.URL + "/api/v1/videos/" + tt.VideoID)
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			_, _ = raw.ReadFrom(resp.Body)
			resp.Body.Close()
			v, err := DecodeVideo(raw.Bytes())
			if err != nil {
				t.Fatalf("video %s undecodable over HTTP: %v", tt.VideoID, err)
			}

			// Perceive and answer using the crowd model.
			capIdx := videoIDs[tt.VideoID]
			curves := metrics.Curves(v, nil)
			test := &survey.TimelineTest{VideoID: tt.VideoID, Video: v, Control: tt.Control}
			answer := p.AnswerTimeline(test, curves)

			api.post("/api/v1/sessions/"+joined.Session+"/events", map[string]any{
				"video_id":         tt.VideoID,
				"load_ms":          answer.Trace.LoadTime.Milliseconds(),
				"time_on_video_ms": answer.Trace.TimeOnVideo.Milliseconds(),
				"plays":            answer.Trace.Plays,
				"seeks":            answer.Trace.Seeks,
				"watched_fraction": answer.Trace.WatchedFraction,
				"out_of_focus_ms":  answer.Trace.OutOfFocus.Milliseconds(),
			}, nil)

			var done struct {
				SessionComplete bool `json:"session_complete"`
			}
			code := api.post("/api/v1/sessions/"+joined.Session+"/responses", map[string]any{
				"test_id":         tt.TestID,
				"slider_ms":       float64(answer.Slider.Milliseconds()),
				"helper_ms":       float64(answer.Helper.Milliseconds()),
				"submitted_ms":    float64(answer.Submitted.Milliseconds()),
				"accepted_helper": answer.AcceptedHelper,
				"kept_original":   !answer.AcceptedHelper,
			}, &done)
			if code != http.StatusAccepted {
				t.Fatalf("response rejected: %d", code)
			}
			if done.SessionComplete {
				completed++
			}
			_ = capIdx
		}
	}
	if completed != len(pop) {
		t.Fatalf("completed sessions = %d, want %d", completed, len(pop))
	}

	// 4. The results endpoint runs the filtering pipeline.
	var results struct {
		Participants int `json:"participants"`
		Kept         int `json:"kept"`
		PerVideo     map[string]struct {
			Responses int     `json:"responses"`
			MeanUPLT  float64 `json:"mean_uplt_s"`
		} `json:"per_video"`
	}
	if code := api.get("/api/v1/campaigns/"+created.ID+"/results", &results); code != http.StatusOK {
		t.Fatalf("results: %d", code)
	}
	if results.Participants != len(pop) {
		t.Fatalf("participants = %d, want %d", results.Participants, len(pop))
	}
	if results.Kept == 0 || results.Kept > results.Participants {
		t.Fatalf("kept = %d of %d, implausible", results.Kept, results.Participants)
	}
	if len(results.PerVideo) == 0 {
		t.Fatal("no per-video aggregates")
	}
	for id, ag := range results.PerVideo {
		if ag.Responses == 0 || ag.MeanUPLT <= 0 {
			t.Fatalf("video %s aggregate empty: %+v", id, ag)
		}
		// The crowd's mean UPLT should land inside the video timeline.
		idx := videoIDs[id]
		dur := captures[idx].Video.Duration().Seconds()
		if ag.MeanUPLT > dur {
			t.Fatalf("video %s mean UPLT %.2fs beyond video end %.2fs", id, ag.MeanUPLT, dur)
		}
	}
}
