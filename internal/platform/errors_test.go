// Error-path coverage: malformed bodies, unknown entities, and the
// statusFor error→HTTP mapping, pinned endpoint by endpoint so a
// refactor cannot silently change a rejection status.
package platform

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
)

func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{errNoCampaign, http.StatusNotFound},
		{errNoSession, http.StatusNotFound},
		{errNoVideo, http.StatusNotFound},
		{errDuplicateTest, http.StatusConflict},
		{errSessionDone, http.StatusConflict},
		{errUnknownTest, http.StatusBadRequest},
		{errBadChoice, http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", errNoSession), http.StatusNotFound},
		{fmt.Errorf("wrapped: %w", errSessionDone), http.StatusConflict},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestMalformedJSONBodies: every JSON-consuming endpoint must reject
// garbage, truncated documents and unknown fields with 400 — never 500,
// never a hang, never a partial mutation.
func TestMalformedJSONBodies(t *testing.T) {
	c := newClient(t)
	campaign, _ := setupCampaign(c, "timeline", 1)
	jr := join(c, campaign, "w-errors")
	bodies := map[string][]byte{
		"garbage":       []byte("}{ not json"),
		"truncated":     []byte(`{"name": "x"`),
		"unknown-field": []byte(`{"name":"x","kind":"timeline","bogus":true}`),
		"wrong-type":    []byte(`{"name":123,"kind":[]}`),
	}
	endpoints := []struct {
		name, method, path string
	}{
		{"create-campaign", "POST", "/api/v1/campaigns"},
		{"join", "POST", "/api/v1/sessions"},
		{"events", "POST", "/api/v1/sessions/" + jr.Session + "/events"},
		{"responses", "POST", "/api/v1/sessions/" + jr.Session + "/responses"},
		{"flag", "POST", "/api/v1/videos/v1/flag"},
	}
	for _, ep := range endpoints {
		for kind, body := range bodies {
			if kind == "unknown-field" && ep.name != "create-campaign" {
				continue // field set is per-endpoint; garbage cases cover the rest
			}
			t.Run(ep.name+"/"+kind, func(t *testing.T) {
				if code := c.do(ep.method, ep.path, body, nil); code != http.StatusBadRequest {
					t.Fatalf("%s with %s body: %d, want 400", ep.name, kind, code)
				}
			})
		}
	}
	// Malformed bodies must not have mutated anything: the session still
	// accepts its real answers.
	if code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/responses", ResponseBody{
		TestID: jr.Tests[0].TestID, SubmittedMs: 900, KeptOriginal: true,
	}, nil); code != http.StatusAccepted {
		t.Fatalf("valid response after malformed attempts: %d", code)
	}
}

// TestTrailingBytesRejected: a JSON body is one value and whitespace.
// Anything after the value — junk, or a second object whose judgment
// would be dropped in silence — is a 400 that mutates nothing, on all five
// JSON bodies, whether the body declares its length (the in-place
// decoders' input) or arrives chunked (readJSON's).
func TestTrailingBytesRejected(t *testing.T) {
	c := newClient(t)
	campaign, vids := setupCampaign(c, "timeline", 1)
	jr := join(c, campaign, "w-trailing")
	session := "/api/v1/sessions/" + jr.Session
	post := func(path string, body []byte, chunked bool) int {
		t.Helper()
		var rd io.Reader = bytes.NewReader(body)
		if chunked {
			rd = unsized(rd)
		}
		resp, err := http.Post(c.srv.URL+path, "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, chunked := range []bool{false, true} {
		for _, ep := range []struct {
			name, path, body string
			want             int
		}{
			{"campaign", "/api/v1/campaigns", `{"name":"x","kind":"timeline"}`, http.StatusCreated},
			{"join", "/api/v1/sessions", `{"campaign":"` + campaign + `","worker":{"id":"w"},"captcha":"t"}`, http.StatusCreated},
			{"events", session + "/events", `{"video_id":"` + vids[0] + `","plays":1}`, http.StatusAccepted},
			{"response", session + "/responses", `{"test_id":"` + jr.Tests[i].TestID + `","submitted_ms":900,"kept_original":true}`, http.StatusAccepted},
			{"flag", "/api/v1/videos/" + vids[0] + "/flag", `{"worker":"w` + fmt.Sprint(chunked) + `"}`, http.StatusOK},
		} {
			t.Run(fmt.Sprintf("%s/chunked=%t", ep.name, chunked), func(t *testing.T) {
				for _, tail := range []string{"junk", ep.body, " x", "\n{}", "]"} {
					if code := post(ep.path, []byte(ep.body+tail), chunked); code != http.StatusBadRequest {
						t.Errorf("body followed by %q: %d, want 400", tail, code)
					}
				}
				// Whitespace may follow, and nothing above was applied: the
				// response's test is still open.
				if code := post(ep.path, []byte(ep.body+" \r\n\t"), chunked); code != ep.want {
					t.Errorf("body followed by whitespace: %d, want %d", code, ep.want)
				}
			})
		}
	}
}

// unsized hides a body's length from net/http's client, which then sends
// it chunked.
func unsized(body io.Reader) io.Reader { return struct{ io.Reader }{body} }

// TestUnknownEntityStatuses pins 404s for ghosts across every endpoint
// that resolves an ID, including the new analytics route.
func TestUnknownEntityStatuses(t *testing.T) {
	c := newClient(t)
	campaign, _ := setupCampaign(c, "timeline", 1)
	cases := []struct {
		name, method, path string
		body               any
		want               int
	}{
		{"join-ghost-campaign", "POST", "/api/v1/sessions",
			JoinRequest{Campaign: "ghost", Worker: Worker{ID: "w"}, Captcha: "t"}, http.StatusNotFound},
		{"events-ghost-session", "POST", "/api/v1/sessions/ghost/events",
			EventBatch{VideoID: "v1", Plays: 1}, http.StatusNotFound},
		{"responses-ghost-session", "POST", "/api/v1/sessions/ghost/responses",
			ResponseBody{TestID: "t"}, http.StatusNotFound},
		{"tests-ghost-session", "GET", "/api/v1/sessions/ghost/tests", nil, http.StatusNotFound},
		{"ghost-video", "GET", "/api/v1/videos/ghost", nil, http.StatusNotFound},
		{"flag-ghost-video", "POST", "/api/v1/videos/ghost/flag",
			map[string]string{"worker": "w"}, http.StatusNotFound},
		{"results-ghost-campaign", "GET", "/api/v1/campaigns/ghost/results", nil, http.StatusNotFound},
		{"analytics-ghost-campaign", "GET", "/api/v1/campaigns/ghost/analytics", nil, http.StatusNotFound},
		{"video-into-ghost-campaign", "POST", "/api/v1/campaigns/ghost/videos",
			sampleVideoBytes(), http.StatusNotFound},
		{"flag-without-worker", "POST", "/api/v1/videos/v1/flag",
			map[string]string{}, http.StatusBadRequest},
		{"join-without-worker", "POST", "/api/v1/sessions",
			JoinRequest{Campaign: campaign, Captcha: "t"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := c.do(tc.method, tc.path, tc.body, nil); code != tc.want {
				t.Fatalf("%s: %d, want %d", tc.name, code, tc.want)
			}
		})
	}
}

// TestJoinEmptyCampaignConflicts: a campaign whose only video is banned
// has nothing to assign.
func TestJoinEmptyCampaignConflicts(t *testing.T) {
	c := newClient(t)
	var created CreateCampaignResponse
	c.do("POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "empty", Kind: "timeline"}, &created)
	if code := c.do("POST", "/api/v1/sessions", JoinRequest{
		Campaign: created.ID, Worker: Worker{ID: "w"}, Captcha: "t",
	}, nil); code != http.StatusConflict {
		t.Fatalf("join video-less campaign: %d, want 409", code)
	}
	campaign, vids := setupCampaign(c, "timeline", 1)
	for i := 0; i < BanThreshold; i++ {
		c.do("POST", "/api/v1/videos/"+vids[0]+"/flag", map[string]string{"worker": fmt.Sprintf("f%d", i)}, nil)
	}
	if code := c.do("POST", "/api/v1/sessions", JoinRequest{
		Campaign: campaign, Worker: Worker{ID: "w"}, Captcha: "t",
	}, nil); code != http.StatusConflict {
		t.Fatalf("join all-banned campaign: %d, want 409", code)
	}
}
