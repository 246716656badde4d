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

	"github.com/eyeorg/eyeorg/internal/platform/state"
)

func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{state.ErrNoCampaign, http.StatusNotFound},
		{state.ErrNoSession, http.StatusNotFound},
		{state.ErrNoVideo, http.StatusNotFound},
		{state.ErrDuplicateTest, http.StatusConflict},
		{state.ErrSessionDone, http.StatusConflict},
		{state.ErrUnknownTest, http.StatusBadRequest},
		{state.ErrBadChoice, http.StatusBadRequest},
		{fmt.Errorf("wrapped: %w", state.ErrNoSession), http.StatusNotFound},
		{fmt.Errorf("wrapped: %w", state.ErrSessionDone), http.StatusConflict},
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
	for i := 0; i < state.BanThreshold; i++ {
		c.do("POST", "/api/v1/videos/"+vids[0]+"/flag", map[string]string{"worker": fmt.Sprintf("f%d", i)}, nil)
	}
	if code := c.do("POST", "/api/v1/sessions", JoinRequest{
		Campaign: campaign, Worker: Worker{ID: "w"}, Captcha: "t",
	}, nil); code != http.StatusConflict {
		t.Fatalf("join all-banned campaign: %d, want 409", code)
	}
}

// TestOutOfRangeMillisecondsRefused: a JSON millisecond field whose count
// of nanoseconds does not fit in an int64 (time.Duration's range) is a
// 400 naming the field, on the events body and the response body alike,
// and nothing of it is journaled; a negative value that fits is still
// accepted. Go leaves the float-to-int conversion of such a value to the
// machine, so accepting it would store a platform-dependent duration.
// The record's row refuses it (the state package's test of the same name
// holds the rule); this holds the HTTP answer.
func TestOutOfRangeMillisecondsRefused(t *testing.T) {
	srv, err := Open(Options{DataDir: t.TempDir(), SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	env := &fuzzEnv{handler: srv.Handler()}
	campaign := seedDispatch(t, env.handler, 2)
	var jr JoinResponse
	dispatch(t, env.handler, "POST", "/api/v1/sessions", JoinRequest{Campaign: campaign, Worker: Worker{ID: "w-range"}, Captcha: "tok"}, &jr)
	tt := jr.Tests[0]
	if tt.Kind != "timeline" {
		t.Fatalf("first test is %s, want timeline", tt.Kind)
	}
	base := "/api/v1/sessions/" + jr.Session
	seq := srv.log.Seq()
	for _, ms := range []string{"9.3e12", "-9.3e12", "1e308"} {
		for _, field := range []string{"instruction_ms", "load_ms", "time_on_video_ms", "out_of_focus_ms"} {
			body := fmt.Sprintf(`{"video_id":%q,"load_ms":900,"time_on_video_ms":21000,%q:%s}`, tt.VideoID, field, ms)
			if field == "load_ms" || field == "time_on_video_ms" {
				body = fmt.Sprintf(`{"video_id":%q,%q:%s}`, tt.VideoID, field, ms)
			}
			rec := env.do("POST", base+"/events", []byte(body))
			if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte(field)) {
				t.Errorf("events with %s %s: %d %s, want 400 naming the field", field, ms, rec.Code, rec.Body.Bytes())
			}
		}
		body := fmt.Sprintf(`{"test_id":%q,"slider_ms":1400,"submitted_ms":%s,"kept_original":true}`, tt.TestID, ms)
		rec := env.do("POST", base+"/responses", []byte(body))
		if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte("submitted_ms")) {
			t.Errorf("response with submitted_ms %s: %d %s, want 400 naming the field", ms, rec.Code, rec.Body.Bytes())
		}
	}
	if got := srv.log.Seq(); got != seq {
		t.Fatalf("the refused bodies journaled %d records", got-seq)
	}

	// A negative duration that fits is a value, not a refusal.
	if rec := env.do("POST", base+"/events", []byte(fmt.Sprintf(`{"video_id":%q,"load_ms":-5,"time_on_video_ms":21000}`, tt.VideoID))); rec.Code != http.StatusAccepted {
		t.Errorf("events with load_ms -5: %d %s, want 202", rec.Code, rec.Body.Bytes())
	}
	if rec := env.do("POST", base+"/responses", []byte(fmt.Sprintf(`{"test_id":%q,"submitted_ms":-5,"kept_original":true}`, tt.TestID))); rec.Code != http.StatusAccepted {
		t.Errorf("response with submitted_ms -5: %d %s, want 202", rec.Code, rec.Body.Bytes())
	}
}
