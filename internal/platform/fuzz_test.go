// Fuzz targets for the HTTP JSON bodies of the ingest endpoints. The
// platform faces the open internet in the paper's deployment, so no
// body — however malformed — may panic a handler, produce a 5xx, or
// answer with something other than JSON. Each target drives the real
// handler stack against a pre-seeded in-memory server.
package platform

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

type fuzzEnv struct {
	srv      *Server
	handler  http.Handler
	campaign string
	video    string
	session  string
}

// newFuzzEnv seeds one campaign, one video and one joined session on an
// in-memory server; iterations share it (state drift across inputs is
// exactly what a public endpoint sees).
func newFuzzEnv(tb testing.TB) *fuzzEnv {
	tb.Helper()
	srv := NewServer()
	env := &fuzzEnv{srv: srv, handler: srv.Handler()}
	rec := env.do("POST", "/api/v1/campaigns", []byte(`{"name":"fuzz","kind":"timeline"}`))
	var created CreateCampaignResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &created) != nil {
		tb.Fatalf("seed campaign: %d %s", rec.Code, rec.Body.Bytes())
	}
	env.campaign = created.ID
	rec = env.do("POST", "/api/v1/campaigns/"+env.campaign+"/videos", sampleVideoBytes())
	var added AddVideoResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &added) != nil {
		tb.Fatalf("seed video: %d %s", rec.Code, rec.Body.Bytes())
	}
	env.video = added.ID
	rec = env.do("POST", "/api/v1/sessions",
		[]byte(`{"campaign":"`+env.campaign+`","worker":{"id":"fz"},"captcha":"tok"}`))
	var jr JoinResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &jr) != nil {
		tb.Fatalf("seed session: %d %s", rec.Code, rec.Body.Bytes())
	}
	env.session = jr.Session
	return env
}

func (env *fuzzEnv) do(method, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	env.handler.ServeHTTP(rec, req)
	return rec
}

// checkSane is the shared oracle: never a 5xx, always a JSON body.
func checkSane(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code >= 500 {
		t.Fatalf("handler answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("handler answered non-JSON (status %d): %q", rec.Code, rec.Body.Bytes())
	}
}

// The seed corpora of the three participant bodies, around the IDs a
// seeded server minted. FuzzInPlaceJSONDifferential starts from the same.
func joinSeeds(campaign string) [][]byte {
	return [][]byte{
		[]byte(`{"campaign":"` + campaign + `","worker":{"id":"w1","gender":"f","country":"IT","source":"x"},"captcha":"tok"}`),
		[]byte(`{"campaign":"ghost","worker":{"id":"w"},"captcha":"t"}`),
		[]byte(`{"campaign":"` + campaign + `","worker":{"id":""},"captcha":"t"}`),
		[]byte(`{"captcha":"   "}`),
		[]byte(`{"unknown":"field"}`),
		[]byte(`{`),
		[]byte(`null`),
		{0xff, 0xfe},
	}
}

func eventsSeeds(video string) [][]byte {
	return [][]byte{
		[]byte(`{"video_id":"` + video + `","load_ms":900,"time_on_video_ms":4000,"plays":1,"watched_fraction":1}`),
		[]byte(`{"instruction_ms":12000}`),
		[]byte(`{"video_id":"ghost","seeks":-3,"out_of_focus_ms":-1e300}`),
		[]byte(`{"watched_fraction":1e308,"plays":2147483647}`),
		[]byte(`[]`),
		[]byte(`{"video_id":123}`),
		[]byte(``),
	}
}

func responseSeeds(session string) [][]byte {
	return [][]byte{
		[]byte(`{"test_id":"` + session + `-t0","slider_ms":1400,"submitted_ms":1400,"kept_original":true}`),
		[]byte(`{"test_id":"` + session + `-control","kept_original":true}`),
		[]byte(`{"test_id":"nope"}`),
		[]byte(`{"test_id":"` + session + `-t1","choice":"sideways"}`),
		[]byte(`{"choice":"left"}`),
		[]byte(`{"slider_ms":"high"}`),
		[]byte(`{}`),
	}
}

func FuzzJoinBody(f *testing.F) {
	env := newFuzzEnv(f)
	for _, seed := range joinSeeds(env.campaign) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSane(t, env.do("POST", "/api/v1/sessions", body))
	})
}

func FuzzEventsBody(f *testing.F) {
	env := newFuzzEnv(f)
	for _, seed := range eventsSeeds(env.video) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSane(t, env.do("POST", "/api/v1/sessions/"+env.session+"/events", body))
		// An unknown session must stay a clean 404 for the same bytes.
		checkSane(t, env.do("POST", "/api/v1/sessions/ghost/events", body))
	})
}

func FuzzResponseBody(f *testing.F) {
	env := newFuzzEnv(f)
	for _, seed := range responseSeeds(env.session) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSane(t, env.do("POST", "/api/v1/sessions/"+env.session+"/responses", body))
		checkSane(t, env.do("POST", "/api/v1/sessions/ghost/responses", body))
	})
}

func FuzzFlagBody(f *testing.F) {
	env := newFuzzEnv(f)
	f.Add([]byte(`{"worker":"w1"}`))
	f.Add([]byte(`{"worker":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"worker":"w","extra":true}`))
	f.Add([]byte(`42`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkSane(t, env.do("POST", "/api/v1/videos/"+env.video+"/flag", body))
		checkSane(t, env.do("POST", "/api/v1/videos/ghost/flag", body))
	})
}
