// Fuzz targets for the HTTP JSON bodies of the ingest endpoints. The
// platform faces the open internet in the paper's deployment, so no
// body — however malformed — may panic a handler, produce a 5xx, or
// answer with something other than JSON. Each target drives the real
// handler stack against a pre-seeded in-memory server. FuzzImportCampaign
// holds the campaign-import document to the same standard.
package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
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

// FuzzImportCampaign: an import document arrives from another node, so
// no bytes may panic ImportCampaign, and a document it refuses leaves
// every index empty, as it found them. The section of one it accepts can
// be written again, and its /results and /analytics answer without a 5xx.
func FuzzImportCampaign(f *testing.F) {
	// The live export carries a video, a completed session in the arena
	// and a session in flight.
	src := newFuzzEnv(f)
	for k := 0; k < TestsPerSession; k++ {
		test := fmt.Sprintf("%s-t%d", src.session, k)
		if k == TestsPerSession-1 {
			test = src.session + "-control"
		}
		body := []byte(`{"test_id":"` + test + `","slider_ms":1400,"submitted_ms":1400,"kept_original":true}`)
		if rec := src.do("POST", "/api/v1/sessions/"+src.session+"/responses", body); rec.Code != http.StatusAccepted {
			f.Fatalf("answer %s: %d %s", test, rec.Code, rec.Body.Bytes())
		}
	}
	if rec := src.do("POST", "/api/v1/sessions", joinSeeds(src.campaign)[0]); rec.Code != http.StatusCreated {
		f.Fatalf("second join: %d %s", rec.Code, rec.Body.Bytes())
	}
	state, err := src.srv.Handoff(src.campaign, "b")
	if err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "parent_v3_export.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(state)
	f.Add(v3)
	f.Fuzz(func(t *testing.T, doc []byte) {
		dst := NewServer()
		if err := dst.ImportCampaign(doc); err != nil {
			if n := dst.campaigns.Len() + dst.sessions.Len() + dst.videos.Len(); n != 0 || dst.joined.Load() != 0 || dst.nextID.Load() != 0 {
				t.Fatalf("refused import (%v) left %d index entries", err, n)
			}
			return
		}
		var ex campaignExport
		if err := json.Unmarshal(doc, &ex); err != nil {
			t.Fatalf("an accepted document does not decode: %v", err)
		}
		c, _ := dst.campaigns.Get(ex.Campaign.ID)
		if _, err := dst.section(c); err != nil {
			t.Fatalf("the accepted campaign's section cannot be written: %v", err)
		}
		for _, view := range []string{"/results", "/analytics"} {
			rec := httptest.NewRecorder()
			dst.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/campaigns/"+url.PathEscape(ex.Campaign.ID)+view, nil))
			if rec.Code >= 500 {
				t.Fatalf("%s of the imported campaign answered %d: %s", view, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
