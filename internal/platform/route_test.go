package platform

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// routeMethods are the methods every row is tried with: its own, HEAD and
// each wrong one.
var routeMethods = []string{"GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS", "CONNECT", "get"}

// echoRoute is the stub both sides of the differential serve a matched
// request with: the pattern it matched and the {id} the handler would get.
func echoRoute(w http.ResponseWriter, pattern, id string) {
	fmt.Fprintf(w, "%s id=%q\n", pattern, id)
}

// referenceMux is net/http's ServeMux with the table's patterns.
func referenceMux() http.Handler {
	mux := http.NewServeMux()
	for i := range routes {
		pattern := routes[i].method + " " + routes[i].pattern
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			echoRoute(w, pattern, r.PathValue("id"))
		})
	}
	return mux
}

// tableRouter is the API handler's routing with the same stub behind it.
func tableRouter() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if i, id := routeRequest(w, r); i >= 0 {
			echoRoute(w, routes[i].method+" "+routes[i].pattern, id)
		}
	})
}

// readRequest parses a request line as a server would receive it; false
// when net/http would refuse it before any handler.
func readRequest(method, target string) (*http.Request, bool) {
	raw := method + " " + target + " HTTP/1.1\r\nHost: eyeorg.test\r\n\r\n"
	r, err := http.ReadRequest(bufio.NewReader(strings.NewReader(raw)))
	return r, err == nil
}

// routeSeeds are the requests the differential starts from.
func routeSeeds() [][2]string {
	var seeds [][2]string
	for i := range routes {
		p := strings.Replace(routes[i].pattern, "{id}", "x1", 1)
		for _, m := range routeMethods {
			seeds = append(seeds, [2]string{m, p})
		}
	}
	for _, p := range []string{
		"//api/v1/sessions",
		"/api/v1//videos/x1",
		"/api/v1/sessions/x1//tests",
		"/api/v1/./videos/x1",
		"/api/v1/videos/./x1",
		"/api/v1/nope/../videos/x1",
		"/api/v1/campaigns/../../metrics",
		"/../api/v1/sessions",
		"/api/v1/videos/v%31",
		"/api/v1/sessions/a%2Fb/tests",
		"/api/v1/%73essions/x1/tests",
		"/api/v1/videos/%2F",
		"/api/v1/videos/%zz",
		"/api/v1/videos/",
		"/api/v1/videos/x1/",
		"/api/v1/sessions//tests",
		"/api/v1/campaigns/x1/results/",
		"/api/v1/campaigns/",
		"/metrics",
		"/metrics/",
		"/metrics?format=text",
		"/api/v1/campaigns/x1/analytics?lo=10&hi=90",
		"/api/v1//campaigns/x1/analytics?lo=10",
		"/",
		"/api/v1/videos/x1/flag/extra",
		"http://eyeorg.test/api/v1/videos/x1",
		"http://eyeorg.test",
		"*",
	} {
		for _, m := range []string{"GET", "POST", "CONNECT"} {
			seeds = append(seeds, [2]string{m, p})
		}
	}
	seeds = append(seeds, [2]string{"OPTIONS", "*"}, [2]string{"CONNECT", "eyeorg.test:443"})
	return seeds
}

// FuzzRouteDifferential holds the table's router to ServeMux: for any
// method and request target, the status, Allow, Location, Content-Type,
// Connection and body are the same, matched requests included (the stub
// echoes the pattern and {id}).
func FuzzRouteDifferential(f *testing.F) {
	for _, s := range routeSeeds() {
		f.Add(s[0], s[1])
	}
	ref, got := referenceMux(), tableRouter()
	f.Fuzz(func(t *testing.T, method, target string) {
		r1, ok := readRequest(method, target)
		if !ok {
			return
		}
		r2, _ := readRequest(method, target)
		want, have := httptest.NewRecorder(), httptest.NewRecorder()
		ref.ServeHTTP(want, r1)
		got.ServeHTTP(have, r2)
		if have.Code != want.Code {
			t.Fatalf("%s %q: status %d, ServeMux %d", method, target, have.Code, want.Code)
		}
		for _, h := range []string{"Allow", "Location", "Content-Type", "Connection"} {
			if have.Header().Get(h) != want.Header().Get(h) {
				t.Fatalf("%s %q: %s %q, ServeMux %q", method, target, h, have.Header().Get(h), want.Header().Get(h))
			}
		}
		if have.Body.String() != want.Body.String() {
			t.Fatalf("%s %q: body %q, ServeMux %q", method, target, have.Body.String(), want.Body.String())
		}
	})
}

// TestRoute pins what the matcher makes of a request: the endpoint by
// its /metrics name and the {id} its handler receives, percent-decoded,
// for a served request; a 405 for a known path with another method; and
// a 301 or 404 for a path no route has.
func TestRoute(t *testing.T) {
	for _, c := range []struct {
		method, path string
		endpoint, id string
		status       int // the matcher's own answer; 0 when it serves
	}{
		{"POST", "/api/v1/campaigns", "create_campaign", "", 0},
		{"POST", "/api/v1/campaigns/c1/videos", "add_video", "c1", 0},
		{"GET", "/api/v1/campaigns/c1/results", "results", "c1", 0},
		{"HEAD", "/api/v1/campaigns/c1/analytics", "analytics", "c1", 0},
		{"POST", "/api/v1/sessions", "join", "", 0},
		{"GET", "/api/v1/sessions/sa.1/tests", "tests", "sa.1", 0},
		{"GET", "/api/v1/videos/v%31", "video", "v1", 0},
		{"POST", "/api/v1/videos/v1/flag", "flag", "v1", 0},
		{"POST", "/api/v1/sessions/sa.1%2Fx/events", "events", "sa.1/x", 0},
		{"POST", "/api/v1/sessions/s1/responses", "response", "s1", 0},
		{"GET", "/metrics", "metrics", "", 0},
		{"GET", "/api/v1/sessions", "", "", http.StatusMethodNotAllowed},
		{"DELETE", "/api/v1/videos/v1", "", "", http.StatusMethodNotAllowed},
		{"CONNECT", "/api/v1/sessions//tests", "", "", http.StatusMethodNotAllowed},
		{"POST", "/api/v1//sessions", "", "", http.StatusMovedPermanently},
		{"GET", "/api/v1/videos/./v1", "", "", http.StatusMovedPermanently},
		{"GET", "/api/v1/videos/", "", "", http.StatusNotFound},
		{"GET", "/api/v1/videos/v1/", "", "", http.StatusNotFound},
		{"GET", "/api/v2/videos/v1", "", "", http.StatusNotFound},
	} {
		r, ok := readRequest(c.method, c.path)
		if !ok {
			t.Fatalf("%s %s: not a request", c.method, c.path)
		}
		rec := httptest.NewRecorder()
		i, id := routeRequest(rec, r)
		endpoint, status := "", 0
		if i >= 0 {
			endpoint = routes[i].endpoint
		} else {
			status = rec.Code
		}
		if endpoint != c.endpoint || id != c.id || status != c.status {
			t.Errorf("%s %s: %q, %q, status %d; want %q, %q, %d", c.method, c.path, endpoint, id, status, c.endpoint, c.id, c.status)
		}
	}
}

// TestRouteAnswers drives the real handler: an escaped ID reaches the
// handler decoded, HEAD is served by a GET route, and the handler's own
// refusals (301, 405, 404) never reach instrument — /metrics counts none
// of them.
func TestRouteAnswers(t *testing.T) {
	env := newFuzzEnv(t)
	h := env.handler
	scrape := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return runtimeRows.ReplaceAllString(rec.Body.String(), "$1 <runtime>")
	}
	before := scrape()
	for _, c := range []struct {
		method, target  string
		status          int
		allow, location string
		body            string
	}{
		{"DELETE", "/api/v1/videos/" + env.video, 405, "GET, HEAD", "", "Method Not Allowed\n"},
		{"GET", "/api/v1/sessions", 405, "POST", "", "Method Not Allowed\n"},
		{"HEAD", "/api/v1/campaigns", 405, "POST", "", "Method Not Allowed\n"},
		{"POST", "/api/v1//sessions", 301, "", "/api/v1/sessions", ""},
		{"GET", "/api/v1/./videos/" + env.video + "?x=1", 301, "", "/api/v1/videos/" + env.video + "?x=1", ""},
		{"GET", "/api/v1/nope", 404, "", "", "404 page not found\n"},
		{"GET", "/api/v1/videos/" + env.video + "/", 404, "", "", "404 page not found\n"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(c.method, c.target, nil))
		if rec.Code != c.status || rec.Header().Get("Allow") != c.allow || rec.Header().Get("Location") != c.location {
			t.Errorf("%s %s: %d Allow %q Location %q; want %d %q %q", c.method, c.target,
				rec.Code, rec.Header().Get("Allow"), rec.Header().Get("Location"), c.status, c.allow, c.location)
		}
		if c.body != "" && rec.Body.String() != c.body {
			t.Errorf("%s %s: body %q, want %q", c.method, c.target, rec.Body.String(), c.body)
		}
	}
	if after := scrape(); after != before {
		t.Fatalf("refusals changed /metrics:\n--- before ---\n%s--- after ---\n%s", before, after)
	}

	// The video ID with its first byte percent-encoded is the video; HEAD
	// is served by the GET route.
	escaped := "/api/v1/videos/" + fmt.Sprintf("%%%02X", env.video[0]) + env.video[1:]
	for _, method := range []string{"GET", "HEAD"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, escaped, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s %s: %d, want 200", method, escaped, rec.Code)
		}
	}
	// An escaped slash stays inside the ID: the handler looks up session
	// "<id>/x", which does not exist, and answers its own JSON 404.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/sessions/"+env.session+"%2Fx/tests", nil))
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), errNoSession.Error()) {
		t.Errorf("escaped slash in a session ID: %d %s", rec.Code, rec.Body.Bytes())
	}
	if got := metricValue(t, scrape(), `eyeorg_http_requests_total{endpoint="video",code="2xx"}`); got != "2" {
		t.Errorf("video 2xx = %s after one GET and one HEAD, want 2", got)
	}
}
