// The API's route table and the matcher that reads it. Server.Handler
// serves from it, so the URL layout is written down once.
//
// Every answer the table gives on its own — a 301 to the cleaned path, a
// 405 with Allow, a 404 — is byte for byte what net/http's ServeMux
// answers with the same patterns registered (FuzzRouteDifferential holds
// the two together), and none of them reaches instrument: they are not
// counted in /metrics. A matched request costs no allocation unless its
// path carries a percent escape.
package platform

import (
	"net/http"
	"net/url"
	"path"
	"strings"
)

// route is one row of the table: the method and path shape it serves, the
// endpoint name /metrics and traces label it with, and its handler.
type route struct {
	method   string
	pattern  string // ServeMux syntax; "{id}" is the one wildcard a shape has
	endpoint string
	// handle is nil for GET /metrics, which is served from the registry
	// outside instrument: the scrape must answer even at the in-flight cap,
	// and its own latency would pollute the histograms it serves.
	handle func(*Server, *scratch, *http.Request)

	// Derived from pattern by init.
	segs  []string
	allow string // the Allow header of a 405
	// session marks the routes whose {id} is a session's: the per-worker
	// token bucket applies to them, since one session is one worker's.
	session bool
}

var routes = [...]route{
	{method: "POST", pattern: "/api/v1/campaigns", endpoint: "create_campaign", handle: (*Server).handleCreateCampaign},
	{method: "POST", pattern: "/api/v1/campaigns/{id}/videos", endpoint: "add_video", handle: (*Server).handleAddVideo},
	{method: "GET", pattern: "/api/v1/campaigns/{id}/results", endpoint: "results", handle: (*Server).handleResults},
	{method: "GET", pattern: "/api/v1/campaigns/{id}/analytics", endpoint: "analytics", handle: (*Server).handleAnalytics},
	{method: "POST", pattern: "/api/v1/sessions", endpoint: "join", handle: (*Server).handleJoin},
	{method: "GET", pattern: "/api/v1/sessions/{id}/tests", endpoint: "tests", handle: (*Server).handleTests},
	{method: "GET", pattern: "/api/v1/videos/{id}", endpoint: "video", handle: (*Server).handleGetVideo},
	{method: "POST", pattern: "/api/v1/videos/{id}/flag", endpoint: "flag", handle: (*Server).handleFlag},
	{method: "POST", pattern: "/api/v1/sessions/{id}/events", endpoint: "events", handle: (*Server).handleEvents},
	{method: "POST", pattern: "/api/v1/sessions/{id}/responses", endpoint: "response", handle: (*Server).handleResponse},
	{method: "GET", pattern: "/metrics", endpoint: "metrics"},
}

// maxSegments is the most path segments a shape in the table has.
const maxSegments = 5

func init() {
	for i := range routes {
		rt := &routes[i]
		rt.segs = strings.Split(rt.pattern[1:], "/")
		rt.allow = rt.method
		if rt.method == http.MethodGet {
			rt.allow = "GET, HEAD"
		}
		rt.session = strings.HasPrefix(rt.pattern, "/api/v1/sessions/{id}/")
	}
}

// serves reports whether the route answers method: a GET route serves
// HEAD too.
func (rt *route) serves(method string) bool {
	return method == rt.method || method == http.MethodHead && rt.method == http.MethodGet
}

// routeRequest answers every request the table does not serve, as ServeMux
// would, and returns -1; for the rest it returns the serving route's row
// and its {id}. ServeMux's other refusal, the redirect from /tree to
// /tree/, needs a pattern ending in a slash, which the table has none of.
func routeRequest(w http.ResponseWriter, r *http.Request) (int, string) {
	if r.RequestURI == "*" {
		if r.ProtoAtLeast(1, 1) {
			w.Header().Set("Connection", "close")
		}
		w.WriteHeader(http.StatusBadRequest)
		return -1, ""
	}
	p := r.URL.EscapedPath()
	// A CONNECT request's path is matched as it came, like ServeMux does.
	if r.Method != http.MethodConnect {
		if clean := cleanPath(p); clean != p {
			u := url.URL{Path: clean, RawQuery: r.URL.RawQuery}
			http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
			return -1, ""
		}
	}
	i, id := lookup(p)
	switch {
	case i < 0:
		http.NotFound(w, r)
	case !routes[i].serves(r.Method):
		w.Header().Set("Allow", routes[i].allow)
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
	default:
		return i, id
	}
	return -1, ""
}

// lookup finds the row whose shape escapedPath has, whatever the method,
// and the path's {id} segment; -1 when none has it. No two shapes match
// one path, so the first match is the match.
func lookup(escapedPath string) (int, string) {
	var segs [maxSegments]string
	n := 0
	for rest := escapedPath; rest != ""; n++ {
		if n == maxSegments {
			return -1, ""
		}
		segs[n], rest = firstSegment(rest)
	}
	for i := range routes {
		if id, ok := routes[i].match(segs[:n]); ok {
			return i, id
		}
	}
	return -1, ""
}

// match compares decoded path segments with the route's shape. As in
// ServeMux, the wildcard takes any segment, an empty one included, but
// the trailing-slash marker "/".
func (rt *route) match(segs []string) (id string, ok bool) {
	if len(segs) != len(rt.segs) {
		return "", false
	}
	for k, want := range rt.segs {
		switch {
		case want == "{id}" && segs[k] != "/":
			id = segs[k]
		case segs[k] != want:
			return "", false
		}
	}
	return id, true
}

// firstSegment splits an escaped path into its first segment, decoded,
// and the rest, as ServeMux does: "/a/b" is "a" and "/b", and a path that
// is only a slash is the segment "/" (a trailing slash).
func firstSegment(p string) (seg, rest string) {
	if p == "/" {
		return "/", ""
	}
	p = p[1:]
	i := strings.IndexByte(p, '/')
	if i < 0 {
		i = len(p)
	}
	return pathUnescape(p[:i]), p[i:]
}

// pathUnescape decodes a path segment, or leaves it as it is when its
// escapes are malformed.
func pathUnescape(seg string) string {
	if u, err := url.PathUnescape(seg); err == nil {
		return u
	}
	return seg
}

// cleanPath is ServeMux's canonical form of a path: rooted, without "."
// or ".." elements or doubled slashes, a trailing slash kept.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		if len(p) == len(np)+1 && strings.HasPrefix(p, np) {
			np = p
		} else {
			np += "/"
		}
	}
	return np
}
