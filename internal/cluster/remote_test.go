package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// remoteNode is one eyeorg-server -node-id as the binary assembles it:
// a durable platform server wrapped by NewStandaloneNode, on a real
// listener.
type remoteNode struct {
	id, dir, addr string
	peers         map[string]string // shared peer directory: id → base URL
	srv           *platform.Server
	ts            *httptest.Server
}

func (n *remoteNode) base() string { return "http://" + n.addr }

// listen binds the node's address: a fresh loopback port the first
// time, the same one after a restart.
func (n *remoteNode) listen(t *testing.T) net.Listener {
	t.Helper()
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("node %s: %v", n.id, err)
	}
	n.addr = ln.Addr().String()
	return ln
}

// start opens the node's data directory and serves it on ln.
func (n *remoteNode) start(t *testing.T, ln net.Listener) {
	t.Helper()
	srv, err := platform.Open(platform.Options{DataDir: n.dir, IDTag: n.id + ".", SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("node %s: %v", n.id, err)
	}
	n.srv = srv
	node := NewStandaloneNode(n.id, n.base(), srv, func(id string) (string, bool) {
		b, ok := n.peers[id]
		return b, ok
	})
	n.ts = httptest.NewUnstartedServer(node.Handler())
	n.ts.Listener.Close()
	n.ts.Listener = ln
	n.ts.Start()
}

// stop is a node's death as its peers see it: the listener is gone and
// the journal is closed; only the data directory is left.
func (n *remoteNode) stop(t *testing.T) {
	t.Helper()
	n.ts.Close()
	if err := n.srv.Close(); err != nil {
		t.Fatalf("node %s: %v", n.id, err)
	}
}

// hc is an HTTP client against one base URL. follow=false surfaces
// redirects instead of following them.
type hc struct {
	t      *testing.T
	base   string
	client *http.Client
}

func newHC(t *testing.T, base string, follow bool) *hc {
	c := &http.Client{}
	if !follow {
		c.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	}
	return &hc{t: t, base: base, client: c}
}

// do sends one request; a transport error is returned as status 0.
func (c *hc) do(method, path string, body any, hdr map[string]string) (int, http.Header, []byte) {
	c.t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, got
}

func (c *hc) json(method, path string, body, out any) int {
	c.t.Helper()
	code, _, got := c.do(method, path, body, nil)
	if out != nil && code < 300 {
		if err := json.Unmarshal(got, out); err != nil {
			c.t.Fatalf("%s %s: %v in %s", method, path, err, got)
		}
	}
	return code
}

// session joins campaign and answers the whole assignment.
func (c *hc) session(campaign, worker string) platform.JoinResponse {
	c.t.Helper()
	jr := c.join(campaign, worker)
	c.answer(jr.Session, jr.Tests)
	return jr
}

// join joins campaign as worker.
func (c *hc) join(campaign, worker string) platform.JoinResponse {
	c.t.Helper()
	var jr platform.JoinResponse
	if code := c.json("POST", "/api/v1/sessions", platform.JoinRequest{
		Campaign: campaign,
		Worker:   platform.Worker{ID: worker, Gender: "f", Country: "VE", Source: "crowdflower"},
		Captcha:  "ok",
	}, &jr); code != http.StatusCreated {
		c.t.Fatalf("join %s: %d", campaign, code)
	}
	return jr
}

// answer sends each test's engagement events and answer for session.
func (c *hc) answer(session string, tests []platform.AssignedTest) {
	c.t.Helper()
	for _, tt := range tests {
		if code := c.json("POST", "/api/v1/sessions/"+session+"/events", platform.EventBatch{
			VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Seeks: 10, Plays: 1, WatchedFraction: 0.9,
		}, nil); code >= 300 {
			c.t.Fatalf("events for %s: %d", session, code)
		}
		if code := c.json("POST", "/api/v1/sessions/"+session+"/responses", platform.ResponseBody{
			TestID: tt.TestID, SliderMs: 1600, HelperMs: 1400, SubmittedMs: 1500, KeptOriginal: true,
		}, nil); code >= 300 {
			c.t.Fatalf("response for %s: %d", session, code)
		}
	}
}

// analyticsOf reads a campaign's /analytics participants by session.
func analyticsOf(t *testing.T, c *hc, campaign string) map[string]platform.ParticipantVerdict {
	t.Helper()
	var ar platform.AnalyticsResponse
	if code := c.json("GET", "/api/v1/campaigns/"+campaign+"/analytics", nil, &ar); code != http.StatusOK {
		t.Fatalf("analytics %s: %d", campaign, code)
	}
	out := map[string]platform.ParticipantVerdict{}
	for _, p := range ar.Participants {
		out[p.Session] = p
	}
	return out
}

func metricValue(t *testing.T, body []byte, series string) string {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest
		}
	}
	t.Fatalf("no series %q in:\n%s", series, body)
	return ""
}

// TestRemoteRouterOverStandaloneNodes drives the topology the binaries
// deploy — eyeorg-router (NewRemoteRouter) reverse-proxying or
// redirecting over HTTP to eyeorg-server -node-id processes
// (NewStandaloneNode over a durable server) — through campaign spread, a
// session, video delivery, a manual handoff with a session in flight
// across it, a node's death and its recovery. What the tier promises about
// a dead node is exactly what this pins: its campaigns are unavailable,
// nobody else's are, and it comes back byte-identical from its own data
// directory.
func TestRemoteRouterOverStandaloneNodes(t *testing.T) {
	for _, mode := range []string{"proxy", "redirect"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			// Every base is known before any node serves, as -peers needs.
			peers := map[string]string{}
			nodes := map[string]*remoteNode{}
			lns := map[string]net.Listener{}
			for _, id := range []string{"a", "b"} {
				nodes[id] = &remoteNode{id: id, dir: filepath.Join(dir, id), peers: peers}
				lns[id] = nodes[id].listen(t)
				peers[id] = nodes[id].base()
			}
			for id, n := range nodes {
				n.start(t, lns[id])
				t.Cleanup(func() { n.ts.Close(); n.srv.Close() })
			}
			rt, err := NewRemoteRouter(mode, NewRing([]string{"a", "b"}, 0), map[string]string{
				"a": nodes["a"].base() + "/", // the trailing slash an operator may type
				"b": nodes["b"].base(),
			})
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(rt.Handler())
			defer front.Close()
			rc := newHC(t, front.URL, true)
			rehops := func() string {
				_, _, body := rc.do("GET", "/metrics", nil, nil)
				return metricValue(t, body, "eyeorg_router_rehops_total")
			}

			// Creates spread over both nodes (two on a: one will move away),
			// each landing where the ring says and nowhere else.
			owned := map[string][]string{}
			for i := 0; i < 24 && (len(owned["a"]) < 2 || len(owned["b"]) == 0); i++ {
				var created platform.CreateCampaignResponse
				if code := rc.json("POST", "/api/v1/campaigns", platform.CreateCampaignRequest{Name: "t", Kind: "timeline"}, &created); code != http.StatusCreated {
					t.Fatalf("create: %d", code)
				}
				owner := rt.ring.Owner(created.ID)
				for id, n := range nodes {
					if has := slices.Contains(n.srv.CampaignIDs(), created.ID); has != (id == owner) {
						t.Fatalf("campaign %s (ring owner %s): present on %s = %v", created.ID, owner, id, has)
					}
				}
				owned[owner] = append(owned[owner], created.ID)
			}
			if len(owned["a"]) < 2 || len(owned["b"]) == 0 {
				t.Fatalf("24 creates never spread over both nodes: %v", owned)
			}

			// A full lifecycle per node through the router.
			sessions := map[string]platform.JoinResponse{}
			for _, id := range []string{owned["a"][0], owned["b"][0]} {
				for v := 0; v < 2; v++ {
					if code := rc.json("POST", "/api/v1/campaigns/"+id+"/videos", sampleVideoBytes(), nil); code != http.StatusCreated {
						t.Fatalf("add video to %s: %d", id, code)
					}
				}
				sessions[id] = rc.session(id, "w-"+id)
				if got := analyticsOf(t, rc, id); len(got) != 1 || !got[sessions[id].Session].Completed {
					t.Fatalf("campaign %s: session not completed through the router: %+v", id, got)
				}
			}
			moving := owned["a"][0]
			video := sessions[moving].Tests[0].VideoID
			if mode == "redirect" {
				// The router itself only points: 307 at the owner's base.
				code, hdr, _ := newHC(t, front.URL, false).do("GET", "/api/v1/videos/"+video, nil, nil)
				if want := nodes["a"].base() + "/api/v1/videos/" + video; code != http.StatusTemporaryRedirect || hdr.Get("Location") != want {
					t.Fatalf("redirect mode: %d Location %q, want 307 %q", code, hdr.Get("Location"), want)
				}
			}
			// Video delivery semantics survive the hop.
			code, hdr, full := rc.do("GET", "/api/v1/videos/"+video, nil, nil)
			if code != http.StatusOK || !bytes.Equal(full, sampleVideoBytes()) {
				t.Fatalf("video: %d, %d bytes", code, len(full))
			}
			etag := hdr.Get("ETag")
			if code, hdr, part := rc.do("GET", "/api/v1/videos/"+video, nil, map[string]string{"Range": "bytes=10-109"}); code != http.StatusPartialContent ||
				!bytes.Equal(part, full[10:110]) || hdr.Get("Content-Range") != fmt.Sprintf("bytes 10-109/%d", len(full)) {
				t.Fatalf("Range: %d, %d bytes, Content-Range %q", code, len(part), hdr.Get("Content-Range"))
			}
			if code, _, body := rc.do("GET", "/api/v1/videos/"+video, nil, map[string]string{"If-None-Match": etag}); code != http.StatusNotModified || len(body) != 0 {
				t.Fatalf("If-None-Match %s: %d with %d body bytes, want 304 and none", etag, code, len(body))
			}

			// A manual handoff a → b, the same Handoff + ImportCampaign
			// pair Cluster.MoveCampaign runs, with a session in flight
			// across it: joined and one test answered on a, the rest after
			// the move. The old owner's fence is followed over real HTTP.
			inflight := rc.join(moving, "w-in-flight")
			rc.answer(inflight.Session, inflight.Tests[:1])
			_, _, preMove := rc.do("GET", "/api/v1/campaigns/"+moving+"/results", nil, nil)
			state, err := nodes["a"].srv.Handoff(moving, "b")
			if err != nil {
				t.Fatal(err)
			}
			if err := nodes["b"].srv.ImportCampaign(state); err != nil {
				t.Fatal(err)
			}
			wantRehops := map[string][2]string{"proxy": {"1", "1"}, "redirect": {"0", "0"}}[mode]
			for i, want := range wantRehops {
				code, _, got := rc.do("GET", "/api/v1/campaigns/"+moving+"/results", nil, nil)
				if code != http.StatusOK || !bytes.Equal(got, preMove) {
					t.Fatalf("request %d after the handoff: %d\ngot:  %s\nwant: %s", i+1, code, got, preMove)
				}
				// Proxying, the router follows the fence once and pins the
				// new owner; redirecting, the client follows it every time.
				if got := rehops(); got != want {
					t.Fatalf("eyeorg_router_rehops_total after request %d = %s, want %s", i+1, got, want)
				}
			}
			// The session in flight finishes through the router on b, and b
			// serves what a server holding the fenced state would: a twin
			// importing the same document and taking the same answers.
			rc.answer(inflight.Session, inflight.Tests[1:])
			if got, ok := nodes["b"].srv.CampaignOf(inflight.Session); !ok || got != moving {
				t.Fatalf("session %s in flight across the move is not on b", inflight.Session)
			}
			if p := analyticsOf(t, rc, moving)[inflight.Session]; !p.Completed {
				t.Fatalf("session %s in flight across the move did not complete on b: %+v", inflight.Session, p)
			}
			twin := platform.NewServer()
			if err := twin.ImportCampaign(state); err != nil {
				t.Fatal(err)
			}
			twinTS := httptest.NewServer(twin.Handler())
			defer twinTS.Close()
			tc := newHC(t, twinTS.URL, false)
			tc.answer(inflight.Session, inflight.Tests[1:])
			_, _, want := tc.do("GET", "/api/v1/campaigns/"+moving+"/results", nil, nil)
			if _, _, got := rc.do("GET", "/api/v1/campaigns/"+moving+"/results", nil, nil); !bytes.Equal(got, want) {
				t.Fatalf("/results on b after the session in flight completed:\ngot:  %s\nwant: %s", got, want)
			}
			moved := rc.session(moving, "w-after-move")
			if got, ok := nodes["b"].srv.CampaignOf(moved.Session); !ok || got != moving {
				t.Fatalf("post-move session %s not on the new owner", moved.Session)
			}

			// Node b dies. Its campaigns — the imported one included — are
			// unavailable; node a's are not. Nothing fails over.
			onB := []string{owned["b"][0], moving}
			pre := map[string][2][]byte{}
			for _, id := range onB {
				_, _, res := rc.do("GET", "/api/v1/campaigns/"+id+"/results", nil, nil)
				_, _, ana := rc.do("GET", "/api/v1/campaigns/"+id+"/analytics", nil, nil)
				pre[id] = [2][]byte{res, ana}
			}
			nodes["b"].stop(t)
			for _, id := range onB {
				// Proxying, the router reports the dead upstream; redirecting,
				// the client's own connection to the node is refused.
				want := map[string]int{"proxy": http.StatusBadGateway, "redirect": 0}[mode]
				if code, _, _ := rc.do("GET", "/api/v1/campaigns/"+id+"/results", nil, nil); code != want {
					t.Fatalf("campaign %s with its node down: %d, want %d", id, code, want)
				}
			}
			survivor := owned["a"][1]
			if code := rc.json("POST", "/api/v1/campaigns/"+survivor+"/videos", sampleVideoBytes(), nil); code != http.StatusCreated {
				t.Fatalf("node a's campaign while b is down: add video %d", code)
			}
			rc.session(survivor, "w-while-b-down")

			// The node restarts over its data directory on its old address:
			// every acked judgment is back, byte for byte.
			nodes["b"].start(t, nodes["b"].listen(t))
			for _, id := range onB {
				code, _, res := rc.do("GET", "/api/v1/campaigns/"+id+"/results", nil, nil)
				if code != http.StatusOK || !bytes.Equal(res, pre[id][0]) {
					t.Fatalf("campaign %s /results after its node restarted: %d\ngot:  %s\nwant: %s", id, code, res, pre[id][0])
				}
				code, _, ana := rc.do("GET", "/api/v1/campaigns/"+id+"/analytics", nil, nil)
				if code != http.StatusOK || !bytes.Equal(ana, pre[id][1]) {
					t.Fatalf("campaign %s /analytics after its node restarted: %d\ngot:  %s\nwant: %s", id, code, ana, pre[id][1])
				}
			}
			rc.session(moving, "w-after-restart")
			_, _, body := rc.do("GET", "/metrics", nil, nil)
			if got := metricValue(t, body, "eyeorg_router_unroutable_total"); got != "0" {
				t.Fatalf("eyeorg_router_unroutable_total = %s, want 0", got)
			}
		})
	}
}
