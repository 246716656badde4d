package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// cc drives an http.Handler in-process (no listener).
type cc struct {
	t *testing.T
	h http.Handler
}

// wireBatch is a request body cc sends as an EYB1 batch.
type wireBatch []byte

func (c *cc) do(method, path string, body any, out any) (int, http.Header) {
	c.t.Helper()
	var buf bytes.Buffer
	switch b := body.(type) {
	case nil:
	case []byte:
		buf.Write(b)
	case wireBatch:
		buf.Write(b)
	default:
		if err := json.NewEncoder(&buf).Encode(b); err != nil {
			c.t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	if _, ok := body.(wireBatch); ok {
		req.Header.Set("Content-Type", wire.ContentType)
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	if out != nil {
		_ = json.NewDecoder(rec.Body).Decode(out)
	}
	return rec.Code, rec.Header()
}

func (c *cc) body(method, path string) (int, []byte) {
	c.t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// viaListener is a handler that sends each request on to the server
// listening at base, over a real connection, and copies back its reply:
// cc's helpers drive a listener through it.
func viaListener(t *testing.T, base string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequest(r.Method, base+r.URL.RequestURI(), r.Body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header, req.ContentLength = r.Header.Clone(), r.ContentLength
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		maps.Copy(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			t.Fatal(err)
		}
	})
}

func sampleVideoBytes() []byte {
	paints := []browsersim.PaintEvent{
		{T: 300 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
		{T: 1200 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 2, W: 30, H: 10}, Value: 2},
	}
	return video.Encode(webpeg.Render(paints, 3*time.Second, 10))
}

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if len(cfg.Nodes) == 0 {
		cfg.Nodes = []string{"a", "b", "c"}
	}
	cfg.Dir = t.TempDir()
	cfg.Node.SnapshotEvery = -1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// createCampaign makes a campaign through the router and returns its
// ID and owning node.
func createCampaign(t *testing.T, c *Cluster, rc *cc) (id, owner string) {
	t.Helper()
	var created platform.CreateCampaignResponse
	code, _ := rc.do("POST", "/api/v1/campaigns", platform.CreateCampaignRequest{Name: "t", Kind: "timeline"}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create campaign: %d", code)
	}
	c.router.mu.RLock()
	owner = c.router.campaigns[created.ID]
	c.router.mu.RUnlock()
	if owner == "" {
		t.Fatalf("router learned no owner for %s", created.ID)
	}
	if !owns(c.Node(owner), created.ID) {
		t.Fatalf("campaign %s not on its owner %s", created.ID, owner)
	}
	return created.ID, owner
}

// owns reports whether the node holds the campaign and has not handed
// it off.
func owns(n *Node, campaign string) bool {
	_, moved := n.srv.MovedTo(campaign)
	return !moved && slices.Contains(n.srv.CampaignIDs(), campaign)
}

func addVideos(t *testing.T, rc *cc, campaign string, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		var added platform.AddVideoResponse
		code, _ := rc.do("POST", "/api/v1/campaigns/"+campaign+"/videos", sampleVideoBytes(), &added)
		if code != http.StatusCreated {
			t.Fatalf("add video: %d", code)
		}
		ids = append(ids, added.ID)
	}
	return ids
}

func joinVia(t *testing.T, rc *cc, campaign, worker string) platform.JoinResponse {
	t.Helper()
	var jr platform.JoinResponse
	code, _ := rc.do("POST", "/api/v1/sessions", platform.JoinRequest{
		Campaign: campaign,
		Worker:   platform.Worker{ID: worker, Gender: "f", Country: "VE", Source: "crowdflower"},
		Captcha:  "ok",
	}, &jr)
	if code != http.StatusCreated {
		t.Fatalf("join %s: %d", campaign, code)
	}
	return jr
}

// completeVia answers a session's full assignment through the given
// handler; every POST must ack.
func completeVia(rc *cc, jr platform.JoinResponse) error {
	for _, tt := range jr.Tests {
		if code, _ := rc.do("POST", "/api/v1/sessions/"+jr.Session+"/events", engagement(tt), nil); code >= 300 {
			return fmt.Errorf("events for %s: %d", jr.Session, code)
		}
		if err := answer(rc, jr.Session, tt); err != nil {
			return err
		}
	}
	return nil
}

// completeWire answers a session's full assignment like completeVia,
// but sends all its engagement first, as one EYB1 batch.
func completeWire(rc *cc, jr platform.JoinResponse) error {
	var recs []wire.Record
	for _, tt := range jr.Tests {
		recs = platform.AppendWireRecords(recs, engagement(tt))
	}
	if code, _ := rc.do("POST", "/api/v1/sessions/"+jr.Session+"/events", wireBatch(wire.AppendBatch(nil, recs)), nil); code != http.StatusAccepted {
		return fmt.Errorf("EYB1 batch for %s: %d", jr.Session, code)
	}
	for _, tt := range jr.Tests {
		if err := answer(rc, jr.Session, tt); err != nil {
			return err
		}
	}
	return nil
}

func engagement(tt platform.AssignedTest) platform.EventBatch {
	return platform.EventBatch{VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Seeks: 10, Plays: 1, WatchedFraction: 0.9}
}

func answer(rc *cc, session string, tt platform.AssignedTest) error {
	if code, _ := rc.do("POST", "/api/v1/sessions/"+session+"/responses", platform.ResponseBody{
		TestID: tt.TestID, SliderMs: 1600, HelperMs: 1400, SubmittedMs: 1500, KeptOriginal: true,
	}, nil); code >= 300 {
		return fmt.Errorf("response for %s: %d", session, code)
	}
	return nil
}

// analyticsSessions fetches /analytics and indexes participant
// verdicts by session ID.
func analyticsSessions(t *testing.T, rc *cc, campaign string) map[string]platform.ParticipantVerdict {
	t.Helper()
	var ar platform.AnalyticsResponse
	code, _ := rc.do("GET", "/api/v1/campaigns/"+campaign+"/analytics", nil, &ar)
	if code != http.StatusOK {
		t.Fatalf("analytics %s: %d", campaign, code)
	}
	out := map[string]platform.ParticipantVerdict{}
	for _, p := range ar.Participants {
		out[p.Session] = p
	}
	return out
}

// TestClusterLifecycle: fsynced nodes behind the router, driven over a
// real listener. Campaigns are created until every node owns one, and
// one session on each node's campaign completes through the router —
// one of them sending its events as an EYB1 batch.
func TestClusterLifecycle(t *testing.T) {
	c := newTestCluster(t, Config{Node: platform.Options{Fsync: true}})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	rc := &cc{t: t, h: viaListener(t, ts.URL)}
	// One campaign per owner; the ring spreads router-minted IDs well
	// enough that all three nodes own one long before the cap.
	byOwner := map[string]string{}
	for i := 0; i < 24 && len(byOwner) < 3; i++ {
		id, owner := createCampaign(t, c, rc)
		if _, ok := byOwner[owner]; !ok {
			byOwner[owner] = id
		}
	}
	if len(byOwner) < 3 {
		t.Fatalf("24 campaigns landed on only %d of 3 nodes — ring not partitioning", len(byOwner))
	}
	for _, owner := range []string{"a", "b", "c"} {
		id := byOwner[owner]
		addVideos(t, rc, id, 2)
		jr := joinVia(t, rc, id, "w-"+id)
		complete := completeVia
		if owner == "b" {
			complete = completeWire
		}
		if err := complete(rc, jr); err != nil {
			t.Fatal(err)
		}
		got := analyticsSessions(t, rc, id)
		p, ok := got[jr.Session]
		if !ok || !p.Completed {
			t.Fatalf("campaign %s: session %s missing or incomplete via router: %+v", id, jr.Session, p)
		}
		// The video fetch routes by entity table / ID tag.
		code, _ := rc.body("GET", "/api/v1/videos/"+jr.Tests[0].VideoID)
		if code != http.StatusOK {
			t.Fatalf("video fetch via router: %d", code)
		}
	}
}

func TestMisroutedAfterHandoff(t *testing.T) {
	c := newTestCluster(t, Config{})
	rc := &cc{t: t, h: c.Handler()}
	id, owner := createCampaign(t, c, rc)
	addVideos(t, rc, id, 2)
	jr := joinVia(t, rc, id, "w-before")
	if err := completeVia(rc, jr); err != nil {
		t.Fatal(err)
	}
	// Pick any other node as the new owner.
	var target string
	for _, n := range []string{"a", "b", "c"} {
		if n != owner {
			target = n
			break
		}
	}
	_, preMove := rc.body("GET", "/api/v1/campaigns/"+id+"/results")
	if err := c.MoveCampaign(id, owner, target); err != nil {
		t.Fatal(err)
	}

	// Misrouted join straight at the OLD node: fenced 307 whose
	// Location names the new owner, and no session created there.
	old := &cc{t: t, h: c.Node(owner).Handler()}
	joinBody := platform.JoinRequest{
		Campaign: id,
		Worker:   platform.Worker{ID: "w-misrouted", Gender: "m", Country: "DE", Source: "microworkers"},
		Captcha:  "ok",
	}
	sessionsBefore := len(c.Node(owner).srv.CampaignIDs())
	code, hdr := old.do("POST", "/api/v1/sessions", joinBody, nil)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("misrouted join: got %d, want 307", code)
	}
	loc := hdr.Get("Location")
	if want := c.Node(target).Base + "/api/v1/sessions"; loc != want {
		t.Fatalf("redirect Location = %q, want %q", loc, want)
	}
	if got := len(c.Node(owner).srv.CampaignIDs()); got != sessionsBefore {
		t.Fatalf("misrouted join mutated the old owner")
	}
	// Following the redirect (client replays the same body at the new
	// owner) applies exactly once.
	newNode := &cc{t: t, h: c.Node(target).Handler()}
	var jr2 platform.JoinResponse
	if code, _ := newNode.do("POST", strings.TrimPrefix(loc, c.Node(target).Base), joinBody, &jr2); code != http.StatusCreated {
		t.Fatalf("replayed join at new owner: %d", code)
	}
	// Misrouted session-scoped POST (the pre-move session) also fences.
	if code, _ := old.do("POST", "/api/v1/sessions/"+jr.Session+"/events",
		platform.EventBatch{VideoID: jr.Tests[0].VideoID, Plays: 1}, nil); code != http.StatusTemporaryRedirect {
		t.Fatalf("misrouted events: got %d, want 307", code)
	}
	// Even bypassing the middleware, the journaled fence refuses the
	// mutation — the no-double-apply guard is in the apply functions.
	rawOld := &cc{t: t, h: c.Node(owner).srv.Handler()}
	if code, _ := rawOld.do("POST", "/api/v1/sessions", joinBody, nil); code != http.StatusConflict {
		t.Fatalf("fence bypass: got %d, want 409", code)
	}
	// The router serves the moved campaign seamlessly, state intact:
	// the pre-move session completed, the replayed join present.
	got := analyticsSessions(t, rc, id)
	if p, ok := got[jr.Session]; !ok || !p.Completed {
		t.Fatalf("pre-move session lost across handoff: %+v", p)
	}
	if _, ok := got[jr2.Session]; !ok {
		t.Fatalf("replayed join missing on new owner")
	}
	// Migration preserved /results byte-for-byte (before the new join).
	if err := completeVia(rc, jr2); err != nil {
		t.Fatal(err)
	}
	_, postMove := rc.body("GET", "/api/v1/campaigns/"+id+"/results")
	if bytes.Equal(preMove, postMove) {
		// postMove now includes jr2; they must differ — sanity check
		// that results reflect post-move writes at all.
		t.Fatalf("results unchanged after post-move session completed")
	}
}

// TestFenceChecksTheServedID: the node's fence reads the {id} the
// platform serves the request with, percent-decoded segment by segment.
// An escaped spelling of a moved session's or video's ID is fenced like
// the plain one; an escaped slash keeps the rest of the segment in the
// ID, so "<sid>%2Fx" names session "<sid>/x", which no node has: the
// platform answers 404, not the fence of <sid>'s campaign.
func TestFenceChecksTheServedID(t *testing.T) {
	c := newTestCluster(t, Config{})
	rc := &cc{t: t, h: c.Handler()}
	id, owner := createCampaign(t, c, rc)
	vid := addVideos(t, rc, id, 2)[0]
	sid := joinVia(t, rc, id, "w-escaped").Session
	target := "a"
	if owner == "a" {
		target = "b"
	}
	if err := c.MoveCampaign(id, owner, target); err != nil {
		t.Fatal(err)
	}
	escape := func(entity string) string { return fmt.Sprintf("%%%02X", entity[0]) + entity[1:] }
	old := &cc{t: t, h: c.Node(owner).Handler()}
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/api/v1/sessions/" + sid + "/tests", http.StatusTemporaryRedirect},
		{"/api/v1/sessions/" + escape(sid) + "/tests", http.StatusTemporaryRedirect},
		{"/api/v1/sessions/" + sid + "%2Fx/tests", http.StatusNotFound},
		{"/api/v1/videos/" + vid, http.StatusTemporaryRedirect},
		{"/api/v1/videos/" + escape(vid), http.StatusTemporaryRedirect},
		{"/api/v1/videos/" + vid + "%2Fx", http.StatusNotFound},
		{"/api/v1/campaigns/" + escape(id) + "/results", http.StatusTemporaryRedirect},
	} {
		if code, _ := old.body("GET", tc.path); code != tc.want {
			t.Errorf("GET %s at the old owner: %d, want %d", tc.path, code, tc.want)
		}
	}
	// Through the router the escaped slash is the same unknown session.
	if code, _ := rc.body("GET", "/api/v1/sessions/"+sid+"%2Fx/tests"); code != http.StatusNotFound {
		t.Errorf("escaped slash through the router: %d, want 404", code)
	}
	// A wrong method is the platform's 405 at the old owner and, forwarded
	// to the new one, through the router.
	for name, h := range map[string]*cc{"old owner": old, "router": rc} {
		if code, _ := h.body("DELETE", "/api/v1/sessions/"+sid+"/tests"); code != http.StatusMethodNotAllowed {
			t.Errorf("DELETE through the %s: %d, want 405", name, code)
		}
	}
}

// TestMoveCampaignMidFlight is the chaos test: concurrent sessions
// stream through the router while campaigns move between nodes under
// them, so every handoff's cut falls inside real traffic. Every session
// whose final judgment was acked at the router — before, during or
// after a move — must afterwards be present and completed on exactly
// one owner.
func TestMoveCampaignMidFlight(t *testing.T) {
	c := newTestCluster(t, Config{Node: platform.Options{Fsync: true}})
	rc := &cc{t: t, h: c.Handler()}
	members := []string{"a", "b", "c"}
	owner := map[string]string{}
	var all []string
	for i := 0; i < 4; i++ {
		id, o := createCampaign(t, c, rc)
		owner[id] = o
		all = append(all, id)
		addVideos(t, rc, id, 2)
	}

	type acked struct{ campaign, session string }
	var mu sync.Mutex
	var ok []acked
	stop := make(chan struct{})
	progress := make(chan struct{}) // one send per acked session, dropped when nobody waits
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lrc := &cc{t: t, h: c.Handler()}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := all[(g+i)%len(all)]
				var jr platform.JoinResponse
				code, _ := lrc.do("POST", "/api/v1/sessions", platform.JoinRequest{
					Campaign: id,
					Worker:   platform.Worker{ID: fmt.Sprintf("w%d-%d", g, i), Gender: "f", Country: "BR", Source: "crowdflower"},
					Captcha:  "ok",
				}, &jr)
				// Between the fence and the import the new owner does not
				// know the campaign yet and refuses (404): nothing acked,
				// nothing owed. The claim is about acked judgments only.
				if code != http.StatusCreated {
					continue
				}
				if completeVia(lrc, jr) == nil {
					mu.Lock()
					ok = append(ok, acked{campaign: id, session: jr.Session})
					mu.Unlock()
					select {
					case progress <- struct{}{}:
					default:
					}
				}
			}
		}(g)
	}
	// Move every campaign onto each of the other two nodes in turn
	// while the load runs (a node that fenced a campaign keeps the fenced
	// copy and refuses to import it again, so no campaign revisits).
	for round := 0; round < 2; round++ {
		for _, id := range all {
			// Pace the moves by the load, not the clock: sessions complete
			// between any two moves, so every move cuts through traffic.
			for n := 0; n < 2; n++ {
				select {
				case <-progress:
				case <-time.After(20 * time.Second):
					close(stop)
					wg.Wait()
					t.Fatal("load stopped completing sessions")
				}
			}
			from := owner[id]
			to := members[0]
			for i, m := range members {
				if m == from {
					to = members[(i+1)%len(members)]
				}
			}
			if err := c.MoveCampaign(id, from, to); err != nil {
				t.Errorf("move %s %s->%s: %v", id, from, to, err)
			}
			owner[id] = to
		}
	}
	close(stop)
	wg.Wait()

	if len(ok) == 0 {
		t.Fatal("no session fully acked — load generator broken")
	}
	for _, id := range all {
		var owners []string
		for _, m := range members {
			if owns(c.Node(m), id) {
				owners = append(owners, m)
			}
		}
		if len(owners) != 1 || owners[0] != owner[id] {
			t.Fatalf("campaign %s owned by %v, want exactly [%s]", id, owners, owner[id])
		}
	}
	byCampaign := map[string]map[string]platform.ParticipantVerdict{}
	for _, a := range ok {
		got, seen := byCampaign[a.campaign]
		if !seen {
			// Straight from the one owner, not through the router: the
			// session must be where the ownership check says it is.
			got = analyticsSessions(t, &cc{t: t, h: c.Node(owner[a.campaign]).Handler()}, a.campaign)
			byCampaign[a.campaign] = got
		}
		p, present := got[a.session]
		if !present {
			t.Fatalf("acked session %s (campaign %s) lost across a move", a.session, a.campaign)
		}
		if !p.Completed {
			t.Fatalf("acked session %s (campaign %s) present but incomplete after a move", a.session, a.campaign)
		}
	}
	for id := range byCampaign {
		if code, _ := rc.body("GET", "/api/v1/campaigns/"+id+"/results"); code != http.StatusOK {
			t.Fatalf("post-chaos results %s: %d", id, code)
		}
	}
}

// TestRouterRedirectMode: the router answers 307 with the owner's base
// and the client-side replay lands.
func TestRouterRedirectMode(t *testing.T) {
	c := newTestCluster(t, Config{RouterMode: "redirect"})
	rc := &cc{t: t, h: c.Handler()}
	// Campaign create is always proxied (the router mints the ID);
	// subsequent requests redirect.
	id, owner := createCampaign(t, c, rc)
	code, hdr := rc.do("GET", "/api/v1/campaigns/"+id+"/analytics", nil, nil)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("redirect mode: got %d, want 307", code)
	}
	want := c.Node(owner).Base + "/api/v1/campaigns/" + id + "/analytics"
	if hdr.Get("Location") != want {
		t.Fatalf("Location = %q, want %q", hdr.Get("Location"), want)
	}
	node := &cc{t: t, h: c.Node(owner).Handler()}
	if code, _ := node.do("GET", "/api/v1/campaigns/"+id+"/analytics", nil, nil); code != http.StatusOK {
		t.Fatalf("follow to node: %d", code)
	}
}

// TestRouterMetrics: the router's registry renders its own rows.
func TestRouterMetrics(t *testing.T) {
	c := newTestCluster(t, Config{})
	rc := &cc{t: t, h: c.Handler()}
	id, _ := createCampaign(t, c, rc)
	addVideos(t, rc, id, 1)
	code, body := rc.body("GET", "/metrics")
	if code != http.StatusOK {
		t.Fatalf("router metrics: %d", code)
	}
	for _, want := range []string{
		"eyeorg_router_requests_total",
		"eyeorg_router_rehops_total 0",
		"eyeorg_router_unroutable_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("router /metrics missing %q:\n%s", want, body)
		}
	}
	// Node registries carry the cluster ownership rows.
	nodeCode, nodeBody := (&cc{t: t, h: c.Node("a").srv.Metrics().Handler()}).body("GET", "/")
	if nodeCode != http.StatusOK {
		t.Fatalf("node metrics: %d", nodeCode)
	}
	if !strings.Contains(string(nodeBody), `eyeorg_cluster_campaigns_owned{node="a"}`) {
		t.Fatalf("node /metrics missing cluster ownership row:\n%s", nodeBody)
	}
}
