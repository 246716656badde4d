package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/telemetry"
)

// RouterIDTag is the tag router-minted campaign IDs carry ("cr.17"),
// distinct from every node tag so no node's bumpID counts them.
const RouterIDTag = "r."

// maxProxyBody caps a buffered request body in proxy mode — one byte
// over the platform's own video-upload cap, so the node still answers
// the canonical 413 for an at-the-limit upload.
const maxProxyBody = 64<<20 + 2

// maxRehops bounds how many fencing 307s one proxied request follows —
// a handoff in flight moves a campaign once, so more than a few hops
// means the tables are cyclic/corrupt and erroring beats spinning.
const maxRehops = 4

// Router is the cluster's thin entry point. It maps every request to
// the node owning the targeted campaign — consistent hash for fresh
// campaigns, learned tables plus handoff overrides after that — and
// either proxies the request (in-process dispatch, following fencing
// 307s internally) or answers a redirect for the client to follow.
//
// The router holds no campaign state of its own: everything it knows
// it learned from responses (which node answered a create/join) or was
// told by the Cluster (handoff overrides). Restarting it loses only
// warm routing; requests re-resolve through the ring and node fences.
type Router struct {
	mode string // "proxy" | "redirect"

	ring    *Ring              // immutable
	targets map[string]*target // fixed at construction

	mu        sync.RWMutex
	campaigns map[string]string // campaign → owning node (learned + overrides)
	sessions  map[string]routeRef
	videos    map[string]routeRef

	nextID atomic.Int64 // router-minted campaign counter

	reg        *telemetry.Registry
	routed     map[string]*telemetry.Counter // per-node proxied/redirected requests
	rehops     *telemetry.Counter
	unroutable *telemetry.Counter
}

// target is one node as the router sees it.
type target struct {
	id   string
	base string
	h    http.Handler
}

type routeRef struct{ node, campaign string }

// NewRouter builds a router over the given in-process nodes. mode is
// "proxy" (dispatch in-process / server-side, following fence
// redirects) or "redirect" (answer 307 and let the client re-send to
// the node).
func NewRouter(mode string, ring *Ring, nodes []*Node) (*Router, error) {
	targets := make([]*target, 0, len(nodes))
	for _, n := range nodes {
		targets = append(targets, &target{id: n.ID, base: n.Base, h: n.Handler()})
	}
	return newRouter(mode, ring, targets)
}

// NewRemoteRouter builds a router over out-of-process nodes, given
// their advertised base URLs (the standalone eyeorg-router binary).
// In proxy mode requests are reverse-proxied over HTTP; in redirect
// mode clients are 307'd at the base URLs directly.
func NewRemoteRouter(mode string, ring *Ring, members map[string]string) (*Router, error) {
	targets := make([]*target, 0, len(members))
	for id, base := range members {
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %s has invalid base URL %q", id, base)
		}
		targets = append(targets, &target{
			id:   id,
			base: strings.TrimSuffix(base, "/"),
			h:    httputil.NewSingleHostReverseProxy(u),
		})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })
	return newRouter(mode, ring, targets)
}

func newRouter(mode string, ring *Ring, targets []*target) (*Router, error) {
	if mode != "proxy" && mode != "redirect" {
		return nil, fmt.Errorf("cluster: unknown router mode %q (want proxy or redirect)", mode)
	}
	rt := &Router{
		mode:      mode,
		ring:      ring,
		targets:   map[string]*target{},
		campaigns: map[string]string{},
		sessions:  map[string]routeRef{},
		videos:    map[string]routeRef{},
		reg:       telemetry.NewRegistry(),
	}
	rt.routed = map[string]*telemetry.Counter{}
	rt.reg.Help("eyeorg_router_requests_total", "Requests the router resolved, by destination node.")
	for _, t := range targets {
		rt.targets[t.id] = t
		rt.routed[t.id] = rt.reg.Counter("eyeorg_router_requests_total", `node="`+t.id+`"`)
	}
	rt.reg.Help("eyeorg_router_rehops_total", "Fencing 307s the router followed while proxying.")
	rt.rehops = rt.reg.Counter("eyeorg_router_rehops_total", "")
	rt.reg.Help("eyeorg_router_unroutable_total", "Requests the router could not map to a node.")
	rt.unroutable = rt.reg.Counter("eyeorg_router_unroutable_total", "")
	return rt, nil
}

// Metrics returns the router's own telemetry registry.
func (rt *Router) Metrics() *telemetry.Registry { return rt.reg }

// Override pins a campaign to a node — the Cluster calls it after a
// handoff so every subsequent request routes to the new owner without
// bouncing off the old one's fence. The table keeps its own copy of the
// ID: a fence rehop passes a substring of the request path, which would
// otherwise keep that request line alive for the router's lifetime.
func (rt *Router) Override(campaign, nodeID string) {
	campaign = strings.Clone(campaign)
	rt.mu.Lock()
	rt.campaigns[campaign] = nodeID
	rt.mu.Unlock()
}

// Handler returns the router's http.Handler: /metrics from its own
// registry, everything under /api/v1/ routed to a node.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", rt.reg.Handler())
	mux.HandleFunc("POST /api/v1/campaigns", rt.handleCreateCampaign)
	mux.HandleFunc("/api/v1/", rt.handleRouted)
	return mux
}

// handleCreateCampaign is the one route the router rewrites: it mints
// the campaign ID itself (under its own tag) so consistent-hash
// ownership is decided BEFORE the create lands anywhere, then injects
// the ID into the body and dispatches to the owner.
func (rt *Router) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	r.Body.Close()
	if err != nil {
		http.Error(w, "reading body", http.StatusBadRequest)
		return
	}
	var req platform.CreateCampaignRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "campaign create body must be JSON", http.StatusBadRequest)
		return
	}
	if req.ID == "" {
		req.ID = "c" + RouterIDTag + strconv.FormatInt(rt.nextID.Add(1), 10)
	}
	owner := rt.ring.Owner(req.ID)
	if owner == "" {
		rt.unroutable.Inc()
		http.Error(w, "no nodes", http.StatusServiceUnavailable)
		return
	}
	rewritten, err := json.Marshal(&req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Creates are proxied even in redirect mode: the minted ID lives in
	// the rewritten body, which a client-side redirect replay would lose.
	status := rt.dispatch(w, r, "create_campaign", owner, req.ID, rewritten, true)
	if status == http.StatusCreated {
		rt.Override(req.ID, owner)
	}
}

// handleRouted maps every other API request to the owning node.
func (rt *Router) handleRouted(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		var err error
		body, err = io.ReadAll(io.LimitReader(r.Body, maxProxyBody))
		r.Body.Close()
		if err != nil {
			http.Error(w, "reading body", http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	endpoint, id, _ := platform.Route(r.Method, r.URL.EscapedPath())
	node, campaign, ok := rt.resolve(endpoint, id, body)
	if !ok {
		rt.unroutable.Inc()
		http.Error(w, "no route: unknown entity or owner", http.StatusServiceUnavailable)
		return
	}
	rt.dispatch(w, r, endpoint, node, campaign, body, false)
}

// resolve maps a request, by the platform route and {id} its path
// names, to (node, campaign). A path named with the wrong method still
// goes to its owner, which answers 405; a path no route has maps to no
// node. The campaign may be "" when the request names an entity the
// router has no table entry for yet but whose ID tag names its minting
// node.
func (rt *Router) resolve(endpoint, id string, body []byte) (node, campaign string, ok bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	switch endpoint {
	case "add_video", "results", "analytics":
		campaign = id
		node = rt.campaignNodeLocked(campaign)
	case "join":
		var req struct {
			Campaign string `json:"campaign"`
		}
		_ = json.Unmarshal(body, &req)
		campaign = req.Campaign
		node = rt.campaignNodeLocked(campaign)
	case "tests", "events", "response":
		node, campaign = rt.entityNodeLocked(rt.sessions, id)
	case "video", "flag":
		node, campaign = rt.entityNodeLocked(rt.videos, id)
	}
	return node, campaign, node != ""
}

// campaignNodeLocked resolves a campaign to its owner: the
// learned/override table first, the minting node encoded in the ID
// tag next, the ring as the fresh-campaign fallback. Caller holds
// rt.mu.
func (rt *Router) campaignNodeLocked(campaign string) string {
	if campaign == "" {
		return ""
	}
	if n, ok := rt.campaigns[campaign]; ok {
		return n
	}
	if n := nodeOfID(campaign); n != "" && rt.targets[n] != nil {
		return n
	}
	return rt.ring.Owner(campaign)
}

// entityNodeLocked resolves a session/video to its node via the
// learned table, falling back to the node tag its ID carries. Caller
// holds rt.mu.
func (rt *Router) entityNodeLocked(table map[string]routeRef, id string) (node, campaign string) {
	if ref, ok := table[id]; ok {
		// A moved campaign's entities follow its override rather than
		// the node that answered their create.
		if n, ok := rt.campaigns[ref.campaign]; ok {
			return n, ref.campaign
		}
		return ref.node, ref.campaign
	}
	if n := nodeOfID(id); n != "" && rt.targets[n] != nil {
		return n, ""
	}
	return "", ""
}

// nodeOfID extracts the minting node from a tagged entity ID:
// "sa.17" → "a". Returns "" for untagged or router-tagged IDs.
func nodeOfID(id string) string {
	if len(id) < 2 {
		return ""
	}
	rest := id[1:]
	i := strings.IndexByte(rest, '.')
	if i <= 0 {
		return ""
	}
	node := rest[:i]
	if node == strings.TrimSuffix(RouterIDTag, ".") {
		return ""
	}
	return node
}

// dispatch sends the request to a node: proxied in-process (following
// fence 307s and learning from create/join responses) or answered as
// a client-side redirect. endpoint is the platform route the request
// names; forceProxy overrides redirect mode for the routes the router
// rewrites. Returns the response status.
func (rt *Router) dispatch(w http.ResponseWriter, r *http.Request, endpoint, nodeID, campaign string, body []byte, forceProxy bool) int {
	t := rt.targets[nodeID]
	if t == nil {
		rt.unroutable.Inc()
		http.Error(w, "unknown node "+nodeID, http.StatusServiceUnavailable)
		return http.StatusServiceUnavailable
	}
	if c := rt.routed[nodeID]; c != nil {
		c.Inc()
	}
	if rt.mode == "redirect" && !forceProxy {
		w.Header().Set("Location", t.base+r.URL.RequestURI())
		w.WriteHeader(http.StatusTemporaryRedirect)
		return http.StatusTemporaryRedirect
	}
	for hop := 0; ; hop++ {
		rec := &responseRecorder{}
		req := r.Clone(r.Context())
		if body != nil {
			req.Body = io.NopCloser(bytes.NewReader(body))
			req.ContentLength = int64(len(body))
		} else {
			req.Body = http.NoBody
			req.ContentLength = 0
		}
		t.h.ServeHTTP(rec, req)
		if rec.status == http.StatusTemporaryRedirect && hop < maxRehops {
			// A fence: the campaign moved. Follow server-side and pin
			// the new owner so the next request goes straight there.
			next := rt.nodeByBase(rec.header.Get("Location"))
			if next != nil {
				rt.rehops.Inc()
				if campaign != "" {
					rt.Override(campaign, next.id)
				}
				t = next
				continue
			}
		}
		rt.learn(endpoint, campaign, nodeID, rec)
		copyResponse(w, rec)
		return rec.status
	}
}

// nodeByBase maps a fence redirect's Location back to a target by its
// advertised base URL.
func (rt *Router) nodeByBase(location string) *target {
	for _, t := range rt.targets {
		if t.base != "" && strings.HasPrefix(location, t.base) {
			return t
		}
	}
	return nil
}

// learn updates the routing tables from a successful response: which
// node answered a join (session → node) or a video upload (video →
// node). An upload's campaign is a substring of its request path, so
// the video table stores a copy.
func (rt *Router) learn(endpoint, campaign, nodeID string, rec *responseRecorder) {
	if rec.status != http.StatusCreated {
		return
	}
	switch endpoint {
	case "join":
		var resp struct {
			Session string `json:"session"`
		}
		if json.Unmarshal(rec.buf.Bytes(), &resp) == nil && resp.Session != "" {
			rt.mu.Lock()
			rt.sessions[resp.Session] = routeRef{node: nodeID, campaign: campaign}
			rt.mu.Unlock()
		}
	case "add_video":
		var resp struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(rec.buf.Bytes(), &resp) == nil && resp.ID != "" {
			rt.mu.Lock()
			rt.videos[resp.ID] = routeRef{node: nodeID, campaign: strings.Clone(campaign)}
			rt.mu.Unlock()
		}
	}
}

// responseRecorder buffers a proxied response so the router can
// inspect the status (fence 307s, learnable 201s) before copying it to
// the client.
type responseRecorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *responseRecorder) Header() http.Header {
	if r.header == nil {
		r.header = make(http.Header)
	}
	return r.header
}

func (r *responseRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *responseRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(b)
}

// copyResponse writes a recorded response out to the real writer.
func copyResponse(w http.ResponseWriter, rec *responseRecorder) {
	h := w.Header()
	for k, vs := range rec.header {
		h[k] = vs
	}
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	_, _ = w.Write(rec.buf.Bytes())
}
