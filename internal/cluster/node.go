package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"

	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/store"
)

// Node is one cluster member: a durable platform server (the primary),
// the in-memory follower replica of its journal (hosted by its
// successor, promoted on failure), and the ownership middleware that
// fences handed-off campaigns with 307s before requests reach the
// platform.
//
// Node is its primary's replication target (platform.Options.Replicate):
// the primary's journal hands it every durability window, payloads
// included, under the store.Window contract — after the window is
// durable and strictly before the covered mutations ack. The node
// applies each record to the follower synchronously, so "acked by the
// primary" always implies "applied on the follower" — the invariant
// the kill-a-node chaos test pins.
type Node struct {
	// ID is the node's short name ("a", "b", ...); its platform mints
	// IDs under the tag ID+"." so every entity names its minting node.
	ID string
	// Base is the node's advertised URL, the prefix of fencing-redirect
	// Locations ("http://node-a" in-process, a real listener URL when
	// served by eyeorg-server).
	Base string

	srv *platform.Server // durable primary
	api http.Handler     // primary's platform handler

	// follower is the in-memory replica of THIS node's journal. It
	// lives in the node struct but belongs to the successor: on Kill
	// the successor adopts it and serves its campaigns.
	follower *platform.Server

	// directory resolves a node ID to its advertised base URL for
	// fencing redirects; set by the Cluster (or the server binary).
	directory func(nodeID string) (string, bool)

	// mu guards the capture buffer and the adopted set; WindowDurable
	// calls are already serialized by the store, so this lock only
	// orders them against handoff start/stop and adoption.
	mu        sync.Mutex
	capturing int
	captured  []shippedRec
	repErr    error
	adopted   []*adoptedServer
	// adoptedBy maps campaign ID → the adopted server answering for it.
	adoptedBy sync.Map
}

type shippedRec struct {
	seq     uint64
	payload []byte
}

// adoptedServer is a promoted follower this node serves campaigns from
// after adopting a dead peer's replica.
type adoptedServer struct {
	srv *platform.Server
	h   http.Handler
}

// NewStandaloneNode wraps an existing platform server in the cluster
// ownership middleware for a multi-process deployment (eyeorg-server
// -node-id): requests for handed-off campaigns answer 307 toward the
// peer the directory resolves, everything else reaches the platform.
// No follower is attached — cross-process window shipping is carried
// by the in-process Cluster only (see docs/OPERATIONS.md).
func NewStandaloneNode(id, base string, srv *platform.Server, directory func(nodeID string) (string, bool)) *Node {
	n := &Node{ID: id, Base: base, srv: srv, api: srv.Handler(), directory: directory}
	n.registerMetrics()
	return n
}

// Server returns the node's durable primary platform server.
func (n *Node) Server() *platform.Server { return n.srv }

// ReplicationError returns the first error a follower apply reported
// (nil in healthy operation). A non-nil value means the follower
// diverged and must not be promoted.
func (n *Node) ReplicationError() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.repErr
}

// WindowDurable implements store.CommitObserver for the primary's
// journal: capture for any in-flight handoff, then apply to the
// follower. Runs on the path that sealed the window, before the
// window's mutations ack.
func (n *Node) WindowDurable(w store.Window) {
	n.mu.Lock()
	if n.capturing > 0 {
		for i, rec := range w.Payloads {
			n.captured = append(n.captured, shippedRec{seq: w.First + uint64(i), payload: rec})
		}
	}
	f := n.follower
	n.mu.Unlock()
	if f == nil {
		return
	}
	for _, rec := range w.Payloads {
		if err := f.ApplyReplicated(rec); err != nil {
			n.mu.Lock()
			if n.repErr == nil {
				n.repErr = err
			}
			n.mu.Unlock()
		}
	}
}

// startCapture begins buffering shipped records for a handoff tail.
// Captures nest (concurrent handoffs of different campaigns share the
// buffer).
func (n *Node) startCapture() {
	n.mu.Lock()
	n.capturing++
	n.mu.Unlock()
}

// stopCapture ends one capture; the buffer is dropped when the last
// capture ends.
func (n *Node) stopCapture() {
	n.mu.Lock()
	if n.capturing--; n.capturing == 0 {
		n.captured = nil
	}
	n.mu.Unlock()
}

// capturedSince returns the captured record payloads with sequence >
// cut, in sequence order.
func (n *Node) capturedSince(cut uint64) [][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out [][]byte
	for _, rec := range n.captured {
		if rec.seq > cut {
			out = append(out, rec.payload)
		}
	}
	return out
}

// Adopt promotes a dead peer's follower replica: this node now answers
// for every campaign the replica holds (minus ones the dead node had
// already handed off).
func (n *Node) Adopt(rep *platform.Server) {
	as := &adoptedServer{srv: rep, h: rep.Handler()}
	n.mu.Lock()
	n.adopted = append(n.adopted, as)
	n.mu.Unlock()
	for _, c := range rep.CampaignIDs() {
		if _, moved := rep.MovedTo(c); !moved {
			n.adoptedBy.Store(c, as)
		}
	}
}

// adoptedFor returns the adopted server answering for campaign, if any.
func (n *Node) adoptedFor(campaign string) (*adoptedServer, bool) {
	v, ok := n.adoptedBy.Load(campaign)
	if !ok {
		return nil, false
	}
	return v.(*adoptedServer), true
}

// campaignOf resolves a session to its campaign across the primary and
// every adopted server.
func (n *Node) campaignOf(sessionID string) (string, bool) {
	if c, ok := n.srv.CampaignOf(sessionID); ok {
		return c, true
	}
	n.mu.Lock()
	adopted := n.adopted
	n.mu.Unlock()
	for _, as := range adopted {
		if c, ok := as.srv.CampaignOf(sessionID); ok {
			return c, true
		}
	}
	return "", false
}

// campaignOfVideo is campaignOf for video IDs.
func (n *Node) campaignOfVideo(videoID string) (string, bool) {
	if c, ok := n.srv.CampaignOfVideo(videoID); ok {
		return c, true
	}
	n.mu.Lock()
	adopted := n.adopted
	n.mu.Unlock()
	for _, as := range adopted {
		if c, ok := as.srv.CampaignOfVideo(videoID); ok {
			return c, true
		}
	}
	return "", false
}

// Handler returns the node's API handler: the platform handler wrapped
// in the ownership middleware. Per request it resolves the campaign,
// answers 307 for campaigns handed off to another node (the misrouted-
// after-handoff contract: redirect, never double-apply), dispatches
// adopted campaigns to the promoted replica, and passes everything
// else to the primary.
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		campaign := n.resolveCampaign(r)
		if campaign != "" {
			if target, moved := n.srv.MovedTo(campaign); moved {
				n.redirect(w, r, target)
				return
			}
			// Primary ownership wins over an adopted entry: node
			// replacement can restore a campaign onto this very node,
			// leaving the (now fenced) replica copy behind.
			if as, ok := n.adoptedFor(campaign); ok && !n.srv.HasCampaign(campaign) {
				// An adopted campaign can itself be handed off again
				// (node replacement migrates it to a durable node); the
				// fence then lives on the adopted server.
				if target, moved := as.srv.MovedTo(campaign); moved {
					n.redirect(w, r, target)
					return
				}
				as.h.ServeHTTP(w, r)
				return
			}
		}
		n.api.ServeHTTP(w, r)
	})
}

// resolveCampaign extracts the campaign a request targets: from the
// path for campaign-scoped routes, through the session/video indexes
// for entity-scoped ones, and by peeking the join body for POST
// /sessions (the body is restored for the downstream handler).
func (n *Node) resolveCampaign(r *http.Request) string {
	path := r.URL.Path
	switch {
	case strings.HasPrefix(path, "/api/v1/campaigns/"):
		return pathSegment(path, "/api/v1/campaigns/")
	case path == "/api/v1/sessions" && r.Method == http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(body))
		if err != nil {
			return ""
		}
		var req struct {
			Campaign string `json:"campaign"`
		}
		if json.Unmarshal(body, &req) != nil {
			return ""
		}
		return req.Campaign
	case strings.HasPrefix(path, "/api/v1/sessions/"):
		c, _ := n.campaignOf(pathSegment(path, "/api/v1/sessions/"))
		return c
	case strings.HasPrefix(path, "/api/v1/videos/"):
		c, _ := n.campaignOfVideo(pathSegment(path, "/api/v1/videos/"))
		return c
	}
	return ""
}

// pathSegment returns the path element following prefix, up to the
// next slash.
func pathSegment(path, prefix string) string {
	rest := strings.TrimPrefix(path, prefix)
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// redirect answers a request for a handed-off campaign: 307 preserves
// the method and body, so a client (or the router) replays the exact
// request against the new owner.
func (n *Node) redirect(w http.ResponseWriter, r *http.Request, target string) {
	base, ok := "", false
	if n.directory != nil {
		base, ok = n.directory(target)
	}
	if !ok {
		// The fence is real even when the destination is unresolvable;
		// surface the platform's own 409 shape rather than a misleading
		// redirect.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		_, _ = w.Write([]byte(`{"error":"campaign handed off: new owner ` + target + ` unknown"}`))
		return
	}
	w.Header().Set("Location", base+r.URL.RequestURI())
	w.WriteHeader(http.StatusTemporaryRedirect)
}

// registerMetrics adds the node's cluster rows to its platform
// /metrics registry (no-op with telemetry disabled).
func (n *Node) registerMetrics() {
	reg := n.srv.Metrics()
	if reg == nil {
		return
	}
	reg.Help("eyeorg_cluster_campaigns_owned", "Campaigns this node currently owns (handed-off campaigns excluded).")
	reg.GaugeFunc("eyeorg_cluster_campaigns_owned", `node="`+n.ID+`"`, func() float64 {
		owned := 0
		for _, c := range n.srv.CampaignIDs() {
			if _, moved := n.srv.MovedTo(c); !moved {
				owned++
			}
		}
		return float64(owned)
	})
	reg.Help("eyeorg_cluster_campaigns_adopted", "Campaigns this node serves from an adopted (promoted) replica.")
	reg.GaugeFunc("eyeorg_cluster_campaigns_adopted", `node="`+n.ID+`"`, func() float64 {
		count := 0
		n.adoptedBy.Range(func(_, _ any) bool { count++; return true })
		return float64(count)
	})
}
