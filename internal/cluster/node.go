package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// Node is one cluster member: a durable platform server and the
// ownership middleware that fences handed-off campaigns with 307s
// before requests reach the platform. A node's state lives in its own
// data directory and nowhere besides.
type Node struct {
	// ID is the node's short name ("a", "b", ...); its platform mints
	// IDs under the tag ID+"." so every entity names its minting node.
	ID string
	// Base is the node's advertised URL, the prefix of fencing-redirect
	// Locations ("http://node-a" in-process, a real listener URL when
	// served by eyeorg-server).
	Base string

	srv *platform.Server
	api http.Handler // srv's platform handler

	// directory resolves a node ID to its advertised base URL for
	// fencing redirects; set by the Cluster (or the server binary).
	directory func(nodeID string) (string, bool)
}

// NewStandaloneNode wraps an existing platform server in the cluster
// ownership middleware — for a multi-process deployment (eyeorg-server
// -node-id) and for each member of an in-process Cluster alike:
// requests for handed-off campaigns answer 307 toward the peer the
// directory resolves, everything else reaches the platform. A campaign
// moves off it the same way in both: Server.Handoff here, then
// ImportCampaign on the new owner.
func NewStandaloneNode(id, base string, srv *platform.Server, directory func(nodeID string) (string, bool)) *Node {
	n := &Node{ID: id, Base: base, srv: srv, api: srv.Handler(), directory: directory}
	n.registerMetrics()
	return n
}

// Server returns the node's platform server.
func (n *Node) Server() *platform.Server { return n.srv }

// Handler returns the node's API handler: the platform handler wrapped
// in the ownership middleware. Per request it resolves the campaign,
// answers 307 for campaigns handed off to another node (the misrouted-
// after-handoff contract: redirect, never double-apply), and passes
// everything else to the platform.
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if campaign := n.resolveCampaign(r); campaign != "" {
			if target, moved := n.srv.MovedTo(campaign); moved {
				n.redirect(w, r, target)
				return
			}
		}
		n.api.ServeHTTP(w, r)
	})
}

// resolveCampaign extracts the campaign a request targets, reading the
// route and {id} the platform serves it with: the ID itself on
// campaign-scoped routes, through the session/video indexes on
// entity-scoped ones, and by peeking the join body (restored for the
// platform). A request no handler serves — the platform answers it 301,
// 405 or 404 — targets none.
func (n *Node) resolveCampaign(r *http.Request) string {
	endpoint, id, ok := platform.Route(r.Method, r.URL.EscapedPath())
	if !ok {
		return ""
	}
	switch endpoint {
	case "add_video", "results", "analytics":
		return id
	case "join":
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
	case "tests", "events", "response":
		c, _ := n.srv.CampaignOf(id)
		return c
	case "video", "flag":
		c, _ := n.srv.CampaignOfVideo(id)
		return c
	}
	return ""
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
// /metrics registry.
func (n *Node) registerMetrics() {
	reg := n.srv.Metrics()
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
}
