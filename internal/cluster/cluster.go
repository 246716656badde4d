package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// Config describes a cluster to bring up in-process.
type Config struct {
	// Nodes are the member IDs ("a", "b", "c"); each becomes one
	// durable platform server with DataDir <Dir>/<id> and the ID tag
	// "<id>.". IDs must be mutually prefix-free and must not contain
	// '.' or '/'.
	Nodes []string
	// Dir is the parent data directory; each node journals under its
	// own subdirectory.
	Dir string
	// Vnodes is the ring's virtual-node count (0 = DefaultVnodes).
	Vnodes int
	// RouterMode is "proxy" (default) or "redirect".
	RouterMode string
	// Node is the template every member's server is opened from
	// (durability mode, snapshot cadence, adaptive stopping, ...).
	// DataDir and IDTag are set per node and ignored here.
	Node platform.Options
}

// Cluster is a set of platform nodes partitioned by campaign plus the
// router in front of them. It owns the handoff choreography; the nodes
// and router only mechanize fencing and routing.
type Cluster struct {
	cfg    Config
	router *Router

	mu    sync.Mutex
	nodes map[string]*Node
}

// New brings up the cluster: one durable platform server per node and
// a router over all of them.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	if cfg.RouterMode == "" {
		cfg.RouterMode = "proxy"
	}
	c := &Cluster{cfg: cfg, nodes: map[string]*Node{}}
	var nodeList []*Node
	for _, id := range cfg.Nodes {
		if id == "" || c.nodes[id] != nil {
			c.closeAll()
			return nil, fmt.Errorf("cluster: invalid or duplicate node ID %q", id)
		}
		n, err := c.newNode(id)
		if err != nil {
			c.closeAll()
			return nil, fmt.Errorf("cluster: node %s: %w", id, err)
		}
		c.nodes[id] = n
		nodeList = append(nodeList, n)
	}
	rt, err := NewRouter(cfg.RouterMode, NewRing(cfg.Nodes, cfg.Vnodes), nodeList)
	if err != nil {
		c.closeAll()
		return nil, err
	}
	c.router = rt
	return c, nil
}

// newNode builds one member: a durable server under <Dir>/<id> behind
// the ownership middleware, resolving peers through the cluster.
func (c *Cluster) newNode(id string) (*Node, error) {
	opts := c.cfg.Node
	opts.DataDir = filepath.Join(c.cfg.Dir, id)
	opts.IDTag = id + "."
	srv, err := platform.Open(opts)
	if err != nil {
		return nil, err
	}
	return NewStandaloneNode(id, "http://node-"+id, srv, func(nodeID string) (string, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		t, ok := c.nodes[nodeID]
		if !ok {
			return "", false
		}
		return t.Base, true
	}), nil
}

// Router returns the cluster's router.
func (c *Cluster) Router() *Router { return c.router }

// Handler returns the router's handler — the cluster's single entry
// point.
func (c *Cluster) Handler() http.Handler { return c.router.Handler() }

// Node returns a member by ID (nil if unknown).
func (c *Cluster) Node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// MoveCampaign migrates one campaign between nodes:
//
//	Handoff on source (export + fence, one cut) ──> ImportCampaign on target ──> router override
//
// Handoff holds the source's world lock across the export and the
// fence, so every mutation acked before the fence is in the export and
// every later one is refused; there is no tail to catch up.
func (c *Cluster) MoveCampaign(campaign, from, to string) error {
	c.mu.Lock()
	src, dst := c.nodes[from], c.nodes[to]
	c.mu.Unlock()
	if src == nil {
		return fmt.Errorf("cluster: no source node %s", from)
	}
	if dst == nil {
		return fmt.Errorf("cluster: no target node %s", to)
	}
	state, err := src.srv.Handoff(campaign, to)
	if err != nil {
		return fmt.Errorf("cluster: hand off %s from %s: %w", campaign, from, err)
	}
	if err := dst.srv.ImportCampaign(state); err != nil {
		return fmt.Errorf("cluster: import %s into %s: %w", campaign, to, err)
	}
	c.router.Override(campaign, to)
	return nil
}

// Close shuts every node down.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeAll()
}

func (c *Cluster) closeAll() error {
	var first error
	for _, n := range c.nodes {
		if err := n.srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
