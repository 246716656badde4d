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
	// Fsync/GroupCommit select the nodes' durability mode, same
	// semantics as platform.Options.
	Fsync       bool
	GroupCommit bool
	// SnapshotEvery forwards to platform.Options.SnapshotEvery.
	SnapshotEvery int
	// Vnodes is the ring's virtual-node count (0 = DefaultVnodes).
	Vnodes int
	// RouterMode is "proxy" (default) or "redirect".
	RouterMode string
	// Adaptive settings forward to every node AND its follower — a
	// promoted replica must make the identical allocation decisions.
	Adaptive     bool
	CIHalfWidth  float64
	AdaptiveSeed int64
}

// Cluster is a set of platform nodes partitioned by campaign plus the
// router in front of them. It owns the handoff and failover
// choreography; the nodes and router only mechanize fencing, shipping,
// and routing.
type Cluster struct {
	cfg    Config
	router *Router

	mu    sync.Mutex
	nodes map[string]*Node
	order []string // creation order, for successor selection
	alive map[string]bool

	// handoffMu serializes campaign migrations: each handoff uses the
	// source node's single capture outbox and a ring of overrides, and
	// interleaving two would tangle their tails.
	handoffMu sync.Mutex
}

// New brings up the cluster: one durable platform server per node with
// WAL shipping into an in-memory follower, and a router over all of
// them.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	if cfg.RouterMode == "" {
		cfg.RouterMode = "proxy"
	}
	c := &Cluster{
		cfg:   cfg,
		nodes: map[string]*Node{},
		alive: map[string]bool{},
	}
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
		c.order = append(c.order, id)
		c.alive[id] = true
	}
	ring := NewRing(cfg.Nodes, cfg.Vnodes)
	var nodeList []*Node
	for _, id := range c.order {
		nodeList = append(nodeList, c.nodes[id])
	}
	rt, err := NewRouter(cfg.RouterMode, ring, nodeList)
	if err != nil {
		c.closeAll()
		return nil, err
	}
	c.router = rt
	return c, nil
}

// newNode builds one member: the Node shell first (it is the primary's
// replication target, so it must exist before Open), then the in-memory
// follower, then the durable primary shipping into both.
func (c *Cluster) newNode(id string) (*Node, error) {
	n := &Node{
		ID:   id,
		Base: "http://node-" + id,
		directory: func(nodeID string) (string, bool) {
			c.mu.Lock()
			defer c.mu.Unlock()
			t, ok := c.nodes[nodeID]
			if !ok {
				return "", false
			}
			return t.Base, true
		},
	}
	follower, err := platform.Open(platform.Options{
		IDTag:            id + ".",
		Adaptive:         c.cfg.Adaptive,
		CIHalfWidth:      c.cfg.CIHalfWidth,
		AdaptiveSeed:     c.cfg.AdaptiveSeed,
		DisableTelemetry: true,
	})
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	n.follower = follower
	srv, err := platform.Open(platform.Options{
		DataDir:       filepath.Join(c.cfg.Dir, id),
		Fsync:         c.cfg.Fsync,
		GroupCommit:   c.cfg.GroupCommit,
		SnapshotEvery: c.cfg.SnapshotEvery,
		IDTag:         id + ".",
		Replicate:     n,
		Adaptive:      c.cfg.Adaptive,
		CIHalfWidth:   c.cfg.CIHalfWidth,
		AdaptiveSeed:  c.cfg.AdaptiveSeed,
	})
	if err != nil {
		follower.Close()
		return nil, err
	}
	n.srv = srv
	n.api = srv.Handler()
	n.registerMetrics()
	return n, nil
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

// Kill simulates a node crash: the node stops receiving requests, its
// successor (the next live member in creation order) adopts its
// follower replica, and the router fails its campaigns over. Nothing
// on the dead node is flushed or closed — exactly what the replication
// invariant is for: every mutation the dead node ever acked was
// shipped to the follower before the ack, so the promoted replica
// serves it.
func (c *Cluster) Kill(id string) error {
	c.mu.Lock()
	dead, ok := c.nodes[id]
	if !ok || !c.alive[id] {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no live node %s", id)
	}
	c.alive[id] = false
	succID := c.successorLocked(id)
	succ := c.nodes[succID]
	c.mu.Unlock()
	if succ == nil {
		return fmt.Errorf("cluster: no live successor for %s", id)
	}
	if err := dead.ReplicationError(); err != nil {
		return fmt.Errorf("cluster: %s follower diverged, refusing promotion: %w", id, err)
	}
	succ.Adopt(dead.follower)
	for _, campaign := range dead.follower.CampaignIDs() {
		if _, moved := dead.follower.MovedTo(campaign); !moved {
			c.router.Override(campaign, succID)
		}
	}
	c.router.MarkDead(id, succID)
	return nil
}

// successorLocked picks the next live member after id in creation
// order, wrapping ("" if none). Caller holds c.mu.
func (c *Cluster) successorLocked(id string) string {
	start := 0
	for i, n := range c.order {
		if n == id {
			start = i
			break
		}
	}
	for off := 1; off <= len(c.order); off++ {
		cand := c.order[(start+off)%len(c.order)]
		if c.alive[cand] {
			return cand
		}
	}
	return ""
}

// MoveCampaign migrates one campaign between live nodes: snapshot-ship
// plus journal-tail catch-up.
//
//	capture on ──> export @ cut ──> fence (opHandoff) ──> barrier
//	    └── tail = captured records after cut, this campaign only
//	import(state, tail) on target ──> router override
//
// Capture starts before the cut is read (no shipped record between cut
// and fence can be missed) and the barrier waits until the fence is
// durable — and therefore shipped — so the tail is complete.
func (c *Cluster) MoveCampaign(campaign, from, to string) error {
	c.handoffMu.Lock()
	defer c.handoffMu.Unlock()
	c.mu.Lock()
	src, dst := c.nodes[from], c.nodes[to]
	srcAlive, dstAlive := c.alive[from], c.alive[to]
	c.mu.Unlock()
	if src == nil || !srcAlive {
		return fmt.Errorf("cluster: no live source node %s", from)
	}
	if dst == nil || !dstAlive {
		return fmt.Errorf("cluster: no live target node %s", to)
	}
	src.startCapture()
	defer src.stopCapture()
	state, cut, err := src.srv.ExportCampaign(campaign)
	if err != nil {
		return fmt.Errorf("cluster: export %s from %s: %w", campaign, from, err)
	}
	if err := src.srv.Handoff(campaign, to); err != nil {
		return fmt.Errorf("cluster: fence %s on %s: %w", campaign, from, err)
	}
	if err := src.srv.Barrier(); err != nil {
		return fmt.Errorf("cluster: barrier on %s: %w", from, err)
	}
	var tail [][]byte
	for _, rec := range src.capturedSince(cut) {
		if owner, ok := src.srv.CampaignOfRecord(rec); ok && owner == campaign {
			tail = append(tail, rec)
		}
	}
	if err := dst.srv.ImportCampaign(state, tail); err != nil {
		return fmt.Errorf("cluster: import %s into %s: %w", campaign, to, err)
	}
	c.router.Override(campaign, to)
	return nil
}

// RestoreCampaign migrates a campaign served from an adopted (memory-
// only) replica onto a live durable node — the second half of node
// replacement. The replica is fenced FIRST: it has no journal and no
// capture outbox, so the fence quiesces it and the export that follows
// is complete by construction.
func (c *Cluster) RestoreCampaign(campaign, to string) error {
	c.handoffMu.Lock()
	defer c.handoffMu.Unlock()
	c.mu.Lock()
	dst := c.nodes[to]
	dstAlive := c.alive[to]
	var host *Node
	var rep *platform.Server
	for _, id := range c.order {
		if !c.alive[id] {
			continue
		}
		if as, ok := c.nodes[id].adoptedFor(campaign); ok {
			host, rep = c.nodes[id], as.srv
			break
		}
	}
	c.mu.Unlock()
	if dst == nil || !dstAlive {
		return fmt.Errorf("cluster: no live target node %s", to)
	}
	if host == nil {
		return fmt.Errorf("cluster: campaign %s is not being served from an adopted replica", campaign)
	}
	if err := rep.Handoff(campaign, to); err != nil {
		return fmt.Errorf("cluster: fence %s on replica at %s: %w", campaign, host.ID, err)
	}
	state, _, err := rep.ExportCampaign(campaign)
	if err != nil {
		return fmt.Errorf("cluster: export %s from replica at %s: %w", campaign, host.ID, err)
	}
	if err := dst.srv.ImportCampaign(state, nil); err != nil {
		return fmt.Errorf("cluster: import %s into %s: %w", campaign, to, err)
	}
	c.router.Override(campaign, to)
	return nil
}

// Close shuts every node down (followers included). Dead nodes' servers
// are closed too — Kill leaves them open to mimic a crash, but process
// teardown still releases their journals.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeAll()
}

func (c *Cluster) closeAll() error {
	var first error
	for _, id := range c.order {
		n := c.nodes[id]
		if n == nil {
			continue
		}
		if n.srv != nil {
			if err := n.srv.Close(); err != nil && first == nil {
				first = err
			}
		}
		if n.follower != nil {
			if err := n.follower.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
