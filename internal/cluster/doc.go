// Package cluster holds a consistent-hash ring over campaign IDs and
// nothing else. No server links it.
//
// It was the campaign-partitioned cluster tier: a router in front of
// several platform servers, each campaign owned by the server the ring
// named, and a journaled fence for moving a campaign between servers.
// One server carries the paper's crowd many times over (README,
// "Capacity"), the tier replicated nothing, and no binary could start a
// move, so the router, the nodes and the move were deleted.
//
// The ring stays because the repository benchmark (bench/layers.go)
// prices a ring lookup as its cluster.ring_owner_ns probe and calls
// NewRing, DefaultVnodes and Ring.Owner to do it, and the benchmark is
// changed only by its own kind of change. Those names are deprecated:
// they go when the benchmark drops the probe.
package cluster
