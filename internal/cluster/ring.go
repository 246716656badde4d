package cluster

import (
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per physical node used when a
// Ring is built with a non-positive count. More virtual nodes smooth
// the partition (stddev of ownership shrinks ~1/sqrt(vnodes)) at the
// cost of a larger sorted point table; 128 keeps worst-case movement
// on membership change within the ~1/N+10% bound ring_test.go pins.
//
// Deprecated: kept only for the repository benchmark's ring probe; see
// the package doc.
const DefaultVnodes = 128

// Ring is a consistent-hash ring over campaign IDs with virtual nodes:
// each physical node projects Vnodes points onto a 64-bit circle and a
// campaign belongs to the first point at or after its own hash. Adding
// a node therefore moves only the campaigns that fall between the new
// node's points and their predecessors — ~1/N of the keyspace — which
// is what keeps cluster growth from reshuffling every campaign
// (ring_test.go pins that bound).
//
// A Ring is immutable after construction; With/Without derive new
// rings, so readers never need a lock.
type Ring struct {
	vnodes int
	nodes  []string
	points []ringPoint // sorted by hash, ties broken by node ID
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given node IDs. Node order does not
// matter: points depend only on the ID strings, so every participant
// that knows the member set derives the identical ring.
//
// Deprecated: kept only for the repository benchmark's ring probe; see
// the package doc.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{vnodes: vnodes, nodes: append([]string(nil), nodes...)}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	for _, n := range r.nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the node owning key ("" on an empty ring).
//
// Deprecated: kept only for the repository benchmark's ring probe; see
// the package doc.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point succeeds its last
	}
	return r.points[i].node
}

// Nodes returns the member set, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// With derives a ring with node added (no-op if already a member).
func (r *Ring) With(node string) *Ring {
	for _, n := range r.nodes {
		if n == node {
			return r
		}
	}
	return NewRing(append(r.Nodes(), node), r.vnodes)
}

// Without derives a ring with node removed (no-op if not a member).
func (r *Ring) Without(node string) *Ring {
	nodes := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == len(r.nodes) {
		return r
	}
	return NewRing(nodes, r.vnodes)
}

// hash64 is 64-bit FNV-1a with a murmur-style finalizer — cheap,
// dependency-free, and stable across processes (the ring must hash
// identically in every process). Raw FNV avalanches poorly in the
// high bits on short keys like "a#17", which skews point spacing on
// the circle; the finalizer mixes every input bit into every output
// bit and restores the ~1/N movement bound.
func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
