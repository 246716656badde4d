// Package cluster partitions EYEORG campaigns across platform nodes
// and moves them between nodes without losing an acknowledged
// judgment.
//
// Campaigns are the shard unit — sessions never span campaigns — and a
// consistent-hash ring (Ring) with virtual nodes maps each campaign ID
// to its owning node, so membership changes move only ~1/N of the
// keyspace. The Router in front resolves every API request to the
// owner (ring for fresh campaigns, learned tables and handoff
// overrides after that) and either proxies or answers a 307 for the
// client to follow. A Node is a durable platform server behind the
// ownership middleware that answers 307 for campaigns it has handed
// off.
//
// Campaign migration (Cluster.MoveCampaign) is platform.Server.Handoff
// on the old owner, then ImportCampaign on the new one. Handoff exports
// the campaign and fences it with a journaled handoff record under one
// exclusive lock, so the fence is the cut: a mutation acked before it is
// in the export, and every later one is refused (the old owner answers
// 307, never double-applies). The new owner installs the export
// atomically; there is no journal tail to catch up.
//
// What the tier does not do: replicate. A node's campaigns live in its
// own data directory and nowhere else; while the node is down they are
// unavailable (the router answers 502 and routes nothing around it),
// every other node's campaigns keep serving, and the node recovers its
// own byte-identically when it restarts over that directory. A copy
// that survives the machine needs a network transport on the same
// commit observer — see ROADMAP.md. The deployed binaries
// (eyeorg-router over eyeorg-server -node-id) run NewRemoteRouter over
// NewStandaloneNode: ring, routing and fencing. A campaign moves between
// them with the same Handoff + ImportCampaign pair, which no binary
// exposes yet.
//
// See docs/ARCHITECTURE.md for the protocol narrative and
// docs/PROTOCOLS.md for the message formats.
package cluster
