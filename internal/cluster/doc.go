// Package cluster partitions EYEORG campaigns across platform nodes
// and keeps every acknowledged judgment survivable.
//
// Campaigns are the shard unit — sessions never span campaigns — and a
// consistent-hash ring (Ring) with virtual nodes maps each campaign ID
// to its owning node, so membership changes move only ~1/N of the
// keyspace. The Router in front resolves every API request to the
// owner (ring for fresh campaigns, learned tables and failover
// overrides after that) and either proxies in-process or answers a 307
// for the client to follow.
//
// Each Node pairs a durable platform server with an in-memory follower
// replica fed by WAL shipping: the primary's journal reports every
// sealed durability window to the Node (store.Window states the
// contract: after the window is on disk and strictly before the covered
// mutations acknowledge), and the Node replays each record through the
// same apply path crash recovery uses.
// "Acked" therefore always implies "applied on the follower", which is
// what lets Cluster.Kill promote the replica on a crash without losing
// a single acknowledged judgment — the kill-a-node chaos test pins
// byte-identical /results across that failover.
//
// Campaign migration (Cluster.MoveCampaign) is snapshot-ship plus
// journal-tail catch-up: export the campaign at a journal cut, fence
// it with a journaled handoff record (the old owner then answers 307,
// never double-applies), and import state + tail atomically on the new
// owner. See docs/ARCHITECTURE.md for the full protocol narrative and
// docs/PROTOCOLS.md for the message formats.
package cluster
