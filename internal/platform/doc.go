// Package platform is the Eyeorg web service: the HTTP JSON API through
// which participants take tests and experimenters manage campaigns
// (https://eyeorg.net in the paper). It exposes:
//
//	POST /api/v1/campaigns                create a campaign
//	POST /api/v1/campaigns/{id}/videos    attach an encoded page-load video
//	GET  /api/v1/campaigns/{id}/results   filtered results + Table-1 row
//	GET  /api/v1/campaigns/{id}/analytics live §4.3 filter verdicts,
//	                                      per-rule kept/dropped counts and
//	                                      timeline percentile bands
//	POST /api/v1/sessions                 join (CAPTCHA-gated, §3.3)
//	GET  /api/v1/sessions/{id}/tests      the participant's assignment
//	GET  /api/v1/videos/{id}              the encoded video payload
//	POST /api/v1/sessions/{id}/events     engagement instrumentation batches
//	POST /api/v1/sessions/{id}/responses  answers (timeline or A/B)
//	POST /api/v1/videos/{id}/flag         report a broken video (5 distinct
//	                                      reporters auto-ban it, §3.3)
//
// Verdicts have one source: each campaign's quality.Campaign, the
// incremental §4.3 fold. A session's tracker follows it while in
// flight; the answer that completes it runs completeSession, which
// freezes the session's standing, lets its state go with the tracker
// and its traces inside, and encodes what is left — worker, assignment, answers, the frozen
// counters — as one varint record appended to the campaign's arena
// (frozen.go). Every completed session, fresh or decoded from the arena
// a snapshot carried, then goes through
// fileCompleted, which folds the answers in and renders the /analytics
// row polls then copy. Both endpoints render from that fold;
// internal/filtering, the batch form of the same rules, is only the
// tests' reference. No struct outlives completion: the sessions index
// holds only sessions in flight, a lookup that misses it asks each
// campaign for the session's frozen row, and a late request or
// GET …/tests decodes its record in place.
//
// The routes above are one table (route.go), which Handler matches on
// the escaped path; a request no route serves gets ServeMux's answer
// (301, 405 or 404) and is counted nowhere. A request leaves almost no
// garbage of its own: routing allocates nothing; every handler runs on a
// pooled scratch (telemetry.go) that is its ResponseWriter and holds its
// {id}, the body buffer, the decoded body and the journal event; the
// three participant bodies are decoded in place (inplace.go), with
// encoding/json behind them for anything outside that decoder's small
// language; and reply header values are shared, not built. A JSON body
// is one object and whitespace — anything after it is a 400, and so is
// a millisecond field whose nanoseconds do not fit a time.Duration.
//
// Storage is the internal/store subsystem: campaigns, sessions and
// videos live in sharded in-memory indexes (per-shard RW locks, FNV-
// hashed IDs), and when Options.DataDir is set every mutation is
// journaled to a segmented write-ahead log so a restarted server
// rebuilds the exact same state — byte-identical /results — from the
// newest snapshot plus the journal tail. The journal's group-commit
// pipeline coalesces concurrent mutations into one flush (and, with
// Fsync, one fdatasync) per window, and each mutation acks after its
// window is durable, waiting outside its shard locks. Every mutation
// ends in the one commit tail, mutate(ev), which applies the record's
// row of the op table (ops) with world held shared, as replay applies a
// journaled one; Snapshot alone holds world exclusively. The request
// whose record crosses Options.SnapshotEvery snapshots before it answers.
// Nothing runs behind a request: the package starts no goroutine. The
// lock order — world, session shard, campaign shard, video shard, then
// the journal's two locks — is written down once, in internal/store's
// doc.go. /results and /analytics answer conditional GETs with
// ETag/If-None-Match, a 304 rendering no body. The paper's deployment
// sat a database behind the same shape of API. See docs/ARCHITECTURE.md
// for the subsystem map and the byte-identical-replay invariant every
// layer preserves.
//
// The package links nothing of the paper's simulator. Beside its own
// tiers (store, blob, quality, adaptive, wire, trace, telemetry) it
// reaches filtering, survey and stats for the record types the §4.3
// fold takes, video and vision to check an upload's EYV1 container, and
// rng: a participant is a worker ID, and a video is bytes someone else
// rendered. TestServerDeps at the repository root holds the closure of
// this package and of the server binary to that list.
package platform
