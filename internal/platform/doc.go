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
// The service is two packages. internal/platform/state is the campaign
// state machine: the campaigns, videos and sessions, the journal op table
// and every apply rule, frozen records, state documents, the §4.3 fold
// both endpoints render from, and every lock over them. This package is
// the HTTP tier around it, and takes none of those locks: it routes,
// admits, decodes a body into a state.Event, and hands it to mutate, the
// one commit tail, which calls state.Apply, awaits the record's
// durability with no lock held, and takes the snapshot the cadence asks
// for; every read is a state query. Open builds the state and has it
// replay the journal through the same Apply.
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
// /results and /analytics answer conditional GETs with ETag/If-None-Match,
// a 304 rendering no body; video replies serve resident bytes themselves
// and anything else through http.ServeContent (video.go).
//
// With Options.DataDir set every mutation is journaled to internal/store's
// segmented write-ahead log, so a restarted server rebuilds the exact
// same state — byte-identical /results — from the newest snapshot plus
// the journal tail. Nothing runs behind a request: the package starts no
// goroutine. See docs/ARCHITECTURE.md for the subsystem map and the
// byte-identical-replay invariant every layer preserves.
//
// The package links nothing of the paper's simulator. Beside its own
// tiers (state, store, blob, quality, adaptive, wire, trace, telemetry)
// it reaches filtering, response and stats for the record types the §4.3
// fold takes, video and vision to check an upload's EYV1 container, and
// rng: a participant is a worker ID, and a video is bytes someone else
// rendered. TestServerDeps at the repository root holds the closure of
// this package and of the server binary to that list.
package platform
