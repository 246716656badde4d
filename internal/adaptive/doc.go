// Package adaptive makes campaigns sequential, after VidPlat: instead
// of collecting a fixed number of judgments per video, the platform
// keeps a per-video confidence sequence over the kept sessions'
// submissions, stops steering assignments at videos whose sequence has
// resolved, and closes the whole campaign once every comparison has
// resolved — cutting sessions-to-decision by whatever margin the
// crowd's agreement allows.
//
// # Estimation
//
// Each video's estimator holds the kept, non-control submissions,
// sorted, and their sum (timeline campaigns: user-perceived load time
// in seconds; A/B campaigns: each vote mapped to a preference score —
// A=1, B=0, no-difference=0.5). One boundary u(n), the stitched
// boundary of Howard, Ramdas, McAuliffe & Sekhon (2021) at 2.5% per
// side, gives both kinds a 95% confidence sequence: an interval that
// covers the truth at every n at once, so the stopper may look after
// every completion without inflating its error. An A/B score's
// sequence is mean ± u(n)/n; a timeline video's is an order-statistic
// pair around the median, the statistic §4.3's percentile band centres
// on, since nothing bounds a load time. Below n = 4 the boundary is
// infinite and no video can resolve. The sequence is a pure function
// of the kept values, which is what lets crash recovery re-fold the
// journal and land on bit-equal stopping decisions.
//
// # Stopping and allocation
//
// A timeline video resolves once half its sequence's width is at most
// Config.HalfWidth seconds. An A/B video resolves with verdict "a" or
// "b" once its sequence excludes an even split, or "none" once the
// sequence fits within a small margin of it. Resolution is sticky —
// later samples (sessions already in flight when it resolved) never
// reopen a video. The campaign is closed while every registered video
// has resolved; registering a new video reopens it, and a banned video
// leaves the registered set.
//
// The allocator steers each new session at the unresolved videos,
// most-needed first: fewest expected samples (kept plus in-flight
// assignments) first, then widest interval, then registration order.
// In-flight assignments count toward a video's expected samples from
// the moment the session is journaled — NOT from its verdict, because
// an in-flight session's provisional verdict always reads DropSoft
// (the §4.3 soft rule holds until every assigned video is interacted
// with) and spending that would make every pending session look like a
// loss and over-assign without bound. Only final verdicts feed the
// estimators.
//
// The type is not goroutine-safe: the platform mutates and reads it
// under the owning campaign's shard lock, exactly like
// quality.Campaign.
package adaptive
