// Package store is the embedded storage subsystem behind the platform:
// a durable, append-only event journal — a segmented write-ahead log
// with CRC-framed records, periodic snapshots, and crash recovery that
// replays the tail — plus a sharded in-memory map for the indexes built
// on top of it.
//
// The journal knows nothing about its payloads. Callers append opaque
// records, periodically hand the journal a serialized snapshot of their
// state, and after a restart rebuild by loading the newest snapshot and
// replaying every record past it. Sequence numbers start at 1 and are
// assigned in append order, which is therefore the replay order. Every
// append becomes durable through one group-commit rule (group.go): the
// first waiter whose record no earlier window covered leads the next
// window, turning whatever concurrent appends buffered into one write
// plus, with Options.Fsync, one fdatasync, and acks the window's
// appends together. The journal starts no goroutine.
//
// An appender only buffers its frame under mu. Only a commitMu holder
// rotates or closes a segment — a leader rotates a full one (group.go),
// and WriteSnapshot and Close take commitMu before mu — so no window
// sync is ever in flight on the file being closed.
//
// Lock order, written down once for the journal and the platform above
// it (internal/platform's doc.go points here): the platform's world
// lock, then a session shard, a campaign shard, a video shard, then
// commitMu, then mu. A goroutine takes a lock only while it holds
// nothing later in that order: a platform request appends (mu) under
// world, held shared, and its shard locks, and waits for durability
// (commitMu) only once it has released all of them. The platform's
// Snapshot is the only holder of world in exclusive mode.
//
// Beside world and the shards the platform takes three locks of its
// own. The telemetry registry's ranks first: a /metrics scrape holds it
// while the gauge callbacks take campaign and video shard read locks
// (and the blob store's), and nothing takes it under a shard. The
// admission buckets — a sync.Map of token buckets, each with its own
// mutex — are taken before a request's handler, with nothing held; a
// missing bucket is made only after a session shard read lock finds the
// session indexed and is released, and a bucket's mutex is held over no
// other lock. The commit ring (request-trace timings of recent windows)
// is innermost: the commit observer publishes into it under commitMu,
// and mutate reads it holding nothing. The blob store, innermost too,
// takes only its own locks.
//
// On-disk layout inside the data directory:
//
//	wal-<first seq, 16 hex>.seg   record segments, rotated by size
//	snap-<seq, 16 hex>.snap       state snapshots (CRC header + payload)
//
// Each segment record is framed as a 4-byte little-endian payload
// length, a 4-byte CRC32-C of the payload, and the payload itself; a
// payload is never empty. A segment is preallocated to SegmentBytes
// when it is created and written in place, so a window never grows the
// file and its sync is an fdatasync (sync_linux.go; elsewhere the file
// grows and the sync is an fsync). Past the last frame the segment
// reads as zeros, and a zero-length header marks the end of the data.
// Rotation and Close trim a segment to its data, so only the newest
// segment of a crashed log ends in zeros or in the invalid frame a torn
// append leaves; Open trims it. Any tail on an older segment is real
// corruption and fails Open. The full frame, window and snapshot
// formats are specified in docs/PROTOCOLS.md.
//
// One hook keeps the journal dependency-free while letting the platform
// observe and extend it: Options.Observer, a CommitObserver, receives
// every durability window (Window: sequence range, framed bytes, flush
// and fsync timestamps) exactly once, after the window is durable and
// strictly before any append it covers is acked, serialized and in
// sequence order with no gaps — from both places that seal a window:
// a leading waiter's flush, with or without fsync, and Close's tail.
// Durability telemetry and request-trace timing are both derived from
// that one report; the Window type carries the normative statement.
package store
