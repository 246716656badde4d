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
// commitMu, then mu; innermost, the platform's commit observer and the
// blob store take only their own locks. A goroutine takes a lock only
// while it holds nothing later in that order: a platform request
// appends (mu) under world and its shard locks, and waits for
// durability (commitMu) only once it has released all of them.
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
