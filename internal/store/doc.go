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
// append becomes durable through one group-commit pipeline (group.go):
// a committer goroutine turns whatever concurrent appends buffered into
// one flush window, one write plus, with Options.Fsync, one fdatasync,
// and acks the window's appends together.
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
// the committer's flush, with or without fsync, and Close's tail.
// Durability telemetry and request-trace timing are both derived from
// that one report; the Window type carries the normative statement.
package store
