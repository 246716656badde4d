package blob

// Telemetry receives the blob store's delivery telemetry. Like
// internal/store's journal, the store knows nothing about metric
// registries — callers adapt these hooks onto whatever observability
// system they run (internal/platform wires them into
// internal/telemetry) — so the storage subsystem stays dependency-free.
//
// Hooks fire on the ingest and file-tier read paths, after any lock is
// released; implementations must be cheap, non-blocking and safe for
// concurrent use. A nil Options.Metrics disables all of them.
type Telemetry interface {
	// BlobPut fires once per newly stored blob with its size in bytes.
	// Deduplicated uploads (content already stored) do not fire.
	BlobPut(bytes int64)
	// MapHit fires when a file-tier read (Bytes, Serve or Open) is
	// served from the blob's existing mapping, with its size.
	MapHit(bytes int)
	// MapMiss fires once per file-tier read (Serve or Open) that opens
	// the blob's file: to map it, or to serve from the file when it
	// cannot be mapped.
	MapMiss()
}

// sinkPut reports one stored blob to the sink, if any.
func (s *Store) sinkPut(bytes int64) {
	if s.sink != nil {
		s.sink.BlobPut(bytes)
	}
}

// sinkHit reports one read served from a mapping to the sink, if any.
func (s *Store) sinkHit(bytes int) {
	if s.sink != nil {
		s.sink.MapHit(bytes)
	}
}

// sinkMiss reports one read that opened a blob file to the sink, if any.
func (s *Store) sinkMiss() {
	if s.sink != nil {
		s.sink.MapMiss()
	}
}
