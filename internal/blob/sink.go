package blob

// Telemetry receives the blob store's delivery telemetry. Like
// internal/store's journal, the store knows nothing about metric
// registries — callers adapt these hooks onto whatever observability
// system they run (internal/platform wires them into
// internal/telemetry) — so the storage subsystem stays dependency-free.
//
// Hooks fire on the ingest and cache paths, after any lock is released;
// implementations must be cheap, non-blocking and safe for concurrent
// use. A nil Options.Metrics disables all of them.
type Telemetry interface {
	// BlobPut fires once per newly stored blob with its size in bytes.
	// Deduplicated uploads (content already stored) do not fire.
	BlobPut(bytes int64)
	// CacheHit fires when the byte cache serves a blob, with its size.
	CacheHit(bytes int)
	// CacheMiss fires once per cache-eligible read (Serve or Open) that
	// finds no entry, whether or not admission then keeps the blob.
	CacheMiss()
	// CacheEvict fires when an admitted blob displaces resident entries,
	// with the count and byte total evicted to make room for it.
	CacheEvict(entries int, bytes int64)
}

// sinkPut reports one stored blob to the sink, if any.
func (s *Store) sinkPut(bytes int64) {
	if s.sink != nil {
		s.sink.BlobPut(bytes)
	}
}

// sinkHit reports one cache hit to the sink, if any.
func (c *cache) sinkHit(bytes int) {
	if c.sink != nil {
		c.sink.CacheHit(bytes)
	}
}

// sinkMiss reports one cache miss to the sink, if any.
func (c *cache) sinkMiss() {
	if c.sink != nil {
		c.sink.CacheMiss()
	}
}

// sinkEvict reports one eviction batch to the sink, if any.
func (c *cache) sinkEvict(entries int, bytes int64) {
	if c.sink != nil && entries > 0 {
		c.sink.CacheEvict(entries, bytes)
	}
}
