// Package blob is a content-addressed store for immutable byte blobs —
// the delivery backend for the platform's page-load videos, where every
// session downloads multiple payloads that never change once uploaded
// (PAPER.md §3: video bytes dwarf judgment bytes).
//
// Blobs are keyed by the SHA-256 of their content and ingested in
// fixed-size chunks: Put streams the upload through the hasher without
// ever holding more than one chunk-sized buffer beyond the stored data
// itself — a pooled look-ahead buffer, returned when Put does. Identical
// uploads deduplicate to one stored blob.
//
// Two serving tiers share the API:
//
//   - the in-memory tier (no Dir) keeps the chunk list in RAM, each chunk
//     an exact-length copy, so a blob costs its own size and not the
//     chunk size — the configuration for benchmarks and ephemeral
//     servers, where the hit path returns the stored slice with zero
//     copies and zero allocations;
//   - the file tier (Dir set) persists each blob as one contiguous
//     file, fronted by a sharded LRU byte cache. Blobs no larger than
//     one chunk are cache-candidates (admitted through a doorkeeper on
//     their second miss, so one-shot scans cannot flush the hot set);
//     larger blobs bypass the cache entirely and serve straight from
//     their *os.File, which http.ServeContent turns into sendfile on a
//     real socket — the kernel already zero-copies those, so the
//     userspace cache is reserved for the small hot set where syscall
//     overhead dominates.
//
// The store is crash-safe by construction: a blob becomes visible only
// after a temp-file rename (fsynced when Options.Fsync is set), so a
// journal record referencing a hash can always be replayed. Telemetry
// (puts, cache hits/misses/evictions, resident bytes) flows through the
// dependency-free Telemetry hooks, as internal/store's observer does.
package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// DefaultChunkBytes is the fixed chunk size used when Options.ChunkBytes
// is zero: large enough that every realistic video payload is a
// single-chunk (cacheable) blob, small enough that a multi-gigabyte
// upload never forces a contiguous allocation on the memory tier.
const DefaultChunkBytes = 1 << 20

// DefaultCacheBytes is the file-tier byte-cache capacity used when
// Options.CacheBytes is zero.
const DefaultCacheBytes = 64 << 20

// ErrNotFound reports a hash the store has never seen.
var ErrNotFound = errors.New("blob: not found")

// Options configures a Store.
type Options struct {
	// Dir selects the file tier: blobs persist under Dir/ab/<hash> and
	// survive restarts. Empty selects the in-memory tier.
	Dir string
	// ChunkBytes is the fixed ingest chunk size and the byte cache's
	// admission bound (0 = DefaultChunkBytes).
	ChunkBytes int
	// CacheBytes caps the file tier's LRU byte cache (0 =
	// DefaultCacheBytes, negative = cache disabled). Ignored on the
	// memory tier, which needs no cache.
	CacheBytes int64
	// Fsync makes Put durable before it returns: the blob file and its
	// directory are fsynced ahead of the rename that publishes it.
	Fsync bool
	// Metrics receives the store's telemetry; nil disables it.
	Metrics Telemetry
}

// Ref names a stored blob: its content hash and exact size.
type Ref struct {
	Hash string
	Size int64
}

// blobMeta is the in-memory index entry for one blob.
type blobMeta struct {
	size int64
	// chunks holds the blob's fixed-size chunks on the memory tier, each
	// exactly as long as its content (nil on the file tier).
	chunks [][]byte
}

// Store is a content-addressed blob store. All methods are safe for
// concurrent use.
type Store struct {
	dir   string
	chunk int
	fsync bool
	sink  Telemetry
	cache *cache // nil on the memory tier or when disabled

	// lookahead recycles Put's chunk-sized read buffers (*[]byte).
	lookahead sync.Pool

	mu    sync.RWMutex
	blobs map[string]*blobMeta
	bytes int64 // sum of blob sizes, for the resident-bytes gauge
}

// Open returns a store over the configured tier. With a Dir it scans
// the directory and re-indexes every previously stored blob.
func Open(opts Options) (*Store, error) {
	s := &Store{
		dir:   opts.Dir,
		chunk: opts.ChunkBytes,
		fsync: opts.Fsync,
		sink:  opts.Metrics,
		blobs: map[string]*blobMeta{},
	}
	if s.chunk <= 0 {
		s.chunk = DefaultChunkBytes
	}
	s.lookahead.New = func() any {
		buf := make([]byte, s.chunk)
		return &buf
	}
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	cap := opts.CacheBytes
	if cap == 0 {
		cap = DefaultCacheBytes
	}
	if cap > 0 {
		s.cache = newCache(cap, int64(s.chunk), s.sink)
	}
	if err := s.scan(); err != nil {
		return nil, fmt.Errorf("blob: scanning %s: %w", s.dir, err)
	}
	return s, nil
}

// scan re-indexes the blob directory after a restart. File names are
// the content hashes; sizes come from the directory entries.
func (s *Store) scan() error {
	prefixes, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, p := range prefixes {
		if !p.IsDir() || len(p.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.dir, p.Name()))
		if err != nil {
			return err
		}
		for _, e := range entries {
			hash := e.Name()
			if len(hash) != sha256.Size*2 || hash[:2] != p.Name() {
				continue // stray temp file or foreign debris
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			s.blobs[hash] = &blobMeta{size: info.Size()}
			s.bytes += info.Size()
		}
	}
	return nil
}

// path is the file-tier location of a blob: fanned out over 256
// two-hex-digit subdirectories so one directory never holds every blob.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash)
}

// Put streams r into the store, hashing as it reads, and returns the
// blob's content address. The boolean reports whether the call stored a
// new blob (false = deduplicated against an existing one). Every upload
// is read through one pooled chunk-sized look-ahead buffer, so nothing
// beyond the stored data is held past the call: the memory tier keeps an
// exact-length copy of each chunk, and the file tier writes each one to a
// temp file that is atomically renamed into place (fsynced first when
// the store is durable).
func (s *Store) Put(r io.Reader) (Ref, bool, error) {
	h := sha256.New()
	var (
		chunks [][]byte
		tmp    *os.File
		size   int64
	)
	if s.dir != "" {
		f, err := os.CreateTemp(s.dir, "put-*.tmp")
		if err != nil {
			return Ref{}, false, err
		}
		tmp = f
		defer func() {
			if tmp != nil {
				tmp.Close()
				os.Remove(tmp.Name())
			}
		}()
	}
	lookahead := s.lookahead.Get().(*[]byte)
	defer s.lookahead.Put(lookahead)
	for {
		n, err := io.ReadFull(r, *lookahead)
		if n > 0 {
			buf := (*lookahead)[:n]
			h.Write(buf)
			size += int64(n)
			if tmp != nil {
				if _, werr := tmp.Write(buf); werr != nil {
					return Ref{}, false, werr
				}
			} else {
				chunks = append(chunks, append(make([]byte, 0, n), buf...))
			}
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return Ref{}, false, err
		}
	}
	ref := Ref{Hash: hex.EncodeToString(h.Sum(nil)), Size: size}

	s.mu.Lock()
	if _, ok := s.blobs[ref.Hash]; ok {
		s.mu.Unlock()
		return ref, false, nil // dedup: identical content already stored
	}
	s.mu.Unlock()

	if tmp != nil {
		if err := s.publish(tmp, ref.Hash); err != nil {
			return Ref{}, false, err
		}
		tmp = nil // published; the deferred cleanup must not remove it
	}
	meta := &blobMeta{size: size}
	if s.dir == "" {
		if len(chunks) == 0 {
			chunks = [][]byte{{}}
		}
		meta.chunks = chunks
	}
	s.mu.Lock()
	if _, ok := s.blobs[ref.Hash]; !ok {
		s.blobs[ref.Hash] = meta
		s.bytes += size
	}
	s.mu.Unlock()
	s.sinkPut(size)
	return ref, true, nil
}

// publish moves a finished temp file to its content address. With
// Fsync the file and its directory are durable before the rename is.
func (s *Store) publish(tmp *os.File, hash string) error {
	if s.fsync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	dir := filepath.Join(s.dir, hash[:2])
	if err := os.MkdirAll(dir, 0o755); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, s.path(hash)); err != nil {
		os.Remove(name)
		return err
	}
	if s.fsync {
		if err := syncDir(dir); err != nil {
			return err
		}
		return syncDir(s.dir)
	}
	return nil
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// PutBytes stores b (used when a replayed video record carries its
// payload, by campaign import, and by tests).
func (s *Store) PutBytes(b []byte) (Ref, bool, error) {
	return s.Put(bytes.NewReader(b))
}

// Discard removes a blob. It exists for content-deterministic ingest
// failures (an upload that fails validation, or one that tripped the
// size cap): any concurrent Put of the same bytes fails the same checks,
// so removing the blob cannot orphan a reference.
func (s *Store) Discard(hash string) {
	s.mu.Lock()
	meta, ok := s.blobs[hash]
	if ok {
		delete(s.blobs, hash)
		s.bytes -= meta.size
	}
	s.mu.Unlock()
	if !ok {
		return
	}
	if s.cache != nil {
		s.cache.remove(hash)
	}
	if s.dir != "" {
		os.Remove(s.path(hash))
	}
}

// Has reports whether the store holds hash.
func (s *Store) Has(hash string) bool {
	s.mu.RLock()
	_, ok := s.blobs[hash]
	s.mu.RUnlock()
	return ok
}

// Size returns a blob's exact byte size.
func (s *Store) Size(hash string) (int64, bool) {
	s.mu.RLock()
	meta, ok := s.blobs[hash]
	s.mu.RUnlock()
	if !ok {
		return 0, false
	}
	return meta.size, true
}

// Len counts stored blobs.
func (s *Store) Len() int {
	s.mu.RLock()
	n := len(s.blobs)
	s.mu.RUnlock()
	return n
}

// TotalBytes sums stored blob sizes — the resident-set gauge on the
// memory tier, the on-disk footprint on the file tier.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	b := s.bytes
	s.mu.RUnlock()
	return b
}

// CacheStats reports the byte cache's current entry count and resident
// bytes (zeros on tiers without a cache).
func (s *Store) CacheStats() (entries int, bytes int64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.stats()
}

// Bytes is the allocation-free hit path: it returns the blob's contents
// as one contiguous slice when they are already resident — a
// single-chunk blob on the memory tier, or a byte-cache hit on the
// file tier — and reports false otherwise (caller falls back to Open).
// The returned slice is the store's own and must not be modified.
func (s *Store) Bytes(hash string) ([]byte, bool) {
	s.mu.RLock()
	meta, ok := s.blobs[hash]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	if len(meta.chunks) == 1 {
		return meta.chunks[0], true
	}
	if meta.chunks == nil && s.cache != nil && meta.size <= int64(s.chunk) {
		if b, ok := s.cache.get(hash); ok {
			return b, true
		}
	}
	return nil, false
}

// Open returns the blob's content as an io.ReadSeekCloser sized for
// http.ServeContent:
//
//   - resident bytes (memory tier, cache hits) serve from RAM;
//   - a file-tier blob no larger than one chunk is read once, offered
//     to the byte cache (doorkeeper-gated), and served from the read;
//   - larger file-tier blobs return the *os.File itself, which
//     http.ServeContent drives with sendfile on a real socket.
func (s *Store) Open(hash string) (io.ReadSeekCloser, int64, error) {
	s.mu.RLock()
	meta, ok := s.blobs[hash]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, ErrNotFound
	}
	if meta.chunks != nil {
		if len(meta.chunks) == 1 {
			return newByteContent(meta.chunks[0]), meta.size, nil
		}
		return &chunkReader{chunks: meta.chunks, chunk: int64(s.chunk), size: meta.size}, meta.size, nil
	}
	if s.cache != nil && meta.size <= int64(s.chunk) {
		if b, ok := s.cache.get(hash); ok {
			return newByteContent(b), meta.size, nil
		}
		b, err := os.ReadFile(s.path(hash))
		if err != nil {
			return nil, 0, err
		}
		s.cache.admit(hash, b, false)
		return newByteContent(b), meta.size, nil
	}
	f, err := os.Open(s.path(hash))
	if err != nil {
		return nil, 0, err
	}
	return f, meta.size, nil
}

// ReadAll materializes the whole blob as one contiguous slice. The
// ingest path uses it transiently for validation; it is not the serving
// path. The result may alias store-owned memory and must not be
// modified.
func (s *Store) ReadAll(hash string) ([]byte, error) {
	if b, ok := s.Bytes(hash); ok {
		return b, nil
	}
	s.mu.RLock()
	meta, ok := s.blobs[hash]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	if meta.chunks != nil {
		out := make([]byte, 0, meta.size)
		for _, c := range meta.chunks {
			out = append(out, c...)
		}
		return out, nil
	}
	return os.ReadFile(s.path(hash))
}

// Prewarm pulls a cache-eligible blob into the byte cache, bypassing
// the doorkeeper — the hook campaign seeding uses so the first
// participant already hits RAM. A no-op on the memory tier (always
// resident) and for blobs past the admission bound.
func (s *Store) Prewarm(hash string) {
	if s.cache == nil {
		return
	}
	s.mu.RLock()
	meta, ok := s.blobs[hash]
	s.mu.RUnlock()
	if !ok || meta.size > int64(s.chunk) {
		return
	}
	if _, ok := s.cache.get(hash); ok {
		return
	}
	b, err := os.ReadFile(s.path(hash))
	if err != nil {
		return
	}
	s.cache.admit(hash, b, true)
}
