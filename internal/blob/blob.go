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
//     file, fronted by one byte cache of CacheBytes that evicts by SIEVE.
//     Blobs no larger than one chunk are cache-candidates; every read
//     of one bumps its decayed read count, and a miss is read into the
//     cache only into free room or when it has been read more often
//     than the entry it would evict, so the most watched videos stay
//     resident. Every other read — a miss the cache does not keep, or a
//     blob larger than a chunk — serves straight from its *os.File,
//     which http.ServeContent turns into sendfile on a real socket: no
//     heap copy, no garbage.
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
	"sync/atomic"
	"syscall"
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
	// CacheBytes caps the file tier's byte cache (0 =
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
	// reads counts the file tier's reads of the blob, decayed by
	// access: what byte-cache admission ranks blobs by.
	reads atomic.Uint32
}

// Store is a content-addressed blob store. All methods are safe for
// concurrent use.
type Store struct {
	dir   string
	chunk int
	fsync bool
	sink  Telemetry
	cache *cache       // nil on the memory tier or when disabled
	reads atomic.Int64 // cache-eligible reads since the counts last halved

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
		if err := durableDir(dir); err != nil {
			return err
		}
		return durableDir(s.dir)
	}
	return nil
}

// durableDir fsyncs a directory so a rename into it is durable. A
// filesystem that cannot fsync a directory at all (ENOTSUP/EINVAL) lacks
// the guarantee rather than failing a write, as for the journal
// (internal/store): refusing every upload there would fail a server
// whose journal runs fine.
func durableDir(dir string) error {
	err := syncDir(dir)
	if errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}

// syncDir fsyncs a directory. A variable so tests can inject failures.
var syncDir = func(dir string) error {
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
	meta, _ := s.lookup(hash)
	return meta != nil
}

// Size returns a blob's exact byte size.
func (s *Store) Size(hash string) (int64, bool) {
	if meta, _ := s.lookup(hash); meta != nil {
		return meta.size, true
	}
	return 0, false
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
// file tier — and reports false otherwise. It counts a hit but not a
// miss, and reads nothing: a server falls back through Serve, which
// counts the read once. The returned slice is the store's own and must
// not be modified.
func (s *Store) Bytes(hash string) ([]byte, bool) {
	meta, _ := s.lookup(hash)
	switch {
	case meta == nil:
		return nil, false
	case len(meta.chunks) == 1:
		return meta.chunks[0], true
	case meta.chunks == nil && s.cache != nil:
		return s.cache.get(hash)
	}
	return nil, false
}

// Serve is Bytes with Open as its fallback, in one lookup: it returns the
// blob's resident bytes as b, or else a reader over its content as rc
// (exactly one is set when err is nil). A cache-eligible read counts
// once, as a hit or a miss.
func (s *Store) Serve(hash string) (b []byte, rc io.ReadSeekCloser, err error) {
	b, rc, _, err = s.serve(hash)
	return b, rc, err
}

// Open returns the blob's content as an io.ReadSeekCloser sized for
// http.ServeContent:
//
//   - resident bytes (memory tier, cache hits) serve from RAM;
//   - a file-tier miss the byte cache admits is read once, kept, and
//     served from the read;
//   - every other file-tier read returns the *os.File itself, which
//     http.ServeContent drives with sendfile for a full body and with
//     Seek for a Range.
func (s *Store) Open(hash string) (io.ReadSeekCloser, int64, error) {
	b, rc, size, err := s.serve(hash)
	if err == nil && rc == nil {
		rc = byteContent{bytes.NewReader(b)}
	}
	return rc, size, err
}

func (s *Store) serve(hash string) ([]byte, io.ReadSeekCloser, int64, error) {
	meta, stored := s.lookup(hash)
	switch {
	case meta == nil:
		return nil, nil, 0, ErrNotFound
	case len(meta.chunks) == 1:
		return meta.chunks[0], nil, meta.size, nil
	case meta.chunks != nil:
		return nil, &chunkReader{chunks: meta.chunks, chunk: int64(s.chunk), size: meta.size}, meta.size, nil
	case s.cache != nil && meta.size <= int64(s.chunk):
		b, hit, admit := s.access(hash, meta, stored)
		if hit {
			return b, nil, meta.size, nil
		}
		if admit {
			b, err := os.ReadFile(s.path(hash))
			if err != nil {
				return nil, nil, 0, err
			}
			s.cache.put(hash, meta, b)
			return b, nil, meta.size, nil
		}
	}
	f, err := os.Open(s.path(hash))
	if err != nil {
		return nil, nil, 0, err
	}
	return nil, f, meta.size, nil
}

// access is one read of a cache-eligible blob: it bumps the blob's read
// count, looks the byte cache up once and counts the hit or the miss,
// and on a miss reports whether admission keeps the blob.
func (s *Store) access(hash string, meta *blobMeta, stored int) (b []byte, hit, admit bool) {
	reads := meta.reads.Add(1)
	if n := s.reads.Add(1); n >= 10*int64(stored) && s.reads.CompareAndSwap(n, 0) {
		// TinyLFU's reset: after ten reads per stored blob every count
		// halves, so popularity that has passed fades.
		s.mu.RLock()
		for _, m := range s.blobs {
			m.reads.Store(m.reads.Load() / 2)
		}
		s.mu.RUnlock()
	}
	if b, ok := s.cache.get(hash); ok {
		return b, true, false
	}
	s.cache.sinkMiss()
	return nil, false, s.cache.admits(hash, meta.size, reads)
}

// lookup returns hash's index entry (nil if unknown) and the number of
// blobs stored.
func (s *Store) lookup(hash string) (*blobMeta, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blobs[hash], len(s.blobs)
}

// ReadAll materializes the whole blob as one contiguous slice. The
// ingest path uses it transiently for validation; it is not the serving
// path. The result may alias store-owned memory and must not be
// modified.
func (s *Store) ReadAll(hash string) ([]byte, error) {
	if b, ok := s.Bytes(hash); ok {
		return b, nil
	}
	meta, _ := s.lookup(hash)
	if meta == nil {
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

// Prewarm reads a cache-eligible blob into the byte cache while it has
// free room — the hook campaign seeding uses so the first participants
// already hit RAM. It never evicts: a blob that does not fit is not
// even read, and waits for admission like any other. A no-op on the
// memory tier (always resident) and for blobs past the admission bound.
func (s *Store) Prewarm(hash string) {
	if s.cache == nil {
		return
	}
	meta, _ := s.lookup(hash)
	if meta == nil || !s.cache.admits(hash, meta.size, 0) {
		return
	}
	if b, err := os.ReadFile(s.path(hash)); err == nil {
		s.cache.put(hash, meta, b)
	}
}
