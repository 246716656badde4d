// Package blob is a content-addressed store for immutable byte blobs —
// the delivery backend for the platform's page-load videos, where every
// session downloads multiple payloads that never change once uploaded
// (PAPER.md §3: video bytes dwarf judgment bytes).
//
// Blobs are keyed by the SHA-256 of their content. Put streams the
// upload through the hasher in reads of one pooled look-ahead buffer,
// returned when Put does. Identical uploads deduplicate to one stored
// blob. The store never reads a blob back for its caller to check: a
// caller that validates content tees the reader it hands Put into its
// checker (the platform checks each video upload against the EYV1
// container this way), so the upload is hashed, stored and checked in
// one pass and the verdict is in when Put returns.
//
// A blob is resident bytes or a file. Two serving tiers share the API:
//
//   - the in-memory tier (no Dir) keeps each blob resident as one slice
//     exactly as long as its content, so a blob costs its own size — the
//     configuration for benchmarks and ephemeral servers, where the hit
//     path returns the stored slice with zero copies and zero
//     allocations. Put holds an upload of more than one look-ahead read
//     twice while it makes that exact copy;
//   - the file tier (Dir set) persists each blob as one contiguous file
//     and makes it resident as a read-only shared mapping of that file,
//     made on the blob's first read (or Prewarm) and kept for the life
//     of the process. The kernel's page cache is the only copy in RAM: a
//     read returns the mapping as one slice, with zero copies and zero
//     allocations, exactly as the memory tier returns its slice. Where a
//     blob cannot be mapped — a platform without mmap, a mapping error,
//     or more mappings than maxMaps — the read falls back to the blob's
//     *os.File, which a caller hands to http.ServeContent to get
//     sendfile on a real socket. Resident bytes need no seeker: a
//     caller may write them, or a slice of them, as they are.
//
// A mapping is never unmapped, because a handler may still be writing
// its bytes. That is sound because a file-tier blob is immutable: its
// file is renamed into place whole and never rewritten, and Discard
// refuses a blob that has been mapped. A blob file truncated under a
// live server turns a read of its mapping into SIGBUS.
//
// The store is crash-safe by construction: a blob becomes visible only
// after a temp-file rename (fsynced when Options.Fsync is set), so a
// journal record referencing a hash can always be replayed, and Open
// removes the temp files of uploads a crash interrupted. Telemetry
// (puts, mapped reads and file opens) flows through the dependency-free
// Telemetry hooks, as internal/store's observer does.
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

// lookaheadBytes is Put's read size: large enough that every realistic
// video payload arrives in one read.
const lookaheadBytes = 1 << 20

// maxMaps bounds the blob mappings a process makes. Each is one entry
// of the process's memory map, and Linux refuses an mmap past
// vm.max_map_count (65,530 by default) — the Go runtime's own next one
// included, which is fatal. Blobs read after the bound is reached are
// served from their files.
const maxMaps = 16 << 10

// maps counts the mappings every store in the process has made (or is
// making) against maxMaps.
var maps atomic.Int64

// tempPattern names Put's temp files in the blob root.
const tempPattern = "put-*.tmp"

// ErrNotFound reports a hash the store has never seen.
var ErrNotFound = errors.New("blob: not found")

// Options configures a Store.
type Options struct {
	// Dir selects the file tier: blobs persist under Dir/ab/<hash> and
	// survive restarts. Empty selects the in-memory tier.
	Dir string
	// CacheBytes is ignored.
	//
	// Deprecated: the file tier keeps no byte cache; the kernel's page
	// cache holds what it serves. The field remains only because the
	// bench module sets it.
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
	// data is the blob's resident bytes: on the memory tier one copy with
	// cap == len, set by Put before the blob is indexed; on the file tier
	// its read-only mapping, published once by mapBlob and never unmapped
	// (nil until the blob is mapped).
	data atomic.Pointer[[]byte]
}

// Store is a content-addressed blob store. All methods are safe for
// concurrent use.
type Store struct {
	dir   string
	fsync bool
	sink  Telemetry

	// lookahead recycles Put's read buffers (*[]byte).
	lookahead sync.Pool

	mu    sync.RWMutex
	blobs map[string]*blobMeta
	bytes int64 // sum of blob sizes, for the resident-bytes gauge
}

// Open returns a store over the configured tier. With a Dir it scans
// the directory, re-indexes every previously stored blob and removes
// the temp files of uploads a crash interrupted.
func Open(opts Options) (*Store, error) {
	s := &Store{
		dir:   opts.Dir,
		fsync: opts.Fsync,
		sink:  opts.Metrics,
		blobs: map[string]*blobMeta{},
	}
	s.lookahead.New = func() any {
		buf := make([]byte, lookaheadBytes)
		return &buf
	}
	if s.dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.scan(); err != nil {
		return nil, fmt.Errorf("blob: scanning %s: %w", s.dir, err)
	}
	return s, nil
}

// scan re-indexes the blob directory after a restart. File names are
// the content hashes; sizes come from the directory entries. A temp
// file in the root is an upload the process did not live to publish:
// nothing can reference it, so it is removed. Anything else scan does
// not recognise is left alone.
func (s *Store) scan() error {
	prefixes, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, p := range prefixes {
		if torn, _ := filepath.Match(tempPattern, p.Name()); torn && p.Type().IsRegular() {
			if err := os.Remove(filepath.Join(s.dir, p.Name())); err != nil {
				return err
			}
			continue
		}
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
				continue // foreign debris
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
// is read through one pooled look-ahead buffer, so nothing beyond the
// stored data is held past the call: the memory tier keeps one exact
// copy of the upload, and the file tier writes each read to a temp file
// that is atomically renamed into place (fsynced first when the store is
// durable).
func (s *Store) Put(r io.Reader) (Ref, bool, error) {
	h := sha256.New()
	var (
		held []byte // the memory tier's copy of the upload
		tmp  *os.File
		size int64
	)
	if s.dir != "" {
		f, err := os.CreateTemp(s.dir, tempPattern)
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
			switch {
			case tmp != nil:
				if _, werr := tmp.Write(buf); werr != nil {
					return Ref{}, false, werr
				}
			case held == nil && err != nil: // one read is the whole upload: copy it exactly, once
				held = append(make([]byte, 0, n), buf...)
			default:
				held = append(held, buf...)
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
		if cap(held) != len(held) {
			held = append(make([]byte, 0, len(held)), held...)
		}
		meta.data.Store(&held)
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

// Discard removes a blob. It exists for content-deterministic ingest
// failures (an upload that fails validation, or one that tripped the
// size cap): any concurrent Put of the same bytes fails the same checks,
// so removing the blob cannot orphan a reference.
//
// Such a blob was never registered as a video, so nothing has served it
// and it has no mapping: Put, the only read an upload makes, never maps,
// and the upload is checked as Put streams it, not read back. A mapped
// file-tier blob reaching Discard is a bug — a handler may be writing
// the mapping — and panics.
func (s *Store) Discard(hash string) {
	s.mu.Lock()
	meta, ok := s.blobs[hash]
	mapped := ok && s.dir != "" && meta.data.Load() != nil
	if ok && !mapped {
		delete(s.blobs, hash)
		s.bytes -= meta.size
	}
	s.mu.Unlock()
	switch {
	case mapped:
		panic("blob: Discard of mapped blob " + hash)
	case ok && s.dir != "":
		os.Remove(s.path(hash))
	}
}

// Has reports whether the store holds hash.
func (s *Store) Has(hash string) bool {
	return s.lookup(hash) != nil
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

// Mapped reports how many file-tier blobs are served from a mapping and
// their total size: the page-cache bytes the process has mapped. The
// memory tier maps nothing.
func (s *Store) Mapped() (blobs int, bytes int64) {
	if s.dir == "" {
		return 0, 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, meta := range s.blobs {
		if meta.data.Load() != nil {
			blobs++
			bytes += meta.size
		}
	}
	return blobs, bytes
}

// Bytes is the allocation-free hit path: it returns the blob's contents
// as one contiguous slice when they are already resident — every blob on
// the memory tier, a mapped blob on the file tier — and reports false
// otherwise. It counts a file-tier hit but not a miss, and maps
// nothing: a server falls back through Serve, which counts the read
// once. The returned slice is the store's own and must not be modified.
func (s *Store) Bytes(hash string) ([]byte, bool) {
	if meta := s.lookup(hash); meta != nil {
		return s.resident(meta)
	}
	return nil, false
}

// resident returns a blob's contents when they are resident, counting a
// file-tier read of its mapping as a hit.
func (s *Store) resident(meta *blobMeta) ([]byte, bool) {
	m := meta.data.Load()
	if m == nil {
		return nil, false
	}
	if s.dir != "" {
		s.sinkHit(len(*m))
	}
	return *m, true
}

// Serve is Bytes with Open as its fallback, in one lookup: it returns the
// blob's resident bytes as b, or else a reader over its content as rc
// (exactly one is set when err is nil). A file-tier read counts once, as
// a hit or a miss.
func (s *Store) Serve(hash string) (b []byte, rc io.ReadSeekCloser, err error) {
	b, rc, _, err = s.serve(hash)
	return b, rc, err
}

// Open returns the blob's content as an io.ReadSeekCloser sized for
// http.ServeContent:
//
//   - resident bytes (memory tier, mapped file-tier blobs) serve from
//     RAM, a file-tier blob's first read mapping it;
//   - a file-tier blob that cannot be mapped returns its *os.File,
//     which http.ServeContent drives with sendfile for a full body and
//     with Seek for a Range.
func (s *Store) Open(hash string) (io.ReadSeekCloser, int64, error) {
	b, rc, size, err := s.serve(hash)
	if err == nil && rc == nil {
		rc = byteContent{bytes.NewReader(b)}
	}
	return rc, size, err
}

// byteContent adapts resident bytes to the io.ReadSeekCloser
// http.ServeContent wants, without copying them.
type byteContent struct{ *bytes.Reader }

func (byteContent) Close() error { return nil }

func (s *Store) serve(hash string) ([]byte, io.ReadSeekCloser, int64, error) {
	meta := s.lookup(hash)
	if meta == nil {
		return nil, nil, 0, ErrNotFound
	}
	if b, ok := s.resident(meta); ok {
		return b, nil, meta.size, nil
	}
	s.sinkMiss()
	f, err := os.Open(s.path(hash))
	if err != nil {
		return nil, nil, 0, err
	}
	if b, ok := mapBlob(meta, f); ok {
		f.Close()
		return b, nil, meta.size, nil
	}
	return nil, f, meta.size, nil
}

// mapBlob maps f, the file of the blob meta indexes, and publishes the
// mapping. Racing first reads each map the file; the first to publish
// wins and the others unmap their own. It reports false, leaving the
// blob to be served from f, when the process has made maxMaps mappings
// or the mapping fails.
func mapBlob(meta *blobMeta, f *os.File) ([]byte, bool) {
	if maps.Add(1) > maxMaps {
		maps.Add(-1)
		return nil, false
	}
	b, err := mapFile(f, meta.size)
	if err != nil {
		maps.Add(-1)
		return nil, false
	}
	if !meta.data.CompareAndSwap(nil, &b) {
		unmapFile(b)
		maps.Add(-1)
		return *meta.data.Load(), true
	}
	return b, true
}

// lookup returns hash's index entry, nil if unknown.
func (s *Store) lookup(hash string) *blobMeta {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blobs[hash]
}

// Prewarm maps a file-tier blob ahead of its first read — the hook
// campaign seeding uses so the first participant is already served from
// the mapping. It reads no bytes and counts nothing. A no-op on the
// memory tier (always resident), for a blob already mapped, and where
// the blob cannot be mapped.
func (s *Store) Prewarm(hash string) {
	meta := s.lookup(hash)
	if meta == nil || meta.data.Load() != nil {
		return
	}
	f, err := os.Open(s.path(hash))
	if err != nil {
		return
	}
	mapBlob(meta, f)
	f.Close()
}
