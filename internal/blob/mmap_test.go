package blob

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"
)

// fileStore opens a file-tier store in a fresh directory.
func fileStore(t *testing.T, sink Telemetry) *Store {
	t.Helper()
	s, err := Open(Options{Dir: t.TempDir(), Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// putBytes stores p and fails the test on error.
func putBytes(t *testing.T, s *Store, p []byte) Ref {
	t.Helper()
	ref, _, err := s.Put(bytes.NewReader(p))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// failMaps makes every mapping fail, as on a platform without mmap,
// until the test ends.
func failMaps(t *testing.T) {
	orig := mapFile
	t.Cleanup(func() { mapFile = orig })
	mapFile = func(*os.File, int64) ([]byte, error) { return nil, syscall.ENOMEM }
}

// serveVideo answers a GET for hash the way the platform's video handler
// does: 304 on a matching If-None-Match before the store is read,
// resident bytes written whole for a full body, http.ServeContent for a
// Range or a file.
func serveVideo(s *Store, hash string) http.HandlerFunc {
	etag := `"` + hash + `"`
	return func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("Etag", etag)
		h.Set("Accept-Ranges", "bytes")
		h.Set("Content-Type", "video/x-eyv1")
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		b, rc, err := s.Serve(hash)
		switch {
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		case rc != nil:
			defer rc.Close()
			http.ServeContent(w, r, "", time.Time{}, rc)
		case r.Header.Get("Range") == "":
			h.Set("Content-Length", strconv.Itoa(len(b)))
			w.Write(b)
		default:
			http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(b))
		}
	}
}

// TestMapFailureServesIdenticalReplies: where a blob cannot be mapped it
// is served from its file, and every reply — full body, Range, 416, 304
// and If-Range either way — is byte-identical, headers included, to the
// reply from the mapping.
func TestMapFailureServesIdenticalReplies(t *testing.T) {
	payload := make([]byte, 10_000)
	rand.New(rand.NewSource(25)).Read(payload)
	mapped := fileStore(t, nil)
	ref := putBytes(t, mapped, payload)
	mapped.Prewarm(ref.Hash)
	if n, _ := mapped.Mapped(); n != 1 {
		t.Fatalf("prewarmed store maps %d blobs, want 1", n)
	}
	failMaps(t)
	file := fileStore(t, nil)
	putBytes(t, file, payload)
	etag := `"` + ref.Hash + `"`
	cases := []struct {
		name   string
		hdr    map[string]string
		status int
		body   []byte
	}{
		{"full", nil, http.StatusOK, payload},
		{"range", map[string]string{"Range": "bytes=100-1099"}, http.StatusPartialContent, payload[100:1100]},
		{"suffix", map[string]string{"Range": "bytes=-7"}, http.StatusPartialContent, payload[len(payload)-7:]},
		{"past end", map[string]string{"Range": "bytes=20000-"}, http.StatusRequestedRangeNotSatisfiable, nil},
		{"not modified", map[string]string{"If-None-Match": etag}, http.StatusNotModified, []byte{}},
		{"if-range current", map[string]string{"Range": "bytes=0-9", "If-Range": etag}, http.StatusPartialContent, payload[:10]},
		{"if-range stale", map[string]string{"Range": "bytes=0-9", "If-Range": `"stale"`}, http.StatusOK, payload},
	}
	for _, c := range cases {
		var got [2]*httptest.ResponseRecorder
		for i, s := range []*Store{mapped, file} {
			req := httptest.NewRequest("GET", "/video", nil)
			for k, v := range c.hdr {
				req.Header.Set(k, v)
			}
			got[i] = httptest.NewRecorder()
			serveVideo(s, ref.Hash).ServeHTTP(got[i], req)
		}
		m, f := got[0], got[1]
		if m.Code != c.status || f.Code != c.status {
			t.Fatalf("%s: status mapped %d, file %d, want %d", c.name, m.Code, f.Code, c.status)
		}
		if !reflect.DeepEqual(m.Header(), f.Header()) {
			t.Fatalf("%s: headers differ:\nmapped %v\nfile   %v", c.name, m.Header(), f.Header())
		}
		if !bytes.Equal(m.Body.Bytes(), f.Body.Bytes()) {
			t.Fatalf("%s: bodies differ (%d vs %d bytes)", c.name, m.Body.Len(), f.Body.Len())
		}
		if c.body != nil && !bytes.Equal(m.Body.Bytes(), c.body) {
			t.Fatalf("%s: body is not the uploaded bytes (%d bytes)", c.name, m.Body.Len())
		}
	}
	if n, _ := file.Mapped(); n != 0 {
		t.Fatalf("a store whose mappings fail maps %d blobs", n)
	}
}

// TestMapCountBounded: once the process holds maxMaps mappings, a blob's
// first read is served from its file and maps nothing, so the process
// never nears vm.max_map_count; a freed slot maps the next read.
func TestMapCountBounded(t *testing.T) {
	s := fileStore(t, nil)
	payload := []byte("one blob past the bound")
	ref := putBytes(t, s, payload)
	taken := maxMaps - maps.Load() // slots the test pretends are in use
	maps.Add(taken)
	t.Cleanup(func() { maps.Add(-taken) })

	rc, _, err := s.Open(ref.Hash)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := rc.(*os.File)
	if !ok {
		t.Fatalf("Open past the bound returned %T, want *os.File", rc)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("file-served bytes differ from the upload (err %v)", err)
	}
	if n, _ := s.Mapped(); n != 0 || maps.Load() != maxMaps {
		t.Fatalf("past the bound: %d blobs mapped, %d mappings counted, want 0 and %d", n, maps.Load(), maxMaps)
	}

	taken--
	maps.Add(-1)
	b, rc, err := s.Serve(ref.Hash)
	if err != nil || rc != nil || !bytes.Equal(b, payload) {
		t.Fatalf("with a slot free the read was not mapped (rc %T, err %v)", rc, err)
	}
	if maps.Load() != maxMaps {
		t.Fatalf("%d mappings counted, want %d", maps.Load(), maxMaps)
	}
}

// TestZeroLengthBlob: an empty blob has nothing to map (mmap refuses a
// zero length) yet reads as resident empty bytes, and falls back to its
// empty file like any other where mapping fails.
func TestZeroLengthBlob(t *testing.T) {
	s := fileStore(t, nil)
	ref := putBytes(t, s, nil)
	b, rc, err := s.Serve(ref.Hash)
	if err != nil || rc != nil || len(b) != 0 {
		t.Fatalf("Serve: %d bytes, rc %T, err %v; want resident empty bytes", len(b), rc, err)
	}
	if b, ok := s.Bytes(ref.Hash); !ok || len(b) != 0 {
		t.Fatalf("Bytes after the first read: %d bytes, ok=%v", len(b), ok)
	}
	r, size, err := s.Open(ref.Hash)
	if err != nil || size != 0 {
		t.Fatalf("Open: size %d, err %v", size, err)
	}
	if got, err := io.ReadAll(r); err != nil || len(got) != 0 {
		t.Fatalf("Open read %d bytes (err %v)", len(got), err)
	}

	failMaps(t)
	fallback := fileStore(t, nil)
	ref = putBytes(t, fallback, nil)
	r, _, err = fallback.Open(ref.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.(*os.File); !ok {
		t.Fatalf("unmappable empty blob opened as %T, want *os.File", r)
	}
	if got, err := io.ReadAll(r); err != nil || len(got) != 0 {
		t.Fatalf("file read %d bytes (err %v)", len(got), err)
	}
}

// TestServedFileBlobsRetainNoHeap: serving a file-tier blob leaves its
// mapping's slice header in the heap and none of its bytes, so 64 served
// blobs of 64 KiB grow the live heap by less than one of them.
func TestServedFileBlobsRetainNoHeap(t *testing.T) {
	const n, size, perBlobLimit = 64, 64 << 10, 512
	s := fileStore(t, nil)
	hashes := make([]string, n)
	payload := make([]byte, size)
	for i := range hashes {
		binary.LittleEndian.PutUint64(payload, uint64(i))
		hashes[i] = putBytes(t, s, payload).Hash
	}
	before := liveHeap()
	for _, h := range hashes {
		if b, rc, err := s.Serve(h); err != nil || rc != nil || len(b) != size {
			t.Fatalf("Serve: %d bytes, rc %T, err %v", len(b), rc, err)
		}
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(s)
	t.Logf("%d served blobs of %d bytes: live heap grew %d bytes", n, size, grown)
	if grown > n*perBlobLimit {
		t.Fatalf("%d served blobs grew the live heap %d bytes, limit %d per blob", n, grown, perBlobLimit)
	}
	if blobs, bytes := s.Mapped(); blobs != n || bytes != n*size {
		t.Fatalf("Mapped = %d blobs %d bytes, want %d/%d", blobs, bytes, n, n*size)
	}
}

// TestCacheConcurrent races 16 goroutines on each blob's first read under
// -race: every blob ends with exactly one mapping (the losers unmapped
// theirs), every reader gets the uploaded bytes, and each read counts
// once.
func TestCacheConcurrent(t *testing.T) {
	const blobs, readers = 8, 16
	sink := &countSink{}
	s := fileStore(t, sink)
	payloads := make([][]byte, blobs)
	refs := make([]Ref, blobs)
	var total int64
	for i := range refs {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 4096+i)
		refs[i] = putBytes(t, s, payloads[i])
		total += refs[i].Size
	}
	before := maps.Load()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range refs {
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				b, rc, err := s.Serve(refs[i].Hash)
				if err != nil || rc != nil {
					t.Errorf("blob %d: Serve rc %T, err %v; want the mapping", i, rc, err)
					return
				}
				if !bytes.Equal(b, payloads[i]) {
					t.Errorf("blob %d: mapped bytes differ from the upload", i)
				}
			}(i)
		}
	}
	close(start)
	wg.Wait()
	if n := maps.Load() - before; n != blobs {
		t.Fatalf("%d mappings counted after racing first reads of %d blobs", n, blobs)
	}
	if n, size := s.Mapped(); n != blobs || size != total {
		t.Fatalf("Mapped = %d blobs %d bytes, want %d/%d", n, size, blobs, total)
	}
	if sink.hits+sink.misses != blobs*readers || sink.misses < blobs {
		t.Fatalf("%d reads counted %d hits and %d misses", blobs*readers, sink.hits, sink.misses)
	}
}

// TestCacheZipfHitRatio replays bench's video-delivery popularity — a
// seeded Zipf(1.0) over 192 videos — through the file tier. Nothing is
// ever evicted, so each video misses once, on the read that maps it, and
// every later read hits.
func TestCacheZipfHitRatio(t *testing.T) {
	sink := &countSink{}
	s := fileStore(t, sink)
	hashes := make([]string, 192)
	for i := range hashes {
		hashes[i] = putBytes(t, s, []byte(fmt.Sprintf("video %d", i))).Hash
	}
	trace := zipfTrace(1, len(hashes), 50_000)
	watched := map[int]bool{}
	for _, i := range trace {
		if b, rc, err := s.Serve(hashes[i]); err != nil || rc != nil || len(b) == 0 {
			t.Fatalf("video %d: Serve rc %T, err %v", i, rc, err)
		}
		watched[i] = true
	}
	t.Logf("hit ratio %.4f over %d reads of %d videos", float64(sink.hits)/float64(len(trace)), len(trace), len(watched))
	if sink.misses != len(watched) || sink.hits != len(trace)-len(watched) {
		t.Fatalf("%d reads of %d videos: %d hits, %d misses", len(trace), len(watched), sink.hits, sink.misses)
	}
}

// zipfTrace draws reads of n blobs with Zipf(1.0) popularity over a
// seeded shuffle of them, as bench's genDeliveryScript does.
func zipfTrace(seed int64, n, reads int) []int {
	r := rand.New(rand.NewSource(seed))
	rank := r.Perm(n)
	cum := make([]float64, n)
	total := 0.0
	for k := range cum {
		total += 1 / float64(k+1)
		cum[k] = total
	}
	trace := make([]int, reads)
	for i := range trace {
		trace[i] = rank[min(sort.SearchFloat64s(cum, r.Float64()*total), n-1)]
	}
	return trace
}

// TestCacheRemove: Discard, the only way a blob leaves the store, meets
// only blobs nothing has mapped — it removes their index entry and file
// — and panics on a mapped one, whose bytes a handler may be writing,
// without leaving the store locked.
func TestCacheRemove(t *testing.T) {
	s := fileStore(t, nil)
	doomed := putBytes(t, s, []byte("rejected upload"))
	if _, err := s.ReadAll(doomed.Hash); err != nil { // validation's read maps nothing
		t.Fatal(err)
	}
	s.Discard(doomed.Hash)
	if s.Has(doomed.Hash) {
		t.Fatal("discarded blob still indexed")
	}
	if _, err := os.Stat(s.path(doomed.Hash)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("discarded blob's file: %v, want it gone", err)
	}

	served := putBytes(t, s, []byte("registered video"))
	s.Prewarm(served.Hash)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Discard of a mapped blob returned")
			}
		}()
		s.Discard(served.Hash)
	}()
	if b, ok := s.Bytes(served.Hash); !ok || string(b) != "registered video" {
		t.Fatal("the refused Discard dropped the mapped blob")
	}
}
