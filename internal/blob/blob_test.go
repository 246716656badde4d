package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
)

// tiers returns one store per serving tier.
func tiers(t *testing.T) map[string]*Store {
	t.Helper()
	out := map[string]*Store{}
	mem, err := Open(Options{})
	if err != nil {
		t.Fatalf("mem tier: %v", err)
	}
	out["mem"] = mem
	file, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("file tier: %v", err)
	}
	out["file"] = file
	return out
}

func TestPutRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte("chunky"), 100),
		bytes.Repeat([]byte{0xEE}, 64),
		bytes.Repeat([]byte{0xEE}, 65),
		bytes.Repeat([]byte("0123456789"), 1000),
	}
	for name, s := range tiers(t) {
		for i, p := range payloads {
			want := sha256.Sum256(p)
			ref, created, err := s.Put(bytes.NewReader(p))
			if err != nil {
				t.Fatalf("%s payload %d: Put: %v", name, i, err)
			}
			if !created {
				t.Fatalf("%s payload %d: expected new blob", name, i)
			}
			if ref.Hash != hex.EncodeToString(want[:]) {
				t.Fatalf("%s payload %d: hash = %s, want sha256", name, i, ref.Hash)
			}
			if ref.Size != int64(len(p)) {
				t.Fatalf("%s payload %d: size = %d, want %d", name, i, ref.Size, len(p))
			}
			got, err := s.ReadAll(ref.Hash)
			if err != nil {
				t.Fatalf("%s payload %d: ReadAll: %v", name, i, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("%s payload %d: round-trip mismatch (%d vs %d bytes)", name, i, len(got), len(p))
			}
		}
		if s.Len() != len(payloads) {
			t.Fatalf("%s: Len = %d, want %d", name, s.Len(), len(payloads))
		}
	}
}

func TestPutDeduplicates(t *testing.T) {
	for name, s := range tiers(t) {
		p := bytes.Repeat([]byte("dup"), 50)
		r1, created1, err := s.Put(bytes.NewReader(p))
		if err != nil || !created1 {
			t.Fatalf("%s: first Put: created=%v err=%v", name, created1, err)
		}
		r2, created2, err := s.Put(bytes.NewReader(p))
		if err != nil {
			t.Fatalf("%s: second Put: %v", name, err)
		}
		if created2 {
			t.Fatalf("%s: duplicate Put reported a new blob", name)
		}
		if r1 != r2 {
			t.Fatalf("%s: refs differ: %v vs %v", name, r1, r2)
		}
		if s.Len() != 1 {
			t.Fatalf("%s: Len = %d after dedup, want 1", name, s.Len())
		}
		if s.TotalBytes() != int64(len(p)) {
			t.Fatalf("%s: TotalBytes = %d, want %d", name, s.TotalBytes(), len(p))
		}
	}
}

func TestOpenSeekAndRange(t *testing.T) {
	p := make([]byte, 300)
	for i := range p {
		p[i] = byte(i)
	}
	for name, s := range tiers(t) {
		ref, _, err := s.Put(bytes.NewReader(p))
		if err != nil {
			t.Fatalf("%s: Put: %v", name, err)
		}
		rc, size, err := s.Open(ref.Hash)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if size != int64(len(p)) {
			t.Fatalf("%s: size = %d, want %d", name, size, len(p))
		}
		// Mid-stream range read.
		if _, err := rc.Seek(60, io.SeekStart); err != nil {
			t.Fatalf("%s: Seek: %v", name, err)
		}
		buf := make([]byte, 10)
		if _, err := io.ReadFull(rc, buf); err != nil {
			t.Fatalf("%s: ReadFull: %v", name, err)
		}
		if !bytes.Equal(buf, p[60:70]) {
			t.Fatalf("%s: range read mismatch: %v vs %v", name, buf, p[60:70])
		}
		// Suffix via SeekEnd.
		if _, err := rc.Seek(-5, io.SeekEnd); err != nil {
			t.Fatalf("%s: SeekEnd: %v", name, err)
		}
		rest, err := io.ReadAll(rc)
		if err != nil {
			t.Fatalf("%s: suffix read: %v", name, err)
		}
		if !bytes.Equal(rest, p[len(p)-5:]) {
			t.Fatalf("%s: suffix mismatch", name)
		}
		rc.Close()
	}
}

func TestBytesFastPath(t *testing.T) {
	single := bytes.Repeat([]byte("s"), 64)
	multi := bytes.Repeat([]byte("m"), lookaheadBytes+200) // more than one Put read
	for name, s := range tiers(t) {
		rs, _, _ := s.Put(bytes.NewReader(single))
		rm, _, _ := s.Put(bytes.NewReader(multi))
		b, ok := s.Bytes(rs.Hash)
		if name == "file" {
			// Unmapped: Bytes misses and maps nothing; the first Open maps
			// the blob, after which Bytes hits.
			if ok {
				t.Fatalf("file: Bytes hit before the blob was mapped")
			}
			rc, _, err := s.Open(rs.Hash)
			if err != nil {
				t.Fatalf("file: Open: %v", err)
			}
			rc.Close()
			b, ok = s.Bytes(rs.Hash)
		}
		if !ok || !bytes.Equal(b, single) {
			t.Fatalf("%s: Bytes fast path failed (ok=%v)", name, ok)
		}
		// A blob of more than one read is one slice too: resident on the
		// memory tier, mapped whole on the file tier.
		if name == "file" {
			rc, _, err := s.Open(rm.Hash)
			if err != nil {
				t.Fatalf("file: Open: %v", err)
			}
			rc.Close()
		}
		if b, ok := s.Bytes(rm.Hash); !ok || !bytes.Equal(b, multi) {
			t.Fatalf("%s: multi-read blob via Bytes: ok=%v", name, ok)
		}
		if _, ok := s.Bytes("deadbeef"); ok {
			t.Fatalf("%s: unknown hash served via Bytes", name)
		}
	}
}

func TestBytesZeroAlloc(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := s.Put(bytes.NewReader(bytes.Repeat([]byte("z"), 4096)))
	if err != nil {
		t.Fatal(err)
	}
	hash := ref.Hash
	allocs := testing.AllocsPerRun(1000, func() {
		b, ok := s.Bytes(hash)
		if !ok || len(b) != 4096 {
			t.Fatal("fast path failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Bytes allocated %.1f times per call, want 0", allocs)
	}
}

// TestMemoryTierStoresExactBytes: a memory-tier blob is one copy exactly
// as long as its content, whatever its size, so eight small videos cost
// about their own size and not eight look-ahead buffers.
func TestMemoryTierStoresExactBytes(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := s.Put(bytes.NewReader(bytes.Repeat([]byte("0123456789"), lookaheadBytes/10+5))) // two Put reads
	if err != nil {
		t.Fatal(err)
	}
	checkExactSlice(t, s, large.Hash)
	s.Discard(large.Hash)

	r := rand.New(rand.NewSource(21))
	payloads := make([][]byte, 8)
	var sum int
	for i := range payloads {
		payloads[i] = make([]byte, 10_000+2_000*i)
		r.Read(payloads[i])
		sum += len(payloads[i])
	}
	before := liveHeap()
	for _, p := range payloads {
		ref, _, err := s.Put(bytes.NewReader(p))
		if err != nil {
			t.Fatal(err)
		}
		checkExactSlice(t, s, ref.Hash)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(payloads) // counted in before: must not be freed by after
	runtime.KeepAlive(s)
	t.Logf("8 blobs of %d bytes in all: live heap grew %d bytes", sum, grown)
	if limit := int64(1.1*float64(sum)) + 4<<10; grown > limit {
		t.Fatalf("8 blobs of %d bytes in all grew the live heap %d bytes, limit %d", sum, grown, limit)
	}
}

// checkExactSlice fails unless the memory-tier blob hash is resident as
// one slice of its size with no capacity past its length.
func checkExactSlice(t *testing.T, s *Store, hash string) {
	t.Helper()
	meta := s.lookup(hash)
	b := *meta.data.Load()
	if int64(len(b)) != meta.size || cap(b) != len(b) {
		t.Fatalf("blob %.8s: len %d cap %d for %d bytes", hash, len(b), cap(b), meta.size)
	}
}

// TestPutReusesLookahead: once the pool is warm, a Put allocates what it
// stores and no look-ahead buffer of its own, on either tier. The bound
// leaves room for the race detector, under which sync.Pool drops a
// quarter of what it is given.
func TestPutReusesLookahead(t *testing.T) {
	const puts = 100
	payload := bytes.Repeat([]byte("v"), 1000)
	for name, s := range tiers(t) {
		if _, _, err := s.Put(bytes.NewReader(payload)); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < puts; i++ {
			if _, _, err := s.Put(bytes.NewReader(payload)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d Puts of %d bytes allocated %d bytes", name, puts, len(payload), allocated)
		if allocated > puts/2*lookaheadBytes {
			t.Fatalf("%s: %d Puts allocated %d bytes, as much as a look-ahead buffer for every other call", name, puts, allocated)
		}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func TestFileTierPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("persist"), 40)
	var hash string
	for _, pass := range []string{"first open", "reopen"} {
		s, err := Open(Options{Dir: dir, Fsync: true})
		if err != nil {
			t.Fatalf("%s: Open: %v", pass, err)
		}
		if hash == "" {
			ref, _, err := s.Put(bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			hash = ref.Hash
		}
		if !s.Has(hash) {
			t.Fatalf("%s: blob missing", pass)
		}
		got, err := s.ReadAll(hash)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: ReadAll: %v", pass, err)
		}
	}
}

// injectDirSync makes every directory fsync of a durable Put fail with
// errno, as a filesystem would, until the test ends.
func injectDirSync(t *testing.T, errno syscall.Errno) {
	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	syncDir = func(dir string) error {
		return &os.PathError{Op: "sync", Path: dir, Err: errno}
	}
}

// TestPutToleratesUnsupportedDirSync: on a filesystem that cannot fsync
// a directory (EINVAL), a durable Put succeeds, as journal appends do on
// the same filesystem.
func TestPutToleratesUnsupportedDirSync(t *testing.T) {
	injectDirSync(t, syscall.EINVAL)
	s, err := Open(Options{Dir: t.TempDir(), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("uploaded where directories cannot be fsynced")
	ref, created, err := s.Put(bytes.NewReader(payload))
	if err != nil || !created {
		t.Fatalf("Put: created=%v err=%v, want a stored blob", created, err)
	}
	if got, err := s.ReadAll(ref.Hash); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadAll: %q, %v", got, err)
	}
}

// TestPutFailsOnDirSyncError: a directory fsync that fails (EIO) fails
// the Put, and the store publishes nothing: the blob is not indexed, so
// no journal record can come to reference it, and a retry stores it.
func TestPutFailsOnDirSyncError(t *testing.T) {
	injectDirSync(t, syscall.EIO)
	s, err := Open(Options{Dir: t.TempDir(), Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("uploaded while the disk fails")
	if _, _, err := s.Put(bytes.NewReader(payload)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put: %v, want the EIO", err)
	}
	sum := sha256.Sum256(payload)
	hash := hex.EncodeToString(sum[:])
	if s.Has(hash) || s.Len() != 0 || s.TotalBytes() != 0 {
		t.Fatalf("a failed Put published: has=%v len=%d bytes=%d", s.Has(hash), s.Len(), s.TotalBytes())
	}
	if _, _, err := s.Open(hash); err != ErrNotFound {
		t.Fatalf("Open after a failed Put: %v, want ErrNotFound", err)
	}
	syncDir = func(string) error { return nil }
	if _, created, err := s.Put(bytes.NewReader(payload)); err != nil || !created {
		t.Fatalf("retry: created=%v err=%v, want a stored blob", created, err)
	}
}

// TestScanRemovesTempDebris: a crash mid-Put leaves its temp file in the
// blob root, up to an upload's full size; Open removes it. A file scan
// does not recognise in a prefix directory is not the store's, and stays.
func TestScanRemovesTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := s.Put(bytes.NewReader([]byte("real blob")))
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "put-123.tmp")
	foreign := filepath.Join(dir, ref.Hash[:2], "put-456.tmp")
	for _, p := range []string{torn, foreign} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen with debris: %v", err)
	}
	if s2.Len() != 1 || !s2.Has(ref.Hash) {
		t.Fatalf("reopen indexed %d blobs, want just the real one", s2.Len())
	}
	if _, err := os.Stat(torn); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("crashed upload's temp file after reopen: %v, want it removed", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file in a prefix directory: %v, want it left alone", err)
	}
}

func TestDiscard(t *testing.T) {
	for name, s := range tiers(t) {
		ref, _, err := s.Put(bytes.NewReader([]byte("doomed")))
		if err != nil {
			t.Fatal(err)
		}
		s.Discard(ref.Hash)
		if s.Has(ref.Hash) || s.Len() != 0 || s.TotalBytes() != 0 {
			t.Fatalf("%s: blob survived Discard", name)
		}
		if _, _, err := s.Open(ref.Hash); err != ErrNotFound {
			t.Fatalf("%s: Open after Discard: %v, want ErrNotFound", name, err)
		}
		// Re-put after discard works (content-deterministic failure retry).
		if _, created, err := s.Put(bytes.NewReader([]byte("doomed"))); err != nil || !created {
			t.Fatalf("%s: re-Put after Discard: created=%v err=%v", name, created, err)
		}
	}
}

func TestConcurrentPutAndRead(t *testing.T) {
	for name, s := range tiers(t) {
		const writers = 8
		var wg sync.WaitGroup
		refs := make([]Ref, writers)
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p := bytes.Repeat([]byte{byte('a' + i)}, 100*(i+1))
				ref, _, err := s.Put(bytes.NewReader(p))
				if err != nil {
					t.Errorf("%s writer %d: %v", name, i, err)
					return
				}
				refs[i] = ref
				for j := 0; j < 50; j++ {
					if _, err := s.ReadAll(ref.Hash); err != nil {
						t.Errorf("%s reader %d: %v", name, i, err)
						return
					}
				}
			}(i)
		}
		// Concurrent duplicate writers racing on the same content.
		same := []byte("contested content")
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := s.Put(bytes.NewReader(same)); err != nil {
					t.Errorf("%s dup writer: %v", name, err)
				}
			}()
		}
		wg.Wait()
		if s.Len() != writers+1 {
			t.Fatalf("%s: Len = %d, want %d", name, s.Len(), writers+1)
		}
	}
}

func TestFileTierServesOsFile(t *testing.T) {
	// A file-tier blob that cannot be mapped hands back the *os.File
	// itself so net/http can drive sendfile.
	failMaps(t)
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := s.Put(bytes.NewReader(bytes.Repeat([]byte("big"), 100)))
	if err != nil {
		t.Fatal(err)
	}
	rc, _, err := s.Open(ref.Hash)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if _, ok := rc.(*os.File); !ok {
		t.Fatalf("unmappable file-tier Open returned %T, want *os.File", rc)
	}
	if _, ok := s.Bytes(ref.Hash); ok {
		t.Fatal("an unmappable blob reads as resident")
	}
}

// TestPrewarm: Prewarm maps a blob without reading or counting it, so
// the first read already hits; prewarming a mapped blob opens nothing.
func TestPrewarm(t *testing.T) {
	sink := &countSink{}
	s, err := Open(Options{Dir: t.TempDir(), Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := s.Put(bytes.NewReader(bytes.Repeat([]byte("warm"), 64)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Bytes(ref.Hash); ok {
		t.Fatal("unread blob unexpectedly resident")
	}
	s.Prewarm(ref.Hash)
	if sink.hits != 0 || sink.misses != 0 {
		t.Fatalf("Prewarm counted %d hits and %d misses, want none", sink.hits, sink.misses)
	}
	if _, ok := s.Bytes(ref.Hash); !ok {
		t.Fatal("Prewarm did not make the blob resident")
	}
	if blobs, n := s.Mapped(); blobs != 1 || n != ref.Size {
		t.Fatalf("Mapped = %d blobs %d bytes, want 1/%d", blobs, n, ref.Size)
	}
	// Opening the file allocates; prewarming a mapped blob allocates nothing.
	if allocs := testing.AllocsPerRun(10, func() { s.Prewarm(ref.Hash) }); allocs != 0 {
		t.Fatalf("prewarming a mapped blob allocated %.0f times: it opened the file", allocs)
	}
}

// countSink records sink callbacks for telemetry assertions.
type countSink struct {
	mu                 sync.Mutex
	puts, hits, misses int
	putBytes, hitBytes int64
}

func (c *countSink) BlobPut(b int64) {
	c.mu.Lock()
	c.puts++
	c.putBytes += b
	c.mu.Unlock()
}
func (c *countSink) MapHit(b int) {
	c.mu.Lock()
	c.hits++
	c.hitBytes += int64(b)
	c.mu.Unlock()
}
func (c *countSink) MapMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

func TestSinkTelemetry(t *testing.T) {
	for _, tier := range []struct {
		name, dir          string
		hits, misses, maps int
	}{
		// Open #1 misses and maps the blob; #2 and #3 hit the mapping.
		// Each read counts once.
		{"file", t.TempDir(), 2, 1, 1},
		// The memory tier's blob is resident from Put on: its reads are
		// neither hits nor misses, and it maps nothing.
		{"mem", "", 0, 0, 0},
	} {
		sink := &countSink{}
		s, err := Open(Options{Dir: tier.dir, Metrics: sink})
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := s.Put(bytes.NewReader([]byte("telemetry payload")))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Put(bytes.NewReader([]byte("telemetry payload"))); err != nil {
			t.Fatal(err) // dedup: must not double-count
		}
		for i := 0; i < 3; i++ {
			rc, _, err := s.Open(ref.Hash)
			if err != nil {
				t.Fatal(err)
			}
			rc.Close()
		}
		if sink.puts != 1 || sink.putBytes != ref.Size {
			t.Fatalf("%s: puts = %d/%d bytes, want 1/%d", tier.name, sink.puts, sink.putBytes, ref.Size)
		}
		if sink.misses != tier.misses || sink.hits != tier.hits || sink.hitBytes != int64(tier.hits)*ref.Size {
			t.Fatalf("%s: hits=%d (%d bytes) misses=%d, want %d and %d", tier.name, sink.hits, sink.hitBytes, sink.misses, tier.hits, tier.misses)
		}
		if blobs, n := s.Mapped(); blobs != tier.maps || n != int64(tier.maps)*ref.Size {
			t.Fatalf("%s: Mapped = %d blobs %d bytes, want %d", tier.name, blobs, n, tier.maps)
		}
	}
}

func TestCorruptHashRejected(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "zz", "../../etc/passwd"} {
		if _, _, err := s.Open(bad); err != ErrNotFound {
			t.Fatalf("Open(%q) = %v, want ErrNotFound", bad, err)
		}
		if _, err := s.ReadAll(bad); err != ErrNotFound {
			t.Fatalf("ReadAll(%q) = %v, want ErrNotFound", bad, err)
		}
	}
}

func BenchmarkBytesHit(b *testing.B) {
	s, _ := Open(Options{})
	ref, _, _ := s.Put(bytes.NewReader(bytes.Repeat([]byte("b"), 16<<10)))
	hash := ref.Hash
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Bytes(hash); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkPut64K(b *testing.B) {
	s, _ := Open(Options{})
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte(fmt.Sprintf("p%02d", i)), 64<<10/3)
	}
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Put(bytes.NewReader(payloads[i%len(payloads)])); err != nil {
			b.Fatal(err)
		}
	}
}
