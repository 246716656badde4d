package blob

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
)

// videoBytes is the size bench's video-delivery videos encode to: 41
// noise frames of 48×27 tiles.
const videoBytes = 265_349

func TestCacheOversizeEntryRejected(t *testing.T) {
	c := newCache(1<<20, 64, nil)
	if c.admits("big1", 65, 1) {
		t.Fatal("over-max entry admitted")
	}
	c.put("big1", &blobMeta{}, make([]byte, 65))
	if _, ok := c.get("big1"); ok {
		t.Fatal("over-max entry resident")
	}
	if entries, _ := c.stats(); entries != 0 {
		t.Fatalf("entries = %d, want 0", entries)
	}
	// An entry can never outgrow the whole budget, whatever the chunk.
	if small := newCache(100, 1<<20, nil); small.admits("big2", 101, 1) {
		t.Fatal("entry larger than the cache admitted")
	}
}

func TestCacheRemove(t *testing.T) {
	c := newCache(1<<20, 1<<16, nil)
	c.put("gone", &blobMeta{}, []byte("x"))
	c.remove("gone")
	if _, ok := c.get("gone"); ok {
		t.Fatal("removed entry still resident")
	}
	if entries, b := c.stats(); entries != 0 || b != 0 {
		t.Fatalf("stats after remove = %d/%d, want 0/0", entries, b)
	}
	// The list survives removal from its middle and of the hand.
	for _, k := range []string{"a", "b", "c"} {
		c.put(k, &blobMeta{}, []byte(k))
	}
	c.remove("b")
	c.victim()
	c.remove("a")
	c.put("d", &blobMeta{}, []byte("d"))
	if entries, b := c.stats(); entries != 2 || b != 2 || c.tail.hash != "c" || c.head.hash != "d" {
		t.Fatalf("after removals: %d entries, %d bytes, tail %s head %s", entries, b, c.tail.hash, c.head.hash)
	}
}

// TestCacheUsesFullCapacity: the whole budget holds entries, not
// sixteen slices of it. 16 MiB keeps 63 videos of bench's size.
func TestCacheUsesFullCapacity(t *testing.T) {
	c := newCache(16<<20, 1<<20, nil)
	b := make([]byte, videoBytes)
	for i := 0; i < 63; i++ {
		k := fmt.Sprintf("v%d", i)
		if !c.admits(k, videoBytes, 0) {
			t.Fatalf("video %d refused with %d of %d bytes used", i, c.bytes, c.cap)
		}
		c.put(k, &blobMeta{}, b)
	}
	if c.admits("v63", videoBytes, 0) {
		t.Fatal("a 64th video admitted into free room")
	}
	if entries, n := c.stats(); entries != 63 || n != 63*videoBytes {
		t.Fatalf("stats = %d entries %d bytes, want 63/%d", entries, n, 63*videoBytes)
	}
}

// TestCacheSieveOrder: the hand evicts the oldest entry not read since it
// last passed, so a visited entry survives one pass; when every entry
// was read, one full pass clears them all and the oldest goes.
func TestCacheSieveOrder(t *testing.T) {
	b := make([]byte, 100)
	// resident looks without reading, so it sets no visited bit.
	resident := func(c *cache, want ...string) {
		t.Helper()
		var got []string
		for e := c.tail; e != nil; e = e.newer {
			got = append(got, e.hash)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("resident oldest first = %v, want %v", got, want)
		}
	}
	c := newCache(300, 100, nil)
	for _, k := range []string{"a", "b", "c"} {
		c.put(k, &blobMeta{}, b)
	}
	c.get("a")
	c.put("d", &blobMeta{}, b)
	resident(c, "a", "c", "d")
	c.put("e", &blobMeta{}, b)
	resident(c, "a", "d", "e")

	c = newCache(200, 100, nil)
	c.put("x", &blobMeta{}, b)
	c.put("y", &blobMeta{}, b)
	c.get("x")
	c.get("y")
	c.put("z", &blobMeta{}, b)
	resident(c, "y", "z")
}

// TestCacheFrequencyAdmission: a cold miss does not displace a hot entry
// and is sent from its file; once it has been read more often than the
// entry under the hand, it takes that entry's place.
func TestCacheFrequencyAdmission(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), ChunkBytes: 1 << 10, CacheBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := bytes.Repeat([]byte("h"), 1000), bytes.Repeat([]byte("c"), 1000)
	rh, _, _ := s.PutBytes(hot)
	rc, _, _ := s.PutBytes(cold)
	read := func(hash string) io.ReadSeekCloser {
		t.Helper()
		r, _, err := s.Open(hash)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	for i := 0; i < 3; i++ {
		read(rh.Hash)
	}
	f, ok := read(rc.Hash).(*os.File)
	if !ok {
		t.Fatal("a cold miss was read into the heap")
	}
	if got, err := io.ReadAll(f); err != nil || !bytes.Equal(got, cold) {
		t.Fatalf("file-served bytes differ from the upload (err %v)", err)
	}
	if _, ok := s.Bytes(rh.Hash); !ok {
		t.Fatal("a cold miss displaced the hot entry")
	}
	// Reads 2 and 3 of the cold blob tie or trail the hot one's 3; read 4 wins.
	for i := 0; i < 3; i++ {
		read(rc.Hash)
	}
	if _, ok := s.Bytes(rc.Hash); !ok {
		t.Fatal("a blob read more often than the victim was not admitted")
	}
	if _, ok := s.Bytes(rh.Hash); ok {
		t.Fatal("the victim stayed resident past the budget")
	}
}

// TestCacheZipfHitRatio replays bench's video-delivery popularity — a
// seeded Zipf(1.0) over 192 videos, 63 of which fit — through the
// store's admission and eviction policy.
func TestCacheZipfHitRatio(t *testing.T) {
	s, hashes := zipfStore(192, videoBytes, 16<<20)
	trace := zipfTrace(1, len(hashes), 50_000)
	hits := replay(s, hashes, trace, make([]byte, videoBytes))
	ratio := float64(hits) / float64(len(trace))
	t.Logf("hit ratio %.3f over %d reads", ratio, len(trace))
	if ratio < 0.75 {
		t.Fatalf("hit ratio %.3f, want >= 0.75", ratio)
	}
}

func BenchmarkCacheZipf(b *testing.B) {
	s, hashes := zipfStore(192, videoBytes, 16<<20)
	trace := zipfTrace(1, len(hashes), 1<<16)
	payload := make([]byte, videoBytes)
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for done := 0; done < b.N; done += len(trace) {
		hits += replay(s, hashes, trace[:min(len(trace), b.N-done)], payload)
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// zipfStore is a file-tier store over n blobs of size bytes with no
// files behind it: enough to drive the cache policy without a disk.
func zipfStore(n int, size, capacity int64) (*Store, []string) {
	s := &Store{chunk: int(size), blobs: map[string]*blobMeta{}, cache: newCache(capacity, size, nil)}
	hashes := make([]string, n)
	for i := range hashes {
		hashes[i] = fmt.Sprintf("%064x", i)
		s.blobs[hashes[i]] = &blobMeta{size: size}
	}
	return s, hashes
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

// replay reads trace through the store's cache policy, as serve does but
// with payload in place of each file, and returns the hits.
func replay(s *Store, hashes []string, trace []int, payload []byte) (hits int) {
	for _, i := range trace {
		h := hashes[i]
		meta := s.blobs[h]
		if _, hit, admit := s.access(h, meta, len(hashes)); hit {
			hits++
		} else if admit {
			s.cache.put(h, meta, payload)
		}
	}
	return hits
}

// TestCacheConcurrent hammers one cache from eight goroutines under
// -race: hits, admissions, evictions and removals interleave, and every
// reader keeps using the bytes it got after they have been evicted.
func TestCacheConcurrent(t *testing.T) {
	c := newCache(64*128, 1<<12, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held [][]byte
			for i := 0; i < 500; i++ {
				k := i % 97
				key := fmt.Sprintf("k%d", k)
				if b, ok := c.get(key); ok {
					held = append(held, b)
					continue
				}
				switch {
				case i%31 == 0:
					c.remove(key)
				case c.admits(key, 128, uint32(i%5)):
					c.put(key, &blobMeta{}, bytes.Repeat([]byte{byte(k)}, 128))
				}
			}
			for _, b := range held {
				if len(b) != 128 || bytes.Count(b, b[:1]) != 128 {
					t.Errorf("goroutine %d: held bytes changed after eviction", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	entries, total := c.stats()
	if entries > 64 || total != int64(entries)*128 {
		t.Fatalf("stats = %d entries %d bytes, want at most 64 of 128 bytes each", entries, total)
	}
}
