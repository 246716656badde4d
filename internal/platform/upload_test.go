package platform

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
)

// noiseVideoBytes encodes frames of 28-bit noise tiles drawn from the
// seed: the repo benchmark's delivery payload (41 frames, ~265 KB), with
// nearly every tile its own run and its value a four-byte varint.
func noiseVideoBytes(seed int64, frames int) []byte {
	r := rand.New(rand.NewSource(seed))
	v := &video.Video{FPS: video.DefaultFPS}
	for f := 0; f < frames; f++ {
		fr := vision.NewFrame()
		for y := 0; y < vision.GridH; y++ {
			for x := 0; x < vision.GridW; x++ {
				fr.Set(x, y, vision.Tile(r.Uint32()>>4))
			}
		}
		v.Frames = append(v.Frames, fr)
	}
	return video.Encode(v)
}

// refresher makes a noise payload new each time without re-encoding it:
// it rewrites the value of the first frame's first run, a four-byte
// varint, to one that depends on n. Any value keeps the payload valid;
// a distinct one gives it a distinct content address.
func refresher(payload []byte, frames int) func(n int) {
	off := 4 + uvarintSize(video.DefaultFPS) + uvarintSize(uint64(frames)) + uvarintSize(vision.GridW*vision.GridH)
	return func(n int) {
		binary.PutUvarint(payload[off:off+4], 1<<21+uint64(n)%(1<<27))
	}
}

func uvarintSize(x uint64) int { return len(binary.AppendUvarint(nil, x)) }

// uploadInPieces posts body to path over a connection of its own, the
// request head in one write and the body in pieces of 1–7 bytes (sizes
// drawn from seed), each its own write to the socket, and returns the
// reply's status and body.
func uploadInPieces(t *testing.T, addr, path string, body []byte, seed int64) (int, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", path, addr, len(body))
	if _, err := io.WriteString(conn, head); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	for len(body) > 0 {
		n := min(1+r.Intn(7), len(body))
		if _, err := conn.Write(body[:n]); err != nil {
			t.Fatalf("writing the body: %v", err)
		}
		body = body[n:]
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, reply
}

// videoTag is the ETag a server sends for a video: its content address.
func videoTag(t *testing.T, c *client, id string) string {
	t.Helper()
	resp, err := http.Get(c.srv.URL + "/api/v1/videos/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET video %s: %d", id, resp.StatusCode)
	}
	return resp.Header.Get("ETag")
}

// blobFiles lists a data dir's published blob files and the temp files
// of uploads in progress.
func blobFiles(dir string) (files, temps []string) {
	files, _ = filepath.Glob(filepath.Join(dir, "blobs", "*", "*"))
	temps, _ = filepath.Glob(filepath.Join(dir, "blobs", "put-*"))
	return files, temps
}

// TestUploadInPieces: an upload whose body reaches a file-tier server in
// pieces of 1–7 bytes over a real socket is checked as it streams. A
// valid one is stored under the same content address as the same bytes
// sent in one piece; an invalid one — cut short, corrupt midway, or
// garbage — is refused with 422 and leaves neither a blob file nor a
// temp file. A body corrupt midway, or garbage, is refused where the
// check fails, so no blob is published (eyeorg_blob_puts_total stays
// put) and none removed; one cut short is valid up to its end, so it is
// stored and then removed.
func TestUploadInPieces(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 1)
	path := "/api/v1/campaigns/" + id + "/videos"
	addr := c.srv.Listener.Addr().String()
	before, _ := blobFiles(dir)

	for i, payload := range [][]byte{sampleVideoBytes(), noiseVideoBytes(3, 3)} {
		var piecewise, whole AddVideoResponse
		status, reply := uploadInPieces(t, addr, path, payload, int64(i))
		if status != http.StatusCreated || json.Unmarshal(reply, &piecewise) != nil {
			t.Fatalf("payload %d in pieces: %d %s, want 201", i, status, reply)
		}
		if code := c.do("POST", path, payload, &whole); code != http.StatusCreated {
			t.Fatalf("payload %d in one piece: %d, want 201", i, code)
		}
		sum := sha256.Sum256(payload)
		want := strconv.Quote(hex.EncodeToString(sum[:]))
		if got, one := videoTag(t, c, piecewise.ID), videoTag(t, c, whole.ID); got != want || one != want {
			t.Fatalf("payload %d: stored as %s in pieces and %s in one, want %s", i, got, one, want)
		}
	}
	stored, _ := blobFiles(dir)
	if len(stored) != len(before)+1 { // the sample was already stored by setupCampaign
		t.Fatalf("%d blob files after two new uploads, want %d", len(stored), len(before)+1)
	}

	noise := noiseVideoBytes(4, 2)
	corrupt := bytes.Clone(noise)
	copy(corrupt[len(corrupt)/2:], bytes.Repeat([]byte{0xff}, 11)) // a varint past 64 bits
	for name, body := range map[string][]byte{
		"truncated": noise[:len(noise)-1],
		"corrupt":   corrupt,
		"garbage":   []byte("not a video, sent a few bytes at a time"),
	} {
		puts := metricValue(t, scrape(t, c), "eyeorg_blob_puts_total")
		if status, reply := uploadInPieces(t, addr, path, body, 9); status != http.StatusUnprocessableEntity {
			t.Fatalf("%s upload in pieces: %d %s, want 422", name, status, reply)
		}
		if files, temps := blobFiles(dir); len(files) != len(stored) || len(temps) != 0 {
			t.Fatalf("%s upload left blob files %v and temp files %v", name, files, temps)
		}
		if after := metricValue(t, scrape(t, c), "eyeorg_blob_puts_total"); name != "truncated" && after != puts {
			t.Fatalf("%s upload published a blob before it was refused: %s puts, %s before", name, after, puts)
		}
	}
}

// TestUploadOversizeInPieces: a body past the upload cap still gets 413
// when it arrives in small pieces. Its first 64 KiB come in pieces of
// 1–7 bytes, the rest in 1 MiB writes, and it leaves no file behind.
func TestUploadOversizeInPieces(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 1)
	addr := c.srv.Listener.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	size := maxVideoBytes + 1
	fmt.Fprintf(conn, "POST /api/v1/campaigns/%s/videos HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n", id, addr, size)
	// A valid head, so the check has not failed when the cap is reached.
	body := noiseVideoBytes(5, 11)
	r := rand.New(rand.NewSource(5))
	sent := 0
	for sent < 64<<10 {
		n := 1 + r.Intn(7)
		if _, err := conn.Write(body[sent : sent+n]); err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	zeros := make([]byte, 1<<20)
	for sent < size {
		n := min(len(zeros), size-sent)
		if _, err := conn.Write(zeros[:n]); err != nil {
			t.Fatal(err)
		}
		sent += n
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload in pieces: %d, want 413", resp.StatusCode)
	}
	if files, temps := blobFiles(dir); len(files) != 1 || len(temps) != 0 {
		t.Fatalf("oversize upload left blob files %v and temp files %v, want the seeded video's alone", files, temps)
	}
}

// TestUploadHeapDoesNotScaleWithPayload: a 4 MiB valid upload to a
// file-tier server, sent over a real socket, allocates about 44 KB of
// heap (client, server and store together): the body is hashed, written
// and checked read by read through one look-ahead buffer from the blob
// store's free list, never held whole. The bound is on the 16 measured
// uploads' total, so that one upload missing the free list, whose
// 64 KiB buffer adds about 4 KB to the average, fails it.
func TestUploadHeapDoesNotScaleWithPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries and inflates allocation")
	}
	const frames = 650 // ~4 MiB of noise
	payload := noiseVideoBytes(6, frames)
	if len(payload) < 4<<20 {
		t.Fatalf("payload is %d bytes, want at least 4 MiB", len(payload))
	}
	refresh := refresher(payload, frames)
	srv, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 1)
	path := "/api/v1/campaigns/" + id + "/videos"
	upload := func(n int) {
		refresh(n)
		resp, err := http.Post(c.srv.URL+path, "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %d: %d, want 201", n, resp.StatusCode)
		}
	}
	// Warm-up: the connection, and the store's look-ahead buffer.
	const warm, uploads = 4, 16
	for n := 0; n < warm; n++ {
		upload(n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := warm; n < warm+uploads; n++ {
		upload(n)
	}
	runtime.ReadMemStats(&after)
	// On a 2-CPU VM, 100 runs allocated 696-717 KB over the 16 uploads and
	// one run of another 100 739 KB; one more look-ahead buffer makes it at
	// least 761 KB.
	const bound = uploads*44<<10 + 28<<10
	total := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d uploads of %d bytes allocate %d bytes, %d each", uploads, len(payload), total, total/uploads)
	if total >= bound {
		t.Fatalf("%d uploads of %d bytes allocate %d bytes, want under %d: at least one took a look-ahead buffer the free list should have held", uploads, len(payload), total, bound)
	}
}

// BenchmarkAddVideo prices a fresh upload of the repo benchmark's
// delivery payload (41 frames of noise, ~265 KB) to a file-tier server,
// dispatched in process: hashed, written, checked and journaled. Every
// iteration uploads new content, so each one stores a blob; every 128
// the server is replaced, with the timer stopped, to bound the disk the
// benchmark fills.
func BenchmarkAddVideo(b *testing.B) {
	const frames, perServer = 41, 128
	payload := noiseVideoBytes(7, frames)
	refresh := refresher(payload, frames)
	var (
		srv  *Server
		dir  string
		path string
	)
	fresh := func() {
		if srv != nil {
			srv.Close()
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(b.TempDir(), "add-video-"); err != nil {
			b.Fatal(err)
		}
		if srv, err = Open(Options{DataDir: dir}); err != nil {
			b.Fatal(err)
		}
		var created CreateCampaignResponse
		dispatch(b, srv.Handler(), "POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "uploads", Kind: "timeline"}, &created)
		path = "/api/v1/campaigns/" + created.ID + "/videos"
	}
	fresh()
	defer func() { srv.Close() }()
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%perServer == 0 {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		refresh(i)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(payload)))
		if rec.Code != http.StatusCreated {
			b.Fatalf("upload %d: %d %s", i, rec.Code, rec.Body)
		}
	}
}
