// Read-path tests for content-addressed video delivery: Range and
// conditional semantics, the upload size cap, cross-tier persistence,
// the allocation-free resident-bytes gate, and a -race hammer over
// concurrent GET/flag/add on one hash.
package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// getVideo issues a GET for a video with optional Range and
// If-None-Match headers, returning the response (body drained).
func getVideo(c *client, id, rangeHdr, inm string) (*http.Response, []byte) {
	c.t.Helper()
	return fetchVideo(c, id, http.Header{"Range": {rangeHdr}, "If-None-Match": {inm}})
}

// fetchVideo issues a GET for a video with the non-empty headers of hdr,
// returning the response (body drained).
func fetchVideo(c *client, id string, hdr http.Header) (*http.Response, []byte) {
	c.t.Helper()
	req, err := http.NewRequest("GET", c.srv.URL+"/api/v1/videos/"+id, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	for k, v := range hdr {
		if v[0] != "" {
			req.Header.Set(k, v[0])
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, body
}

// largeVideoBytes is a valid EYV1 video of a few KiB, every frame a new
// paint, so a Range reply can be 1 KiB or longer: past the shared
// Content-Length values, like the benchmark's 64 KiB suffix.
func largeVideoBytes() []byte {
	var paints []browsersim.PaintEvent
	for i := 0; i < 15; i++ {
		paints = append(paints, browsersim.PaintEvent{
			T:     time.Duration(i) * 200 * time.Millisecond,
			Rect:  vision.Rect{X: i % 20, Y: i % 7, W: 10, H: 5},
			Value: vision.Tile(i + 1),
		})
	}
	return video.Encode(webpeg.Render(paints, 3*time.Second, 10))
}

// seedLargeVideo adds largeVideoBytes to a campaign of its own on h and
// returns the video's path and its ETag.
func seedLargeVideo(tb testing.TB, h http.Handler) (path, tag string) {
	tb.Helper()
	var created CreateCampaignResponse
	dispatch(tb, h, "POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "large video", Kind: "timeline"}, &created)
	var added AddVideoResponse
	dispatch(tb, h, "POST", "/api/v1/campaigns/"+created.ID+"/videos", largeVideoBytes(), &added)
	path = "/api/v1/videos/" + added.ID
	rec := (&fuzzEnv{handler: h}).do("GET", path, nil)
	if rec.Code != http.StatusOK || rec.Body.Len() < 2048 {
		tb.Fatalf("GET %s: %d, %d bytes", path, rec.Code, rec.Body.Len())
	}
	return path, rec.Header().Get("ETag")
}

func TestVideoRangeRequests(t *testing.T) {
	payload := sampleVideoBytes()
	n := len(payload)
	cases := []struct {
		name      string
		rangeHdr  string
		status    int
		wantBody  func() []byte
		wantRange string
	}{
		{"single", "bytes=0-9", http.StatusPartialContent,
			func() []byte { return payload[:10] },
			fmt.Sprintf("bytes 0-9/%d", n)},
		{"interior", "bytes=5-20", http.StatusPartialContent,
			func() []byte { return payload[5:21] },
			fmt.Sprintf("bytes 5-20/%d", n)},
		{"open-ended", "bytes=10-", http.StatusPartialContent,
			func() []byte { return payload[10:] },
			fmt.Sprintf("bytes 10-%d/%d", n-1, n)},
		{"suffix", "bytes=-7", http.StatusPartialContent,
			func() []byte { return payload[n-7:] },
			fmt.Sprintf("bytes %d-%d/%d", n-7, n-1, n)},
		{"unsatisfiable", fmt.Sprintf("bytes=%d-", n+100), http.StatusRequestedRangeNotSatisfiable,
			nil, ""},
		{"malformed", "bytes=nonsense", http.StatusRequestedRangeNotSatisfiable,
			nil, ""},
		// A zero-length suffix selects no byte (RFC 9110 §14.1.1).
		{"zero-length suffix", "bytes=-0", http.StatusRequestedRangeNotSatisfiable,
			nil, fmt.Sprintf("bytes */%d", n)},
		{"zero-length suffix beside a range", "bytes=-0, 0-9", http.StatusPartialContent,
			func() []byte { return payload[:10] },
			fmt.Sprintf("bytes 0-9/%d", n)},
		{"no-range", "", http.StatusOK,
			func() []byte { return payload }, ""},
	}
	// Same table against every tier: the semantics must not depend on
	// where the bytes live.
	tiers := map[string]Options{
		"mem":  {},
		"file": {DataDir: t.TempDir()},
	}
	for tier, opts := range tiers {
		srv, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c := newClientFor(t, srv)
		_, vids := setupCampaign(c, "timeline", 1)
		for _, tc := range cases {
			resp, body := getVideo(c, vids[0], tc.rangeHdr, "")
			if resp.StatusCode != tc.status {
				t.Fatalf("%s/%s: status = %d, want %d", tier, tc.name, resp.StatusCode, tc.status)
			}
			if tc.wantBody != nil && !bytes.Equal(body, tc.wantBody()) {
				t.Fatalf("%s/%s: body mismatch (%d vs %d bytes)", tier, tc.name, len(body), len(tc.wantBody()))
			}
			if tc.wantRange != "" && resp.Header.Get("Content-Range") != tc.wantRange {
				t.Fatalf("%s/%s: Content-Range = %q, want %q",
					tier, tc.name, resp.Header.Get("Content-Range"), tc.wantRange)
			}
			if tc.status == http.StatusOK || tc.status == http.StatusPartialContent {
				if resp.Header.Get("Accept-Ranges") != "bytes" {
					t.Fatalf("%s/%s: Accept-Ranges missing", tier, tc.name)
				}
			}
		}
	}
}

func TestVideoConditionalGet(t *testing.T) {
	c := newClient(t)
	_, vids := setupCampaign(c, "timeline", 1)
	payload := sampleVideoBytes()
	sum := sha256.Sum256(payload)
	wantTag := `"` + hex.EncodeToString(sum[:]) + `"`

	resp, body := getVideo(c, vids[0], "", "")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("initial GET: %d, %d bytes", resp.StatusCode, len(body))
	}
	tag := resp.Header.Get("ETag")
	if tag != wantTag {
		t.Fatalf("ETag = %s, want content hash %s", tag, wantTag)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "public, max-age=31536000, immutable" {
		t.Fatalf("Cache-Control = %q", cc)
	}
	// Revalidation with the tag: 304, empty body, tag still present.
	resp, body = getVideo(c, vids[0], "", tag)
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("If-None-Match: %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get("ETag") != tag {
		t.Fatalf("304 lost the ETag")
	}
	// Weak-form and list-form validators match too.
	for _, inm := range []string{"W/" + tag, `"other", ` + tag, "*"} {
		if resp, _ := getVideo(c, vids[0], "", inm); resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: %d, want 304", inm, resp.StatusCode)
		}
	}
	// A stale validator revalidates to the full body.
	if resp, body := getVideo(c, vids[0], "", `"stale"`); resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("stale If-None-Match: %d", resp.StatusCode)
	}
}

// TestVideoIfMatch: If-Match holds on every video GET, with or without
// Range (RFC 9110 §13.1.1). A matching tag or "*" serves the
// representation; any other tag is 412 with no body, whichever path would
// have written it.
func TestVideoIfMatch(t *testing.T) {
	c := newClient(t)
	_, vids := setupCampaign(c, "timeline", 1)
	payload := sampleVideoBytes()
	resp, _ := getVideo(c, vids[0], "", "")
	tag := resp.Header.Get("ETag")
	for _, im := range []string{tag, "*", `"stale"`} {
		for _, rng := range []string{"", "bytes=0-9"} {
			status, want := http.StatusOK, payload
			switch {
			case im == `"stale"`:
				status, want = http.StatusPreconditionFailed, nil
			case rng != "":
				status, want = http.StatusPartialContent, payload[:10]
			}
			resp, body := fetchVideo(c, vids[0], http.Header{"If-Match": {im}, "Range": {rng}})
			if resp.StatusCode != status || !bytes.Equal(body, want) {
				t.Errorf("If-Match %s, Range %q: %d with %d bytes, want %d with %d",
					im, rng, resp.StatusCode, len(body), status, len(want))
			}
		}
	}
}

func TestVideoETagStableAcrossFlagsAndBan(t *testing.T) {
	c := newClient(t)
	_, vids := setupCampaign(c, "timeline", 2)
	target := vids[0]
	resp, _ := getVideo(c, target, "", "")
	tag := resp.Header.Get("ETag")

	// Sub-threshold flags change nothing the client can see: the content
	// hash still validates, so cached copies keep answering 304.
	for i := 0; i < state.BanThreshold-1; i++ {
		c.do("POST", "/api/v1/videos/"+target+"/flag",
			map[string]string{"worker": fmt.Sprintf("flagger%d", i)}, nil)
		resp, _ := getVideo(c, target, "", tag)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("after %d flags: %d, want 304", i+1, resp.StatusCode)
		}
		if resp.Header.Get("ETag") != tag {
			t.Fatalf("ETag drifted after flag %d", i+1)
		}
	}
	// The banning flag flips the resource to 410 — a cached validator
	// must NOT short-circuit to 304 and mask the ban.
	c.do("POST", "/api/v1/videos/"+target+"/flag", map[string]string{"worker": "final"}, nil)
	for _, inm := range []string{"", tag} {
		if resp, _ := getVideo(c, target, "", inm); resp.StatusCode != http.StatusGone {
			t.Fatalf("banned video with If-None-Match %q: %d, want 410", inm, resp.StatusCode)
		}
	}
	// The sibling video (same content, same hash, distinct ID) is not
	// collateral damage: the ban bit lives on the video, not the blob.
	if resp, _ := getVideo(c, vids[1], "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("sibling video: %d, want 200", resp.StatusCode)
	}
}

func TestAddVideoOversizeRejected413(t *testing.T) {
	srv := NewServer()
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 1)
	// Stream maxVideoBytes+1 zero bytes without materializing them
	// client-side; the handler must refuse with an explicit 413 instead
	// of silently truncating at the cap and storing garbage.
	req := httptest.NewRequest("POST", "/api/v1/campaigns/"+id+"/videos",
		io.LimitReader(zeroReader{}, maxVideoBytes+1))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: %d, want 413", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("413 missing Retry-After")
	}
	// The rejected payload must not linger in the blob store.
	if n := srv.blobs.Len(); n != 1 { // just the seeded video
		t.Fatalf("blob store holds %d blobs after rejection, want 1", n)
	}
	// Exactly at the cap is allowed through to validation (422 here,
	// since zeros are not EYV1 — the point is it is not a 413).
	req = httptest.NewRequest("POST", "/api/v1/campaigns/"+id+"/videos",
		io.LimitReader(zeroReader{}, maxVideoBytes))
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("at-cap upload: %d, want 422", rec.Code)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestVideoDedupSharesOneBlob(t *testing.T) {
	srv := NewServer()
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 1)
	for i := 0; i < 4; i++ {
		if code := c.do("POST", "/api/v1/campaigns/"+id+"/videos", sampleVideoBytes(), nil); code != http.StatusCreated {
			t.Fatalf("add %d: %d", i, code)
		}
	}
	if n := srv.blobs.Len(); n != 1 {
		t.Fatalf("5 identical uploads stored %d blobs, want 1", n)
	}
	if n := srv.state.Counts().Videos; n != 5 {
		t.Fatalf("videos indexed: %d, want 5", n)
	}
}

// TestVideoCacheHitPathAllocFree is the acceptance gate: resolving a
// video ID and reading its resident bytes — the whole per-request video
// work beyond what net/http itself does — allocates nothing, on the
// memory tier and from the file tier's mapping (made when the video was
// uploaded).
func TestVideoCacheHitPathAllocFree(t *testing.T) {
	for tier, opts := range map[string]Options{"mem": {}, "file": {DataDir: t.TempDir()}} {
		srv, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c := newClientFor(t, srv)
		_, vids := setupCampaign(c, "timeline", 1)
		id := vids[0]
		want := len(sampleVideoBytes())
		allocs := testing.AllocsPerRun(1000, func() {
			v, banned, ok := srv.state.Video(id)
			if !ok || banned || v.ETag == "" || v.Size != int64(want) {
				t.Fatal("the video lookup failed")
			}
			b, rc, err := srv.blobs.Serve(v.Hash)
			if err != nil || rc != nil || len(b) != want {
				t.Fatalf("%s: resident fast path failed", tier)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: cache-hit GET path allocated %.1f times per request, want 0", tier, allocs)
		}
	}
}

// TestVideoGetCountedOnce: every full-body GET of a file-tier video is
// one lookup, counted once as a hit or a miss. A reopened server has
// mapped nothing, so the first GET is the one miss: it opens the file
// and maps it, and every later GET hits the mapping.
func TestVideoGetCountedOnce(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, vids := setupCampaign(newClientFor(t, srv), "timeline", 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	c := newClientFor(t, re)
	const k = 5
	for i := 0; i < k; i++ {
		if resp, _ := getVideo(c, vids[0], "", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %d: %d", i, resp.StatusCode)
		}
	}
	body := scrape(t, c)
	hits, _ := strconv.Atoi(metricValue(t, body, "eyeorg_blobcache_hits_total"))
	misses, _ := strconv.Atoi(metricValue(t, body, "eyeorg_blobcache_misses_total"))
	if misses != 1 || hits != k-1 {
		t.Fatalf("%d GETs counted %d hits and %d misses, want %d and 1", k, hits, misses, k-1)
	}
	if mapped := metricValue(t, body, "eyeorg_blobcache_mapped_blobs"); mapped != "1" {
		t.Fatalf("eyeorg_blobcache_mapped_blobs = %s after serving one video, want 1", mapped)
	}
}

// TestRejectedUploadLeavesNoMapping: uploads refused with 413 (over the
// cap) or 422 (not EYV1) on a file-tier server are discarded without
// ever being mapped — Discard would panic on a mapping — and leave
// neither a blob nor a file behind; only the registered video is mapped.
func TestRejectedUploadLeavesNoMapping(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := newClientFor(t, srv)
	id, _ := setupCampaign(c, "timeline", 1)
	for _, tc := range []struct {
		body   io.Reader
		status int
	}{
		{io.LimitReader(zeroReader{}, maxVideoBytes+1), http.StatusRequestEntityTooLarge},
		{bytes.NewReader([]byte("not a video")), http.StatusUnprocessableEntity},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/campaigns/"+id+"/videos", tc.body))
		if rec.Code != tc.status {
			t.Fatalf("upload: %d, want %d", rec.Code, tc.status)
		}
	}
	want := int64(len(sampleVideoBytes()))
	if blobs, n := srv.blobs.Mapped(); blobs != 1 || n != want {
		t.Fatalf("mapped %d blobs of %d bytes, want just the registered video's %d", blobs, n, want)
	}
	if n := srv.blobs.Len(); n != 1 {
		t.Fatalf("blob store holds %d blobs after two rejections, want 1", n)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "blobs", "*", "*"))
	temps, _ := filepath.Glob(filepath.Join(dir, "blobs", "put-*"))
	if len(files) != 1 || len(temps) != 0 {
		t.Fatalf("blob files on disk: %v and temp files %v, want the registered video's alone", files, temps)
	}
}

func TestVideoSurvivesReopenByHash(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c := newClientFor(t, srv)
	_, vids := setupCampaign(c, "timeline", 2)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	c2 := newClientFor(t, re)
	payload := sampleVideoBytes()
	resp, body := getVideo(c2, vids[0], "", "")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, payload) {
		t.Fatalf("reopened GET: %d, %d bytes", resp.StatusCode, len(body))
	}
	if resp.Header.Get("Content-Length") != strconv.Itoa(len(payload)) {
		t.Fatalf("Content-Length = %q", resp.Header.Get("Content-Length"))
	}
	// Range semantics survive the restart too.
	if resp, body := getVideo(c2, vids[1], "bytes=-9", ""); resp.StatusCode != http.StatusPartialContent ||
		!bytes.Equal(body, payload[len(payload)-9:]) {
		t.Fatalf("reopened suffix range: %d", resp.StatusCode)
	}
}

// TestVideoGetFlagAddHammer races readers, flaggers and duplicate
// uploaders over one content hash; run with -race in CI. Every observed
// status must be one the state machine can legally produce.
func TestVideoGetFlagAddHammer(t *testing.T) {
	srv := NewServer()
	c := newClientFor(t, srv)
	id, vids := setupCampaign(c, "timeline", 1)
	target := vids[0]
	payload := sampleVideoBytes()
	sum := sha256.Sum256(payload)
	tag := `"` + hex.EncodeToString(sum[:]) + `"`

	const readers = 4
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				var resp *http.Response
				var body []byte
				switch i % 3 {
				case 0:
					resp, body = getVideo(c, target, "", "")
				case 1:
					resp, body = getVideo(c, target, "", tag)
				default:
					resp, body = getVideo(c, target, "bytes=0-15", "")
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if !bytes.Equal(body, payload) {
						t.Errorf("reader %d: torn full read (%d bytes)", g, len(body))
						return
					}
				case http.StatusPartialContent:
					if !bytes.Equal(body, payload[:16]) {
						t.Errorf("reader %d: torn range read", g)
						return
					}
				case http.StatusNotModified, http.StatusGone:
					// Both legal: the flag goroutine bans mid-run.
				default:
					t.Errorf("reader %d: status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < state.BanThreshold+3; i++ {
			c.do("POST", "/api/v1/videos/"+target+"/flag",
				map[string]string{"worker": fmt.Sprintf("hammer%d", i)}, nil)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Duplicate uploads of the same bytes race the readers on the
		// shared blob; each must succeed and dedup to the same hash.
		for i := 0; i < 30; i++ {
			if code := c.do("POST", "/api/v1/campaigns/"+id+"/videos", sampleVideoBytes(), nil); code != http.StatusCreated {
				t.Errorf("racing add: %d", code)
				return
			}
		}
	}()
	wg.Wait()
	if n := srv.blobs.Len(); n != 1 {
		t.Fatalf("blob count after hammer: %d, want 1", n)
	}
}

// TestGoldenVideoHeaders pins the /videos/{id} response headers the way
// the /results goldens pin payload bytes: ETag format, cache policy,
// range capability and exact length. sampleVideoBytes is deterministic,
// so the content hash in the golden is stable. A suffix and a bounded
// 206 follow, each with every header but Date. Those two were recorded
// from http.ServeContent's replies, so they hold the handler's own
// single-range replies to ServeContent's header block.
func TestGoldenVideoHeaders(t *testing.T) {
	c := newClient(t)
	_, vids := setupCampaign(c, "timeline", 1)
	resp, _ := getVideo(c, vids[0], "", "")
	var buf bytes.Buffer
	for _, h := range []string{"ETag", "Cache-Control", "Accept-Ranges", "Content-Type", "Content-Length"} {
		fmt.Fprintf(&buf, "%s: %s\n", h, resp.Header.Get(h))
	}
	for _, rng := range []string{"bytes=-100", "bytes=10-19"} {
		resp, _ := getVideo(c, vids[0], rng, "")
		fmt.Fprintf(&buf, "\nRange: %s\n%s\n", rng, resp.Status)
		resp.Header.Del("Date")
		keys := make([]string, 0, len(resp.Header))
		for k := range resp.Header {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&buf, "%s: %s\n", k, strings.Join(resp.Header[k], ", "))
		}
	}
	checkGolden(t, "video_headers.txt", buf.Bytes())
}

// FuzzRangeHeader throws arbitrary Range and If-None-Match headers at
// the video endpoint. The oracle differs from the JSON targets — the
// body is binary — but the contract is as strict: only statuses the
// range state machine can produce, a 200 body is the payload, and a 206
// carries exactly the bytes its Content-Range names, a range the
// request asked for (checkPartial).
func FuzzRangeHeader(f *testing.F) {
	env := newFuzzEnv(f)
	payload := sampleVideoBytes()
	f.Add("bytes=0-9", "")
	f.Add("bytes=-1", `"deadbeef"`)
	f.Add("bytes=999999999-", "*")
	f.Add("bytes=0-0,5-9", "W/\"x\"")
	f.Add("bytes=\x00", "\xff")
	f.Add("bytes=-0", "")
	f.Add("bytes=3-3", "")
	f.Fuzz(func(t *testing.T, rangeHdr, inm string) {
		req := httptest.NewRequest("GET", "/api/v1/videos/"+env.video, nil)
		req.Header.Set("Range", rangeHdr)
		req.Header.Set("If-None-Match", inm)
		rec := httptest.NewRecorder()
		env.handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			if !bytes.Equal(rec.Body.Bytes(), payload) {
				t.Fatalf("200 body diverged from payload (%d bytes)", rec.Body.Len())
			}
		case http.StatusPartialContent:
			if err := checkPartial(rangeHdr, rec.Result().Header, rec.Body.Bytes(), payload); err != nil {
				t.Fatalf("Range %q: %v", rangeHdr, err)
			}
		case http.StatusNotModified, http.StatusRequestedRangeNotSatisfiable:
		default:
			t.Fatalf("video GET answered %d for Range=%q If-None-Match=%q", rec.Code, rangeHdr, inm)
		}
	})
}

// checkPartial holds a 206 to the payload it was cut from and the Range
// header it answers: its Content-Length is the body's length, and a
// single range's Content-Range names bytes a-b of the whole payload, a
// span the header asked for, with the body exactly payload[a:b+1]. A
// multipart/byteranges reply has two parts or more, each checked the
// same way against its own Content-Range.
func checkPartial(rangeHdr string, h http.Header, body, payload []byte) error {
	if cl := h.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		return fmt.Errorf("Content-Length %q for a %d-byte body", cl, len(body))
	}
	asked := requestedSpans(rangeHdr, len(payload))
	mt, params, err := mime.ParseMediaType(h.Get("Content-Type"))
	if err != nil || mt != "multipart/byteranges" {
		return checkSlice(h.Get("Content-Range"), body, payload, asked)
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	parts := 0
	for ; ; parts++ {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("part %d: %v", parts, err)
		}
		b, err := io.ReadAll(part)
		if err != nil {
			return fmt.Errorf("part %d: %v", parts, err)
		}
		if err := checkSlice(part.Header.Get("Content-Range"), b, payload, asked); err != nil {
			return fmt.Errorf("part %d: %v", parts, err)
		}
	}
	if parts < 2 {
		return fmt.Errorf("multipart reply of %d parts", parts)
	}
	return nil
}

// checkSlice checks one range: contentRange is "bytes a-b/size" with
// size the payload's length, [a, b+1) is one of the asked spans, and
// body is payload[a:b+1]. The range is never empty: a suffix range of
// zero length ("bytes=-0") selects nothing, and the handler does not
// answer it with one.
func checkSlice(contentRange string, body, payload []byte, asked [][2]int) error {
	var a, b, size int
	if _, err := fmt.Sscanf(contentRange, "bytes %d-%d/%d", &a, &b, &size); err != nil ||
		contentRange != fmt.Sprintf("bytes %d-%d/%d", a, b, size) {
		return fmt.Errorf("Content-Range %q is not bytes a-b/size", contentRange)
	}
	if size != len(payload) || a < 0 || a > b || b >= size {
		return fmt.Errorf("Content-Range %q outside a %d-byte payload", contentRange, len(payload))
	}
	if !slices.Contains(asked, [2]int{a, b + 1}) {
		return fmt.Errorf("Content-Range %q is none of the spans asked for, %v", contentRange, asked)
	}
	if !bytes.Equal(body, payload[a:b+1]) {
		return fmt.Errorf("Content-Range %q: the %d-byte body is not payload[%d:%d]", contentRange, len(body), a, b+1)
	}
	return nil
}

// requestedSpans returns the spans [start, end) of a size-byte payload
// that a Range header's specs name (RFC 9110 §14.1.2: a-b, a- and the
// suffix -n, clamped to the payload), each spec read as leniently as
// http.ServeContent reads it: around whitespace, with any sign
// strconv.ParseInt takes. A spec that names no byte of the payload
// yields no span.
func requestedSpans(header string, size int) [][2]int {
	specs, ok := strings.CutPrefix(header, "bytes=")
	if !ok {
		return nil
	}
	n := int64(size)
	var spans [][2]int
	for _, spec := range strings.Split(specs, ",") {
		first, last, ok := strings.Cut(strings.TrimSpace(spec), "-")
		if !ok {
			continue
		}
		first, last = strings.TrimSpace(first), strings.TrimSpace(last)
		a, errA := strconv.ParseInt(first, 10, 64)
		z, errZ := strconv.ParseInt(last, 10, 64)
		switch {
		case first == "" && errZ == nil && z >= 0:
			spans = append(spans, [2]int{int(n - min(z, n)), size})
		case errA != nil || a < 0 || a >= n:
		case last == "":
			spans = append(spans, [2]int{int(a), size})
		case errZ == nil && z >= a:
			spans = append(spans, [2]int{int(a), int(min(z, n-1) + 1)})
		}
	}
	return spans
}

// FuzzVideoReplyDifferential holds the video handler to http.ServeContent,
// the reference for every reply it writes itself (a full body, a 304, one
// range from resident bytes). For any Range, If-Range, If-Match and
// If-None-Match, by GET or HEAD, on a memory-tier server and on a
// file-tier server serving its mapping, the handler's status, every
// header and its body are what this Go version's ServeContent writes for
// the same request over the same bytes, after the headers the handler
// sets first. Multipart replies differ only by their random boundary,
// which is normalised. The one known divergence is a suffix range of
// zero length, which ServeContent answers with a range that ends before
// it starts: the handler's reply to a Range header holding one is
// ServeContent's to the header without it, or to bytes=size- (a 416)
// when no range is left (withoutZeroSuffixes).
func FuzzVideoReplyDifferential(f *testing.F) {
	payload := sampleVideoBytes()
	file, err := Open(Options{DataDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { file.Close() })
	envs := map[string]*fuzzEnv{"mem": newFuzzEnv(f), "file": seedFuzzEnv(f, file)}
	if n, _ := file.blobs.Mapped(); n != 1 {
		f.Fatalf("the file-tier server maps %d blobs, want its video's", n)
	}
	tag := envs["mem"].do("GET", "/api/v1/videos/"+envs["mem"].video, nil).Header().Get("ETag")
	for _, rng := range []string{"bytes=-65536", "bytes=0-9", "bytes=5-", "bytes=-1", "bytes=0-999999", "bytes=3-3",
		"bytes=-0", "bytes=-0,0-9", "bytes=- +00 ,", "bytes=+1-2", "bytes= 1-2", "bytes=9-2", "bytes=0-0,5-9", "bytes=999999-", ""} {
		f.Add(rng, "", "", "", false)
		f.Add(rng, "", "", "", true)
	}
	f.Add("bytes=0-9", tag, "", "", false)
	f.Add("bytes=0-9", `"stale"`, "", "", false)
	f.Add("bytes=0-9", "", tag, "", false)
	f.Add("", "", `"stale"`, "", false)
	f.Add("bytes=0-9", "", `"stale"`, tag, false)
	f.Add("bytes=0-9", "", "", tag+` "x"`, false)
	f.Add("", "", "", `W/`+tag, true)
	f.Fuzz(func(t *testing.T, rangeHdr, ifRange, ifMatch, inm string, head bool) {
		method := "GET"
		if head {
			method = "HEAD"
		}
		for tier, env := range envs {
			req := httptest.NewRequest(method, "/api/v1/videos/"+env.video, nil)
			for k, v := range map[string]string{"Range": rangeHdr, "If-Range": ifRange, "If-Match": ifMatch, "If-None-Match": inm} {
				if v != "" {
					req.Header.Set(k, v)
				}
			}
			got := httptest.NewRecorder()
			env.handler.ServeHTTP(got, req)
			want := httptest.NewRecorder()
			h := want.Header()
			h.Set("Etag", tag)
			h.Set("Cache-Control", "public, max-age=31536000, immutable")
			h.Set("Accept-Ranges", "bytes")
			h.Set("Content-Type", "application/octet-stream")
			if rng, ok := withoutZeroSuffixes(rangeHdr, len(payload)); ok {
				req = req.Clone(req.Context())
				req.Header.Set("Range", rng)
			}
			http.ServeContent(want, req, "", time.Time{}, bytes.NewReader(payload))
			g, w := normalizedReply(got), normalizedReply(want)
			if g != w {
				t.Fatalf("%s %s Range=%q If-Range=%q If-Match=%q If-None-Match=%q:\nhandler:      %q\nServeContent: %q",
					tier, method, rangeHdr, ifRange, ifMatch, inm, g, w)
			}
		}
	})
}

// zeroSuffix matches one spec of a Range header that http.ServeContent
// reads as a suffix range of zero length: a dash, then a zero with an
// optional plus sign and any run of zeros, around the ASCII whitespace
// textproto.TrimString takes off.
var zeroSuffix = regexp.MustCompile(`^[ \t\r\n]*-[ \t\r\n]*\+?0+[ \t\r\n]*$`)

// withoutZeroSuffixes returns the Range header whose ServeContent reply
// the video handler's reply to header must equal, and whether it differs
// from header: its zero-length suffix ranges taken out, and bytes=size-
// in place of a header left with no range.
func withoutZeroSuffixes(header string, size int) (string, bool) {
	specs, ok := strings.CutPrefix(header, "bytes=")
	if !ok {
		return header, false
	}
	var kept []string
	all := strings.Split(specs, ",")
	for _, spec := range all {
		if !zeroSuffix.MatchString(spec) {
			kept = append(kept, spec)
		}
	}
	switch {
	case len(kept) == len(all):
		return header, false
	case strings.Trim(strings.Join(kept, ""), " \t\r\n") == "":
		return fmt.Sprintf("bytes=%d-", size), true
	}
	return "bytes=" + strings.Join(kept, ","), true
}

// normalizedReply renders a recorded reply as its status, its headers in
// wire order and its body, with a multipart boundary replaced by a fixed
// string.
func normalizedReply(rec *httptest.ResponseRecorder) string {
	res := rec.Result()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d\n", res.StatusCode)
	res.Header.Write(&buf)
	buf.WriteString("\n")
	buf.Write(rec.Body.Bytes())
	out := buf.String()
	if _, params, err := mime.ParseMediaType(res.Header.Get("Content-Type")); err == nil && params["boundary"] != "" {
		out = strings.ReplaceAll(out, params["boundary"], "BOUNDARY")
	}
	return out
}

// BenchmarkVideoReply prices the video handler's own replies through the
// whole handler stack, with the budget test's reused request and writer:
// a full body, a 304 and a 2 KiB suffix range of a resident video.
func BenchmarkVideoReply(b *testing.B) {
	srv := NewServer()
	rig := &budgetRig{t: b, h: srv.Handler(), w: &discardWriter{header: http.Header{}}, body: &replayBody{}}
	path, tag := seedLargeVideo(b, rig.h)
	for _, bc := range []struct {
		name, header, value string
		status              int
	}{
		{"full", "", "", http.StatusOK},
		{"not-modified", "If-None-Match", tag, http.StatusNotModified},
		{"range", "Range", "bytes=-2048", http.StatusPartialContent},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rig.t = b
			req := rig.request("GET", "")
			if bc.header != "" {
				req.Header.Set(bc.header, bc.value)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rig.serve(req, path, nil, bc.status)
			}
		})
	}
}
