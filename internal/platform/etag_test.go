package platform

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/platform/state"
)

// getConditional issues a GET with an optional If-None-Match header and
// returns the status, the ETag header, and the body.
func getConditional(c *client, path, inm string) (int, string, []byte) {
	c.t.Helper()
	req, err := http.NewRequest("GET", c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
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
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

func TestResultsETagRoundTrip(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 2)
	completeSession(c, join(c, id, "w1"), 1400, true, 10, 0)
	path := "/api/v1/campaigns/" + id + "/results"

	status, tag, body := getConditional(c, path, "")
	if status != http.StatusOK || tag == "" || len(body) == 0 {
		t.Fatalf("first GET: status=%d tag=%q body=%d bytes", status, tag, len(body))
	}
	status, tag2, body2 := getConditional(c, path, tag)
	if status != http.StatusNotModified || len(body2) != 0 {
		t.Fatalf("matching If-None-Match: status=%d body=%d bytes, want 304 empty", status, len(body2))
	}
	if tag2 != tag {
		t.Fatalf("304 carries tag %q, want %q", tag2, tag)
	}
	// Weak-validator and list forms must also match.
	if status, _, _ := getConditional(c, path, "W/"+tag); status != http.StatusNotModified {
		t.Fatalf("weak form not matched: %d", status)
	}
	if status, _, _ := getConditional(c, path, `"stale", `+tag); status != http.StatusNotModified {
		t.Fatalf("list form not matched: %d", status)
	}
	if status, _, _ := getConditional(c, path, "*"); status != http.StatusNotModified {
		t.Fatalf("wildcard not matched: %d", status)
	}
	if status, _, _ := getConditional(c, path, `"bogus"`); status != http.StatusOK {
		t.Fatalf("stale tag served 304: %d", status)
	}

	// A session completing is an invalidation hook: the body changes,
	// so the old tag must stop matching and the new tag must differ.
	completeSession(c, join(c, id, "w2"), 1500, true, 10, 0)
	status, tag3, body3 := getConditional(c, path, tag)
	if status != http.StatusOK || len(body3) == 0 {
		t.Fatalf("after completion with stale tag: status=%d body=%d bytes", status, len(body3))
	}
	if tag3 == tag {
		t.Fatal("ETag unchanged across a session completion")
	}
}

func TestResultsETagInvalidatedByBan(t *testing.T) {
	c := newClient(t)
	id, vids := setupCampaign(c, "timeline", 2)
	completeSession(c, join(c, id, "w1"), 1400, true, 10, 0)
	path := "/api/v1/campaigns/" + id + "/results"
	_, tag, _ := getConditional(c, path, "")

	for i := 0; i < state.BanThreshold; i++ {
		if code := c.do("POST", "/api/v1/videos/"+vids[0]+"/flag",
			map[string]string{"worker": string(rune('a' + i))}, nil); code != http.StatusOK {
			t.Fatalf("flag %d: %d", i, code)
		}
	}
	status, tag2, _ := getConditional(c, path, tag)
	if status != http.StatusOK || tag2 == tag {
		t.Fatalf("ban did not invalidate: status=%d tag %q -> %q", status, tag, tag2)
	}
}

func TestAnalyticsETagRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{})
	id, vids := setupCampaign(c, "timeline", 2)
	// Enough spread that a wider band admits more submissions.
	for i, submitted := range []float64{1400, 1500, 1700, 2600, 3100} {
		completeSession(c, join(c, id, fmt.Sprintf("done-%d", i)), submitted, true, 10, 0)
	}
	jr := join(c, id, "w1")
	path := "/api/v1/campaigns/" + id + "/analytics"
	// fresh fetches the payload with a validator that must no longer
	// match, and returns the new one.
	fresh := func(c *client, what, stale string) string {
		t.Helper()
		status, tag, body := getConditional(c, path, stale)
		if status != http.StatusOK || tag == "" || tag == stale || len(body) == 0 {
			t.Fatalf("%s: status=%d tag %q -> %q body=%d bytes, want 200 under a new tag", what, status, stale, tag, len(body))
		}
		// The tag ends in the body length, which nothing counted by
		// encoding the body: it must be what was sent.
		if want := fmt.Sprintf("-%x\"", len(body)); !strings.HasSuffix(tag, want) {
			t.Fatalf("%s: tag %s does not end in the body length %s", what, tag, want)
		}
		return tag
	}
	unchanged := func(c *client, what, tag string) {
		t.Helper()
		if status, got, body := getConditional(c, path, tag); status != http.StatusNotModified || len(body) != 0 || got != tag {
			t.Fatalf("%s: status=%d tag=%q body=%d bytes, want 304 under %q with no body", what, status, got, len(body), tag)
		}
	}
	events := func(c *client, vid string) {
		t.Helper()
		if code := c.do("POST", "/api/v1/sessions/"+jr.Session+"/events",
			EventBatch{VideoID: vid, LoadMs: 900, TimeOnVideoMs: 4000, Plays: 1, WatchedFraction: 1}, nil); code != http.StatusAccepted {
			t.Fatalf("events: %d", code)
		}
	}

	tag := fresh(c, "first GET", "")
	unchanged(c, "matching If-None-Match", tag)

	// An events batch changes an in-flight row's counters; the batch
	// that covers the last untouched video changes its provisional
	// verdict (soft -> kept) and nothing else in the row but one count.
	events(c, vids[0])
	tag = fresh(c, "after an events batch", tag)
	events(c, vids[1])
	tag = fresh(c, "after the provisional verdict changed", tag)
	unchanged(c, "revalidation with nothing in between", tag)

	// A different band is a different payload under a different tag.
	if status, other, _ := getConditional(c, path+"?lo=10&hi=90", tag); status != http.StatusOK || other == tag {
		t.Fatalf("lo=10&hi=90 under the default band's tag: status=%d tag %q", status, other)
	}

	// Equal state gives an equal tag across a restart: the digest of the
	// frozen rows is rebuilt by replay, not read back.
	c.srv.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, c2 := openPersisted(t, dir, Options{})
	defer srv2.Close()
	unchanged(c2, "after a restart", tag)

	// A completion moves a row from the live part to the frozen digest.
	for _, tt := range jr.Tests {
		if code := c2.do("POST", "/api/v1/sessions/"+jr.Session+"/responses",
			ResponseBody{TestID: tt.TestID, SubmittedMs: 1500, KeptOriginal: true}, nil); code != http.StatusAccepted {
			t.Fatalf("response: %d", code)
		}
	}
	fresh(c2, "after the session completed", tag)
}

// TestLargeRepliesAreFramedByLength: a JSON body past net/http's 2 KiB
// buffer used to leave chunked because nothing set its length.
func TestLargeRepliesAreFramedByLength(t *testing.T) {
	c := newClient(t)
	id, _ := setupCampaign(c, "timeline", 2)
	for i := 0; i < 40; i++ {
		join(c, id, fmt.Sprintf("framed-%d", i))
	}
	resp, err := http.Get(c.srv.URL + "/api/v1/campaigns/" + id + "/analytics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) <= 2<<10 {
		t.Fatalf("body of %d bytes does not exercise the case", len(body))
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("Content-Length %d, Transfer-Encoding %v for a %d-byte body", resp.ContentLength, resp.TransferEncoding, len(body))
	}
}

// TestETagMatchesAllocFree: every conditional GET — a video 304, a
// /results or /analytics revalidation — walks its If-None-Match header
// in place, whatever form the header takes.
func TestETagMatchesAllocFree(t *testing.T) {
	const tag = `"00c0ffee00c0ffee-1f4"`
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{tag, true},
		{`W/"stale", W/` + tag + `, *`, true},
		{`"stale", "staler" , ` + tag, true},
		{`"stale",*`, true},
		{`"stale", "staler",`, false},
		{`W/"stale"`, false},
		{"", false},
		// Read as http.ServeContent reads it: whitespace separates tags
		// too, a leading "*" matches, and the walk stops at the first
		// element that is not a quoted tag.
		{`"stale" ` + tag, true},
		{"*junk", true},
		{`junk, ` + tag, false},
		{`"st ale", ` + tag, false},
	} {
		if got := etagMatches(tc.header, tag); got != tc.want {
			t.Fatalf("etagMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { etagMatches(tc.header, tag) }); allocs != 0 {
			t.Fatalf("etagMatches(%q) allocates %.0f times, want 0", tc.header, allocs)
		}
	}
}
