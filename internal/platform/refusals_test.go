package platform

import (
	"errors"
	"io/fs"
	"net/http"
	"path/filepath"
	"testing"

	"github.com/eyeorg/eyeorg/internal/platform/state"
)

// TestVideoForUnknownCampaignLeavesNoBlob: an upload to a campaign the
// server does not hold is answered 404 before its bytes are stored, so
// no blob file is left behind for eyeorg_blobs to count and a restart to
// keep.
func TestVideoForUnknownCampaignLeavesNoBlob(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv.Close()
	if code := c.do("POST", "/api/v1/campaigns/cNOPE/videos", sampleVideoBytes(), nil); code != http.StatusNotFound {
		t.Fatalf("upload to an unknown campaign: %d, want 404", code)
	}
	if got := metricValue(t, scrape(t, c), "eyeorg_blobs"); got != "0" {
		t.Errorf("eyeorg_blobs is %s after a refused upload, want 0", got)
	}
	err := filepath.WalkDir(filepath.Join(dir, "blobs"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("a refused upload left %s", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCampaignIDCannotWrapCounter: the ID counter moves past every ID the
// server indexes, so a campaign ID ending in a number near the top of an
// int64 would wrap it, and after a restart a join would be minted the ID
// of a session still in flight. Such an ID is refused at create; one an
// earlier build journaled moves the counter neither live nor on replay,
// so every join across the restart gets an ID of its own.
func TestCampaignIDCannotWrapCounter(t *testing.T) {
	const huge = "c9223372036854775807"
	c := newClient(t)
	for _, id := range []string{huge, "c9007199254740993", "c99999999999999999999"} {
		if code := c.do("POST", "/api/v1/campaigns", CreateCampaignRequest{ID: id, Name: "wrap", Kind: "timeline"}, nil); code != http.StatusBadRequest {
			t.Errorf("create campaign %s: %d, want 400", id, code)
		}
	}
	if code := c.do("POST", "/api/v1/campaigns", CreateCampaignRequest{ID: "c9007199254740992", Name: "2^53", Kind: "timeline"}, nil); code != http.StatusCreated {
		t.Errorf("create campaign c9007199254740992 (2^53): %d, want 201", code)
	}

	// An earlier build's journal may carry the ID: its record applies
	// through the op table as this one does.
	dir := t.TempDir()
	srv, pc := openPersisted(t, dir, Options{SnapshotEvery: -1})
	if _, err := srv.mutate(&state.Event{Op: state.OpCampaign, ID: huge, Name: "wrap", Kind: "timeline"}, nil); err != nil {
		t.Fatal(err)
	}
	if code := pc.do("POST", "/api/v1/campaigns/"+huge+"/videos", sampleVideoBytes(), nil); code != http.StatusCreated {
		t.Fatalf("add video: %d", code)
	}
	seen := map[string]bool{}
	joinTwice := func(c *client) {
		for i := 0; i < 2; i++ {
			sid := join(c, huge, "wrap").Session
			if seen[sid] {
				t.Errorf("join minted %s, the ID of a session already in flight", sid)
			}
			seen[sid] = true
		}
	}
	joinTwice(pc)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, pc = openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv.Close()
	joinTwice(pc)
	if got := srv.SessionsInFlight(); got != 4 {
		t.Errorf("%d sessions in flight after four joins", got)
	}
	if got := metricValue(t, scrape(t, pc), "eyeorg_sessions_inflight"); got != "4" {
		t.Errorf("eyeorg_sessions_inflight is %s after four joins, want 4", got)
	}
	var ar AnalyticsResponse
	if code := pc.do("GET", "/api/v1/campaigns/"+huge+"/analytics", nil, &ar); code != http.StatusOK || len(ar.Participants) != 4 {
		t.Errorf("analytics: %d, %d participants, want 200 and 4", code, len(ar.Participants))
	}
}

// TestRefusalsBeforeMinting: the state refuses a create with no name or
// no such kind or a caller ID that is not a campaign's, and a join with
// no worker ID, before it mints anything. The replies are the bodies the
// handlers wrote when they made these checks themselves, and the join
// after them gets the ID it would have had. A campaign record the row
// refuses is ErrInvalidValue, which a direct Apply caller gets too, and
// statusFor answers 400.
func TestRefusalsBeforeMinting(t *testing.T) {
	c := newClient(t)
	campaign, _ := setupCampaign(c, "timeline", 1) // c1, v2
	shape := `{"error":"campaign needs a name and kind timeline|ab"}` + "\n"
	for _, r := range []struct {
		path string
		body any
		want string
	}{
		{"/api/v1/campaigns", CreateCampaignRequest{Name: "x", Kind: "weird"}, shape},
		{"/api/v1/campaigns", CreateCampaignRequest{Kind: "timeline"}, shape},
		{"/api/v1/campaigns", CreateCampaignRequest{ID: "x1", Name: "x", Kind: "ab"}, `{"error":"campaign id must match c[A-Za-z0-9.-]{1,63}, its number at most 2^53"}` + "\n"},
		{"/api/v1/sessions", JoinRequest{Campaign: campaign, Captcha: "tok"}, `{"error":"worker id required"}` + "\n"},
	} {
		if status, body := rawDo(t, c, "POST", r.path, r.body); status != http.StatusBadRequest || string(body) != r.want {
			t.Errorf("POST %s %+v: %d %s, want 400 %s", r.path, r.body, status, body, r.want)
		}
	}
	if sid := join(c, campaign, "w").Session; sid != "s3" {
		t.Errorf("the join after the refusals is %s, want s3", sid)
	}
	srv := NewServer()
	_, _, err := srv.state.Apply(&state.Event{Op: state.OpCampaign, ID: "c1", Kind: "timeline"}, nil)
	if !errors.Is(err, state.ErrInvalidValue) || statusFor(err) != http.StatusBadRequest || err.Error() != "campaign needs a name and kind timeline|ab" {
		t.Errorf("Apply of a campaign with no name: %v (status %d)", err, statusFor(err))
	}
}
