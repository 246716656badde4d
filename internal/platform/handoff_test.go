package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// TestHandoffIsTheCut: Handoff's export is exactly the state its fence
// cut. Everything the moving campaign took before it — a whole session,
// a video upload, an in-flight session's events and answer — reaches
// the importer, and everything after it is refused at the source. The
// importer serves the source's pre-fence /results and /analytics byte
// for byte, before and after it restarts, with the video arriving in
// the export's blobs and nothing of the campaign that stayed behind,
// and the in-flight session carries on there to completion.
func TestHandoffIsTheCut(t *testing.T) {
	src, c := openPersisted(t, t.TempDir(), Options{IDTag: "a.", SnapshotEvery: -1})
	defer src.Close()

	moving, vids := seedPersistedCampaign(t, c)
	staying, _ := setupCampaign(c, "timeline", 1)
	inflight := join(c, moving, "cut-inflight")
	c.do("POST", "/api/v1/sessions/"+inflight.Session+"/events", EventBatch{InstructionMs: 22_000}, nil)

	// Traffic up to the handoff: a whole session, a video upload, the
	// in-flight session's next events and answer — and a join on the
	// campaign that is not moving.
	whole := join(c, moving, "cut-whole")
	completeSession(c, whole, 1650, true, 11, 0)
	var added AddVideoResponse
	if code := c.do("POST", "/api/v1/campaigns/"+moving+"/videos", freshVideoBytes(), &added); code != http.StatusCreated {
		t.Fatalf("video upload before the handoff: %d", code)
	}
	tt := inflight.Tests[0]
	c.do("POST", "/api/v1/sessions/"+inflight.Session+"/events", EventBatch{
		VideoID: tt.VideoID, LoadMs: 800, TimeOnVideoMs: 19_000, Seeks: 9, Plays: 1, WatchedFraction: 0.8,
	}, nil)
	if code := c.do("POST", "/api/v1/sessions/"+inflight.Session+"/responses", ResponseBody{
		TestID: tt.TestID, SliderMs: 1500, HelperMs: 1300, SubmittedMs: 1300, KeptOriginal: true,
	}, nil); code >= 300 {
		t.Fatalf("in-flight session's answer before the handoff: %d", code)
	}
	stayer := join(c, staying, "cut-stays")

	wantResults, wantAnalytics := rawResults(t, c, moving), rawAnalytics(t, c, moving)

	state, err := src.Handoff(moving, "b")
	if err != nil {
		t.Fatal(err)
	}
	// After the fence, every mutation on the campaign is refused.
	next := inflight.Tests[1]
	for name, req := range map[string]struct {
		path string
		body any
	}{
		"join":     {"/api/v1/sessions", JoinRequest{Campaign: moving, Worker: Worker{ID: "cut-late"}, Captcha: "ok"}},
		"events":   {"/api/v1/sessions/" + inflight.Session + "/events", EventBatch{VideoID: next.VideoID, Plays: 1}},
		"response": {"/api/v1/sessions/" + inflight.Session + "/responses", ResponseBody{TestID: next.TestID, SubmittedMs: 1300, KeptOriginal: true}},
		"video":    {"/api/v1/campaigns/" + moving + "/videos", sampleVideoBytes()},
		"flag":     {"/api/v1/videos/" + vids[0] + "/flag", map[string]string{"worker": "cut-flagger"}},
	} {
		if code := c.do("POST", req.path, req.body, nil); code != http.StatusConflict {
			t.Errorf("%s on the source after the handoff: %d, want 409", name, code)
		}
	}

	var ex campaignExport
	if err := json.Unmarshal(state, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Campaign.Moved != "" {
		t.Fatalf("the export carries moved=%q: the importer would install the campaign fenced", ex.Campaign.Moved)
	}
	v, _ := src.videos.Get(added.ID)
	if !bytes.Equal(ex.Blobs[v.Hash], freshVideoBytes()) {
		t.Fatalf("the export's blobs do not carry video %s (%s)", added.ID, v.Hash)
	}

	dir := t.TempDir()
	dst, c2 := openPersisted(t, dir, Options{IDTag: "b.", SnapshotEvery: -1})
	if err := dst.ImportCampaign(state); err != nil {
		t.Fatal(err)
	}
	check := func(when string, c2 *client) {
		t.Helper()
		if got := rawResults(t, c2, moving); !bytes.Equal(got, wantResults) {
			t.Fatalf("%s: /results differs from the source's pre-fence body\ngot:  %s\nwant: %s", when, got, wantResults)
		}
		if got := rawAnalytics(t, c2, moving); !bytes.Equal(got, wantAnalytics) {
			t.Fatalf("%s: /analytics differs from the source's pre-fence body\ngot:  %s\nwant: %s", when, got, wantAnalytics)
		}
		code, body := rawDo(t, c2, "GET", "/api/v1/videos/"+added.ID, nil)
		if code != http.StatusOK || !bytes.Equal(body, freshVideoBytes()) {
			t.Fatalf("%s: video uploaded before the handoff answers %d with %d bytes", when, code, len(body))
		}
		for _, path := range []string{
			"/api/v1/campaigns/" + staying + "/results",
			"/api/v1/sessions/" + stayer.Session + "/tests",
		} {
			if code, _ := rawDo(t, c2, "GET", path, nil); code != http.StatusNotFound {
				t.Fatalf("%s: %s answers %d on the importer, want 404: the other campaign came along", when, path, code)
			}
		}
	}
	check("after import", c2)
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	dst, c2 = openPersisted(t, dir, Options{IDTag: "b.", SnapshotEvery: -1})
	defer dst.Close()
	check("after reopening the importer", c2)
	// The in-flight session carries on where the source left it.
	if code := c2.do("POST", "/api/v1/sessions/"+inflight.Session+"/responses", ResponseBody{
		TestID: tt.TestID, SliderMs: 1500, SubmittedMs: 1300, KeptOriginal: true,
	}, nil); code != http.StatusConflict {
		t.Fatalf("re-answering the test answered on the source: %d, want 409", code)
	}
	completeSession(c2, JoinResponse{Session: inflight.Session, Tests: inflight.Tests[1:]}, 1450, true, 10, 0)
	if bytes.Equal(rawResults(t, c2, moving), wantResults) {
		t.Fatal("completing the in-flight session on the importer left /results unchanged")
	}
}

// TestImportRecordWithTailRefused: an import record that an earlier
// build journaled with a handoff tail — the records its source took
// between export and fence — carries a document of version 3 or older,
// as every such record does, so replaying it fails Open with an error
// naming the op and the version rather than silently drop the tail's
// mutations.
func TestImportRecordWithTailRefused(t *testing.T) {
	state, err := os.ReadFile(filepath.Join("testdata", "parent_v3_export.json"))
	if err != nil {
		t.Fatal(err)
	}
	tail, err := json.Marshal(&event{Op: opResponse, ID: "s10", Body: &ResponseBody{TestID: "s10-t1", SubmittedMs: 1300, KeptOriginal: true}})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(map[string]any{"op": opImport, "state": json.RawMessage(state), "tail": [][]byte{tail}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jl, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jl.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := Open(Options{DataDir: dir})
	if err == nil {
		srv.Close()
		t.Fatal("Open replayed an import record carrying a tail")
	}
	if version := fmt.Sprintf("version %d", stateVersion); !strings.Contains(err.Error(), opImport) || !strings.Contains(err.Error(), version) {
		t.Fatalf("Open: %v, want an error naming the import op and %s", err, version)
	}
}

// TestRefusedImportLeavesNothing: an import is checked whole before its
// record is journaled, so a durable node refusing one — a cut or
// misnumbered arena, a video whose blob the document does not carry, a
// version-3 document — holds no campaign, session or video of it, has
// no import record in its journal, and reopens.
func TestRefusedImportLeavesNothing(t *testing.T) {
	src := NewServer()
	campaign, _ := seedPersistedCampaign(t, newClientFor(t, src))
	state, err := src.Handoff(campaign, "b")
	if err != nil {
		t.Fatal(err)
	}
	corrupted := func(corrupt func(ex *campaignExport)) []byte {
		var ex campaignExport
		if err := json.Unmarshal(state, &ex); err != nil {
			t.Fatal(err)
		}
		corrupt(&ex)
		bad, err := json.Marshal(&ex)
		if err != nil {
			t.Fatal(err)
		}
		return bad
	}
	type refusal struct {
		doc  []byte
		want string
	}
	cases := map[string]refusal{}
	for name, corrupt := range arenaCorruptions {
		cases[name] = refusal{corrupted(func(ex *campaignExport) { corrupt(ex.Campaign) }), "campaign " + campaign}
	}
	cases["no blobs"] = refusal{corrupted(func(ex *campaignExport) { ex.Blobs = nil }), "missing blob"}
	cases["blob under another hash"] = refusal{corrupted(func(ex *campaignExport) {
		for hash := range ex.Blobs {
			ex.Blobs[hash] = freshVideoBytes()
		}
	}), "payload hashes to"}
	v3, err := os.ReadFile(filepath.Join("testdata", "parent_v3_export.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases["version 3"] = refusal{v3, fmt.Sprintf("version %d", stateVersion)}

	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			dst, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.ImportCampaign(tc.doc); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ImportCampaign: %v, want an error saying %q", err, tc.want)
			}
			assertNothingInstalled(t, dst)
			if err := dst.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range segs {
				b, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(b, []byte(`{"op":"import"`)) {
					t.Fatalf("%s holds the refused import's record", filepath.Base(p))
				}
			}
			reopened, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
			if err != nil {
				t.Fatalf("Open after the refused import: %v", err)
			}
			defer reopened.Close()
			assertNothingInstalled(t, reopened)
		})
	}
}

// TestImportOfHeldEntitiesRefused: installing a section overwrites
// index entries, so an import naming a campaign, video or session the
// node already holds is refused, and so is a snapshot whose sections
// share one, rather than cross-wire two campaigns.
func TestImportOfHeldEntitiesRefused(t *testing.T) {
	src := NewServer()
	campaign, _ := seedPersistedCampaign(t, newClientFor(t, src))
	state, err := src.Handoff(campaign, "b")
	if err != nil {
		t.Fatal(err)
	}
	dst := NewServer()
	if err := dst.ImportCampaign(state); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportCampaign(state); !errors.Is(err, errCampaignExists) {
		t.Fatalf("importing the campaign again: %v, want errCampaignExists", err)
	}
	var ex campaignExport
	if err := json.Unmarshal(state, &ex); err != nil {
		t.Fatal(err)
	}
	ex.Campaign.ID = "c-copy"
	for name, corrupt := range map[string]func(cn *snapCampaign){
		"video":   func(cn *snapCampaign) { cn.Inflight = nil },
		"session": func(cn *snapCampaign) { cn.Videos = cn.Videos[:0]; cn.Records, cn.Arena, cn.ArenaEnds = nil, nil, nil },
	} {
		cn := *ex.Campaign
		corrupt(&cn)
		copied, err := json.Marshal(&campaignExport{Version: stateVersion, Campaign: &cn, Blobs: ex.Blobs})
		if err != nil {
			t.Fatal(err)
		}
		before := [3]int{dst.campaigns.Len(), dst.sessions.Len(), dst.videos.Len()}
		err = dst.ImportCampaign(copied)
		if want := name + " "; err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "already held") {
			t.Fatalf("importing a copy sharing a %s: %v, want it refused as already held", name, err)
		}
		if after := [3]int{dst.campaigns.Len(), dst.sessions.Len(), dst.videos.Len()}; after != before {
			t.Fatalf("the refused copy moved the index sizes from %v to %v", before, after)
		}
	}
	snap, err := json.Marshal(&snapState{Version: stateVersion, Campaigns: []snapCampaign{*ex.Campaign, {ID: "c-other", Kind: "timeline", Videos: ex.Campaign.Videos[:1]}}})
	if err != nil {
		t.Fatal(err)
	}
	loaded := NewServer()
	if _, _, err := loaded.blobs.PutBytes(sampleVideoBytes()); err != nil {
		t.Fatal(err)
	}
	if err := loaded.loadState(snap); err == nil || !strings.Contains(err.Error(), "already held") {
		t.Fatalf("loading a snapshot whose sections share a video: %v, want it refused", err)
	}
}

// freshVideoBytes is a payload no seeded video shares, so its blob can
// only reach the importer in the export's blobs.
func freshVideoBytes() []byte {
	paints := []browsersim.PaintEvent{
		{T: 500 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 3},
		{T: 1700 * time.Millisecond, Rect: vision.Rect{X: 4, Y: 4, W: 20, H: 8}, Value: 1},
	}
	return video.Encode(webpeg.Render(paints, 3*time.Second, 10))
}
