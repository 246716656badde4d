package platform

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// windowRecorder is a Replicate observer that keeps every journaled
// record with its sequence, the way the cluster node does while a
// handoff is capturing.
type windowRecorder struct {
	mu   sync.Mutex
	recs map[uint64][]byte
	last uint64
}

func (r *windowRecorder) WindowDurable(w store.Window) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recs == nil {
		r.recs = map[uint64][]byte{}
	}
	for i, p := range w.Payloads {
		r.recs[w.First+uint64(i)] = p
	}
	r.last = w.Last
}

// since returns the recorded payloads with sequence > cut, in order.
func (r *windowRecorder) since(cut uint64) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][]byte
	for seq := cut + 1; seq <= r.last; seq++ {
		out = append(out, r.recs[seq])
	}
	return out
}

// TestHandoffTailReplay drives the one part of a campaign move no other
// test reaches: traffic between the export cut and the fence. Records
// journaled there are captured from the Replicate observer, filtered to
// the moving campaign by CampaignOfRecord and replayed, unjournaled, on
// top of the imported state — a video upload among them, whose payload
// has to ride in the record because the importer's blob store has never
// seen it. The importer must serve the exporter's exact pre-fence bytes,
// hold nothing of the campaign that stayed behind, and rebuild the same
// from its own single import record after a restart.
func TestHandoffTailReplay(t *testing.T) {
	rec := &windowRecorder{}
	src, c := openPersisted(t, t.TempDir(), Options{IDTag: "a.", SnapshotEvery: -1, Replicate: rec})
	defer src.Close()

	moving, _ := seedPersistedCampaign(t, c)
	staying, _ := setupCampaign(c, "timeline", 1)
	inflight := join(c, moving, "tail-inflight")
	c.do("POST", "/api/v1/sessions/"+inflight.Session+"/events", EventBatch{InstructionMs: 22_000}, nil)

	state, cut, err := src.ExportCampaign(moving)
	if err != nil {
		t.Fatal(err)
	}

	// Traffic after the cut: a whole session, a video upload, the
	// in-flight session's next events and answer — and a join on the
	// campaign that is not moving.
	whole := join(c, moving, "tail-whole")
	completeSession(c, whole, 1650, true, 11, 0)
	var added AddVideoResponse
	if code := c.do("POST", "/api/v1/campaigns/"+moving+"/videos", tailVideoBytes(), &added); code != http.StatusCreated {
		t.Fatalf("video upload after the cut: %d", code)
	}
	tt := inflight.Tests[0]
	c.do("POST", "/api/v1/sessions/"+inflight.Session+"/events", EventBatch{
		VideoID: tt.VideoID, LoadMs: 800, TimeOnVideoMs: 19_000, Seeks: 9, Plays: 1, WatchedFraction: 0.8,
	}, nil)
	if code := c.do("POST", "/api/v1/sessions/"+inflight.Session+"/responses", ResponseBody{
		TestID: tt.TestID, SliderMs: 1500, HelperMs: 1300, SubmittedMs: 1300, KeptOriginal: true,
	}, nil); code >= 300 {
		t.Fatalf("in-flight session's answer after the cut: %d", code)
	}
	stayer := join(c, staying, "tail-stays")

	wantResults, wantAnalytics := rawResults(t, c, moving), rawAnalytics(t, c, moving)

	if err := src.Handoff(moving, "b"); err != nil {
		t.Fatal(err)
	}
	if err := src.Barrier(); err != nil {
		t.Fatal(err)
	}
	// The tail exactly as Cluster.MoveCampaign builds it.
	var tail [][]byte
	ops := map[string]int{}
	carriesPayload := false
	for _, p := range rec.since(cut) {
		owner, ok := src.CampaignOfRecord(p)
		if !ok || owner != moving {
			continue
		}
		tail = append(tail, p)
		var ev event
		if err := json.Unmarshal(p, &ev); err != nil {
			t.Fatal(err)
		}
		ops[ev.Op]++
		if ev.Op == opVideo && ev.ID == added.ID && len(ev.Data) > 0 {
			carriesPayload = true
		}
	}
	want := map[string]int{
		opSession: 1, opVideo: 1, opHandoff: 1,
		opEvents:   1 + len(whole.Tests) + 1, // instructions, one per test, the in-flight session's
		opResponse: len(whole.Tests) + 1,
	}
	if !maps.Equal(ops, want) {
		t.Fatalf("tail of %d records holds %v, want %v: the other campaign's join leaked in, or the moving campaign's traffic is missing", len(tail), ops, want)
	}
	if !carriesPayload {
		t.Fatalf("the tail's video record for %s carries no payload", added.ID)
	}

	dir := t.TempDir()
	dst, c2 := openPersisted(t, dir, Options{IDTag: "b.", SnapshotEvery: -1})
	if err := dst.ImportCampaign(state, tail); err != nil {
		t.Fatal(err)
	}
	check := func(when string, c2 *client) {
		t.Helper()
		if got := rawResults(t, c2, moving); !bytes.Equal(got, wantResults) {
			t.Fatalf("%s: /results differs from the exporter's pre-fence body\ngot:  %s\nwant: %s", when, got, wantResults)
		}
		if got := rawAnalytics(t, c2, moving); !bytes.Equal(got, wantAnalytics) {
			t.Fatalf("%s: /analytics differs from the exporter's pre-fence body\ngot:  %s\nwant: %s", when, got, wantAnalytics)
		}
		code, body := rawDo(t, c2, "GET", "/api/v1/videos/"+added.ID, nil)
		if code != http.StatusOK || !bytes.Equal(body, tailVideoBytes()) {
			t.Fatalf("%s: video uploaded after the cut answers %d with %d bytes", when, code, len(body))
		}
		for _, path := range []string{
			"/api/v1/campaigns/" + staying + "/results",
			"/api/v1/sessions/" + stayer.Session + "/tests",
		} {
			if code, _ := rawDo(t, c2, "GET", path, nil); code != http.StatusNotFound {
				t.Fatalf("%s: %s answers %d on the importer, want 404: the other campaign's records came along", when, path, code)
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
	// The in-flight session carries on where the tail left it.
	if code := c2.do("POST", "/api/v1/sessions/"+inflight.Session+"/responses", ResponseBody{
		TestID: tt.TestID, SliderMs: 1500, SubmittedMs: 1300, KeptOriginal: true,
	}, nil); code != http.StatusConflict {
		t.Fatalf("re-answering the test answered in the tail: %d, want 409", code)
	}
	completeSession(c2, JoinResponse{Session: inflight.Session, Tests: inflight.Tests[1:]}, 1450, true, 10, 0)
	if bytes.Equal(rawResults(t, c2, moving), wantResults) {
		t.Fatal("completing the in-flight session on the importer left /results unchanged")
	}
}

// tailVideoBytes is a payload no seeded video shares, so its blob can
// only reach the importer inside the tail record.
func tailVideoBytes() []byte {
	paints := []browsersim.PaintEvent{
		{T: 500 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 3},
		{T: 1700 * time.Millisecond, Rect: vision.Rect{X: 4, Y: 4, W: 20, H: 8}, Value: 1},
	}
	return video.Encode(webpeg.Render(paints, 3*time.Second, 10))
}
