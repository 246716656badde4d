// End-to-end durability-mode equivalence: the same seeded persona
// schedule, driven through the real generator against servers in every
// {fsync on/off} × {group commit on/off} configuration, must produce
// byte-identical /results and /analytics — durability tuning may move
// when bytes reach disk, never what the platform computes. Each server
// is also restarted over its data directory to pin recovery into the
// same contract.
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// syntheticPayloads builds n valid EYV1 videos with distinct paint
// schedules — the webpeg capture pipeline is not under test here.
func syntheticPayloads(n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		paints := []browsersim.PaintEvent{
			{T: time.Duration(200+i*80) * time.Millisecond,
				Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
			{T: time.Duration(900+i*150) * time.Millisecond,
				Rect: vision.Rect{X: 0, Y: 2, W: 30, H: 10}, Value: 2},
		}
		out = append(out, video.Encode(webpeg.Render(paints, 3*time.Second, 10)))
	}
	return out
}

func rawBody(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return body
}

// driveSchedule runs the deterministic schedule against one server
// configuration — with binary, flushing each session's events as one
// EYB1 batch — and returns the final /results and /analytics bytes,
// verified stable across a restart.
func driveSchedule(t *testing.T, opts platform.Options, binary bool, payloads [][]byte, sessions int) (results, analytics []byte) {
	t.Helper()
	srv, err := platform.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	client := newHTTPClient(4)
	campaign, _, err := seedCampaign(client, ts.URL, "timeline", payloads)
	if err != nil {
		t.Fatal(err)
	}
	g := &generator{
		client:    client,
		target:    ts.URL,
		campaigns: []string{campaign},
		kind:      "timeline",
		binary:    binary,
		deadline:  time.Now().Add(time.Hour),
	}
	// The schedule: a fresh seeded population answering sequentially, so
	// every configuration sees the identical request stream and the
	// float-order-sensitive aggregates cannot diverge.
	pop := crowd.NewPopulation(rng.New(99), crowd.PopulationConfig{Class: crowd.Paid, N: sessions})
	st := newWorkerStats()
	for i, p := range pop {
		if err := g.session(st, campaign, fmt.Sprintf("eq-w0-s%d", i+1), p); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	resultsURL := ts.URL + "/api/v1/campaigns/" + campaign + "/results"
	analyticsURL := ts.URL + "/api/v1/campaigns/" + campaign + "/analytics"
	results = rawBody(t, client, resultsURL)
	analytics = rawBody(t, client, analyticsURL)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery over the same directory must serve the same bytes.
	srv2, err := platform.Open(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resultsURL2 := ts2.URL + "/api/v1/campaigns/" + campaign + "/results"
	analyticsURL2 := ts2.URL + "/api/v1/campaigns/" + campaign + "/analytics"
	if got := rawBody(t, client, resultsURL2); !bytes.Equal(got, results) {
		t.Error("restart changed /results bytes")
	}
	if got := rawBody(t, client, analyticsURL2); !bytes.Equal(got, analytics) {
		t.Error("restart changed /analytics bytes")
	}
	return results, analytics
}

func TestDurabilityModeEquivalence(t *testing.T) {
	const sessions = 5
	payloads := syntheticPayloads(2)
	modes := []struct {
		name   string
		binary bool
		opts   platform.Options
	}{
		{"wal", false, platform.Options{}},
		{"wal-group", false, platform.Options{GroupCommit: true}},
		{"fsync-record", false, platform.Options{Fsync: true}},
		{"fsync-group", false, platform.Options{Fsync: true, GroupCommit: true}},
		// The EYB1 wire modes join the same equivalence class: the
		// protocol may change how events travel and land in the journal
		// (one batch record), never what the platform computes.
		{"wal-binary", true, platform.Options{}},
		{"fsync-group-binary", true, platform.Options{Fsync: true, GroupCommit: true}},
	}
	var wantResults, wantAnalytics []byte
	for _, m := range modes {
		m.opts.DataDir = t.TempDir()
		results, analytics := driveSchedule(t, m.opts, m.binary, payloads, sessions)
		if wantResults == nil {
			wantResults, wantAnalytics = results, analytics
			continue
		}
		if !bytes.Equal(results, wantResults) {
			t.Errorf("%s: /results diverges from %s", m.name, modes[0].name)
		}
		if !bytes.Equal(analytics, wantAnalytics) {
			t.Errorf("%s: /analytics diverges from %s", m.name, modes[0].name)
		}
	}
	if len(wantResults) == 0 || len(wantAnalytics) == 0 {
		t.Fatal("empty reference bodies")
	}
}
