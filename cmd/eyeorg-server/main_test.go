package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

func sampleVideoBytes() []byte {
	paints := []browsersim.PaintEvent{
		{T: 300 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
		{T: 1200 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 2, W: 30, H: 10}, Value: 2},
	}
	return video.Encode(webpeg.Render(paints, 3*time.Second, 10))
}

func post(t *testing.T, url string, body []byte, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestDrainOnSIGTERM is the regression test for the drain sequence: a
// SIGTERM while a participant is mid-assignment must keep serving that
// session's requests to completion (new joins get 503), then shut down
// cleanly with the completed record flushed to the journal.
func TestDrainOnSIGTERM(t *testing.T) {
	dataDir := t.TempDir()
	srv, err := platform.Open(platform.Options{
		DataDir: dataDir, Fsync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	sigc := make(chan os.Signal, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(srv, newHTTPServer(srv.Handler()), ln, sigc, 30*time.Second) }()

	// Seed a campaign with one video and join a session.
	var created platform.CreateCampaignResponse
	if code := post(t, base+"/api/v1/campaigns", []byte(`{"name":"drain","kind":"timeline"}`), &created); code != http.StatusCreated {
		t.Fatalf("create campaign: %d", code)
	}
	if code := post(t, base+"/api/v1/campaigns/"+created.ID+"/videos", sampleVideoBytes(), nil); code != http.StatusCreated {
		t.Fatalf("add video: %d", code)
	}
	joinBody := fmt.Sprintf(`{"campaign":%q,"worker":{"id":"w1"},"captcha":"tok"}`, created.ID)
	var jr platform.JoinResponse
	if code := post(t, base+"/api/v1/sessions", []byte(joinBody), &jr); code != http.StatusCreated {
		t.Fatalf("join: %d", code)
	}

	// SIGTERM mid-assignment, then wait for drain mode to engage.
	sigc <- syscall.SIGTERM
	for deadline := time.Now().Add(5 * time.Second); !srv.Draining(); {
		if time.Now().After(deadline) {
			t.Fatalf("server never entered drain mode")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New sessions are refused...
	if code := post(t, base+"/api/v1/sessions", []byte(joinBody), nil); code != http.StatusServiceUnavailable {
		t.Fatalf("join during drain = %d, want 503", code)
	}
	// ...but the in-flight session finishes its whole assignment.
	for _, tt := range jr.Tests {
		events := fmt.Sprintf(`{"video_id":%q,"load_ms":100,"time_on_video_ms":6000,"plays":1,"watched_fraction":1}`, tt.VideoID)
		if code := post(t, base+"/api/v1/sessions/"+jr.Session+"/events", []byte(events), nil); code != http.StatusAccepted {
			t.Fatalf("events during drain = %d, want 202", code)
		}
		resp := fmt.Sprintf(`{"test_id":%q,"submitted_ms":1400,"kept_original":true}`, tt.TestID)
		if code := post(t, base+"/api/v1/sessions/"+jr.Session+"/responses", []byte(resp), nil); code != http.StatusAccepted {
			t.Fatalf("response during drain = %d, want 202", code)
		}
	}

	// The drain completes once no session is in flight; run() exits
	// cleanly with the journal (group-commit window included) flushed.
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not exit after the in-flight session completed")
	}

	// Recovery proves the drained writes reached the journal.
	re, err := platform.Open(platform.Options{DataDir: dataDir})
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	defer re.Close()
	if n := re.SessionsInFlight(); n != 0 {
		t.Fatalf("recovered state has %d sessions in flight, want 0 (completion lost)", n)
	}
}

// TestDrainAbandonedSession: a session whose participant walked away
// never completes, so the drain must detect quiescence and exit after
// the idle grace instead of stalling the full -drain-timeout on every
// restart.
func TestDrainAbandonedSession(t *testing.T) {
	srv, err := platform.Open(platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	sigc := make(chan os.Signal, 1)
	runErr := make(chan error, 1)
	const drainTimeout = 60 * time.Second // quiescence must beat this by far
	go func() { runErr <- run(srv, newHTTPServer(srv.Handler()), ln, sigc, drainTimeout) }()

	var created platform.CreateCampaignResponse
	if code := post(t, base+"/api/v1/campaigns", []byte(`{"name":"gone","kind":"timeline"}`), &created); code != http.StatusCreated {
		t.Fatalf("create campaign: %d", code)
	}
	if code := post(t, base+"/api/v1/campaigns/"+created.ID+"/videos", sampleVideoBytes(), nil); code != http.StatusCreated {
		t.Fatalf("add video: %d", code)
	}
	joinBody := fmt.Sprintf(`{"campaign":%q,"worker":{"id":"ghost"},"captcha":"tok"}`, created.ID)
	if code := post(t, base+"/api/v1/sessions", []byte(joinBody), nil); code != http.StatusCreated {
		t.Fatalf("join: %d", code)
	}

	start := time.Now()
	sigc <- syscall.SIGTERM
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(drainTimeout / 2):
		t.Fatalf("drain still waiting on an abandoned session after %s", drainTimeout/2)
	}
	if waited := time.Since(start); waited > 15*time.Second {
		t.Fatalf("abandoned-session drain took %s, want roughly the idle grace", waited)
	}
}
