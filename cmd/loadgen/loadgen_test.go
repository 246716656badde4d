package main

import (
	"bytes"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// TestRunAgainstPlatform drives a short run, with -watch, against an
// in-memory platform server: every session must complete and the watch
// feed must log.
func TestRunAgainstPlatform(t *testing.T) {
	srv, err := platform.Open(platform.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var logs bytes.Buffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	c := &config{addr: ts.URL, videos: 2, concurrency: 2, duration: 300 * time.Millisecond, seed: 7, watch: 100 * time.Millisecond}
	if err := run(c); err != nil {
		t.Fatalf("run: %v\n%s", err, logs.String())
	}
	for _, want := range []string{" 0 errors, 0 throttled", "watch: sessions=", "analytics: sessions="} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs.String())
		}
	}
}

// TestCallRetriesThrottled: a 429 is retried and counted as throttled;
// one without Retry-After is also counted in badThrottle, which fails
// the run.
func TestCallRetriesThrottled(t *testing.T) {
	for _, tc := range []struct {
		name, retryAfter string
		wantBad          int64
	}{
		{"with Retry-After", "1", 0},
		{"without Retry-After", "", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hits.Add(1) == 1 {
					if tc.retryAfter != "" {
						w.Header().Set("Retry-After", tc.retryAfter)
					}
					w.WriteHeader(http.StatusTooManyRequests)
					return
				}
				w.WriteHeader(http.StatusOK)
			}))
			defer ts.Close()
			g := &generator{client: ts.Client(), target: ts.URL}
			st := &stats{lat: map[string][]time.Duration{}}
			if err := g.call(st, "join", "POST", "/api/v1/sessions", nil, nil); err != nil {
				t.Fatalf("call: %v", err)
			}
			if st.throttled != 1 || st.badThrottle != tc.wantBad || len(st.lat["join"]) != 2 {
				t.Fatalf("throttled=%d badThrottle=%d attempts=%d, want 1, %d, 2",
					st.throttled, st.badThrottle, len(st.lat["join"]), tc.wantBad)
			}
			st.sessions, st.completed = 1, 1
			if err := st.failure(); (err != nil) != (tc.wantBad > 0) {
				t.Fatalf("failure() = %v with %d 429s lacking Retry-After", err, st.badThrottle)
			}
		})
	}
}
