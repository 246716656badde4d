package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// cannedHandler answers the script's requests with replies of the right
// shape and size and none of the system's work behind them, on the same
// routes as the platform. Running the script against it prices the
// instrument: the driver, the sockets and net/http's server side. The
// traced run does so for the driver.* metrics and nothing else reads it.
func cannedHandler(sc *script) http.Handler {
	var join bytes.Buffer
	join.WriteString(`{"session":"s0","tests":[`)
	for k := 0; k < platform.TestsPerSession; k++ {
		id, control := "s0-t"+strconv.Itoa(k), "false"
		if k == platform.TestsPerSession-1 {
			id, control = "s0-control", "true"
		}
		if k > 0 {
			join.WriteByte(',')
		}
		fmt.Fprintf(&join, `{"test_id":%q,"video_id":%q,"kind":"timeline","control":%s}`, id, sc.videos[k%len(sc.videos)].id, control)
	}
	join.WriteString("]}\n")
	mux := http.NewServeMux()
	writeBody := func(w http.ResponseWriter, status int, body []byte) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write(body)
	}
	mux.HandleFunc("POST /api/v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		writeBody(w, http.StatusCreated, join.Bytes())
	})
	mux.HandleFunc("GET /api/v1/sessions/{id}/tests", func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusOK, join.Bytes())
	})
	mux.HandleFunc("POST /api/v1/sessions/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		writeBody(w, http.StatusAccepted, []byte(`{"status":"recorded"}`+"\n"))
	})
	mux.HandleFunc("POST /api/v1/sessions/{id}/responses", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		done := bytes.Contains(body, []byte(`"s0-control"`))
		writeBody(w, http.StatusAccepted, []byte(`{"session_complete":`+strconv.FormatBool(done)+"}\n"))
	})
	mux.HandleFunc("GET /api/v1/videos/{id}", func(w http.ResponseWriter, r *http.Request) {
		vi, ok := sc.videoIdx[r.PathValue("id")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		v := &sc.videos[vi]
		w.Header().Set("ETag", v.etag)
		switch {
		case r.Header.Get("If-None-Match") == v.etag:
			w.WriteHeader(http.StatusNotModified)
		case r.Header.Get("Range") != "":
			tail := v.payload
			if len(tail) > rangeTail {
				tail = tail[len(tail)-rangeTail:]
			}
			w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", len(v.payload)-len(tail), len(v.payload)-1, len(v.payload)))
			w.Header().Set("Content-Length", strconv.Itoa(len(tail)))
			w.WriteHeader(http.StatusPartialContent)
			_, _ = w.Write(tail)
		default:
			w.Header().Set("Content-Length", strconv.Itoa(len(v.payload)))
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(v.payload)
		}
	})
	return mux
}

// nullRun runs units of the workload's script (plain sessions, or
// viewing sessions) against the canned handler on sockets of its own,
// after a short warm-up, and returns the segment: the instrument alone.
func nullRun(p plan, seed int64, units int) (*segment, error) {
	sc, err := generate(p, seed, units)
	if err != nil {
		return nil, err
	}
	// The canned handler mints nothing: the script is bound to made-up IDs.
	ids := make([]string, len(sc.videos))
	for i := range ids {
		ids[i] = "null" + strconv.Itoa(i)
	}
	if err := sc.bind("null", ids); err != nil {
		return nil, err
	}
	// The experimenter's views have no canned form: its share of the work
	// is the platform's, not the instrument's.
	p.poll = false
	r := &rig{plan: p, sc: sc, epoch: time.Now()}
	defer r.hangUp()
	if err := r.listen(cannedHandler(sc)); err != nil {
		return nil, fmt.Errorf("null rig: %w", err)
	}
	for _, c := range r.clients {
		c.reserve(units)
		c.layer = "null"
	}
	r.segment(max(units/8, 2))
	seg := r.segment(units)
	if seg.failed > 0 || seg.sessions == 0 {
		err := fmt.Errorf("null run failed")
		for _, c := range r.clients {
			if c.firstErr != nil {
				err = fmt.Errorf("null run: %w", c.firstErr)
			}
		}
		return nil, err
	}
	return seg, nil
}
