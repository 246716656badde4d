package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/filtering"
)

// newClientOpts is newClient with storage/admission options.
func newClientOpts(t *testing.T, opts Options) (*client, *Server) {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return &client{t: t, srv: srv}, s
}

func scrape(t *testing.T, c *client) string {
	t.Helper()
	resp, err := http.Get(c.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample's value from an exposition body.
func metricValue(t *testing.T, body, series string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, body)
	return ""
}

// TestMetricsEndpointCoversAPI drives one full session and checks the
// exposition covers every layer the ISSUE names: per-endpoint request
// counts and latency, store durability internals, and quality tallies.
func TestMetricsEndpointCoversAPI(t *testing.T) {
	c, srv := newClientOpts(t, Options{DataDir: t.TempDir(), Fsync: true})
	id, _ := setupCampaign(c, "timeline", 2)
	jr := join(c, id, "w-metrics")
	completeSession(c, jr, 1500, true, 0, 0)

	body := scrape(t, c)
	for _, want := range []string{
		`eyeorg_http_requests_total{endpoint="join",code="2xx"} 1`,
		`eyeorg_http_requests_total{endpoint="create_campaign",code="2xx"} 1`,
		`eyeorg_mutations_total{op="response"} 7`,
		`eyeorg_sessions_inflight 0`,
		`eyeorg_quality_verdicts{verdict="kept"} 1`,
		`eyeorg_journal_snapshots_total 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The journal saw every mutation: 1 campaign + 2 videos + 1 session
	// + 8 event batches + 7 responses = 19 appends.
	if got := metricValue(t, body, "eyeorg_journal_appends_total"); got != "19" {
		t.Errorf("journal appends = %s, want 19", got)
	}
	// Every append is covered by exactly one window, each fsynced once.
	if got := metricValue(t, body, "eyeorg_journal_window_records_sum"); got != "19" {
		t.Errorf("window records sum = %s, want 19", got)
	}
	if w, f := metricValue(t, body, "eyeorg_journal_window_records_count"), metricValue(t, body, "eyeorg_journal_fsync_seconds_count"); w != f {
		t.Errorf("%s windows but %s fsyncs", w, f)
	}
	// A successful snapshot rotation is counted by Server.Snapshot.
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, scrape(t, c), "eyeorg_journal_snapshots_total"); got != "1" {
		t.Errorf("snapshots = %s after one Snapshot, want 1", got)
	}
	// Latency histograms recorded every request.
	if !regexp.MustCompile(`eyeorg_http_request_seconds_count\{endpoint="response"\} 7`).MatchString(body) {
		t.Errorf("response latency histogram not recording:\n%s", body)
	}
	// Every non-comment line is a well-formed sample.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// runtimeRows matches the sample lines of the eyeorg_go_* series, whose
// values are the Go runtime's and so differ from run to run.
var runtimeRows = regexp.MustCompile(`(?m)^(eyeorg_go_[a-z_]+) .*$`)

// TestMetricsGolden pins a fresh durable server's full /metrics body:
// every instrument the platform registers, rendered in the stable
// order, all zeros but the Go runtime rows, whose values alone are
// masked. Catches accidental metric renames and format drift in one
// diff.
func TestMetricsGolden(t *testing.T) {
	s, err := Open(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runtime.GC() // the live-heap row reads the last cycle's mark
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	if n := len(runtimeRows.FindAllString(body, -1)); n != 3 {
		t.Fatalf("%d Go runtime rows, want 3:\n%s", n, body)
	}
	for _, series := range []string{"eyeorg_go_heap_live_bytes", "eyeorg_go_gc_cycles_total", "eyeorg_go_goroutines"} {
		if v, err := strconv.ParseFloat(metricValue(t, body, series), 64); err != nil || v < 1 {
			t.Errorf("%s = %v (%v), want at least 1", series, v, err)
		}
	}
	got := runtimeRows.ReplaceAllString(body, "$1 <runtime>")

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("fresh-server exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsUnderConcurrentMutation hammers GET /metrics while 64
// concurrent sessions mutate every shard — the -race guard on the
// scrape path's lock-free reads and shard-lock walks.
func TestMetricsUnderConcurrentMutation(t *testing.T) {
	c, _ := newClientOpts(t, Options{Shards: 8})
	id, vids := setupCampaign(c, "timeline", 3)

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					resp, err := http.Get(c.srv.URL + "/metrics")
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	var workers sync.WaitGroup
	for w := 0; w < 64; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			jr := join(c, id, fmt.Sprintf("w%d", w))
			completeSession(c, jr, 1500, true, 0, 0)
			c.do("POST", "/api/v1/videos/"+vids[w%len(vids)]+"/flag",
				map[string]string{"worker": fmt.Sprintf("w%d", w)}, nil)
		}(w)
	}
	workers.Wait()
	close(stop)
	scrapers.Wait()

	body := scrape(t, c)
	if got := metricValue(t, body, `eyeorg_mutations_total{op="session"}`); got != "64" {
		t.Fatalf("session mutations = %s, want 64", got)
	}
	if got := metricValue(t, body, "eyeorg_sessions_inflight"); got != "0" {
		t.Fatalf("sessions inflight = %s, want 0", got)
	}
}

// TestInFlightCap429 holds one request in flight (its body never
// finishes arriving) against a MaxInFlight=1 server and requires the
// next request to bounce with 429 + Retry-After.
func TestInFlightCap429(t *testing.T) {
	c, _ := newClientOpts(t, Options{MaxInFlight: 1})
	id, _ := setupCampaign(c, "timeline", 1)

	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", c.srv.URL+"/api/v1/sessions", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	// Feed a partial body so the handler is admitted and blocks in the
	// JSON decoder, pinning the in-flight slot.
	if _, err := pw.Write([]byte(`{"campaign":`)); err != nil {
		t.Fatal(err)
	}
	// The occupied slot must 429 the next request.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(c.srv.URL + "/api/v1/campaigns/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		ra := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra == "" {
				t.Fatalf("429 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429 while a request held the only slot (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Release the pinned request; it finishes (as a 4xx: body invalid).
	fmt.Fprintf(pw, `"%s","worker":{"id":"w"},"captcha":"x"}`, id)
	pw.Close()
	if code := <-done; code != http.StatusCreated {
		t.Fatalf("pinned request finished with %d, want 201", code)
	}
	// With the slot free again, requests flow.
	if code := c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, nil); code != http.StatusOK {
		t.Fatalf("post-release request: %d", code)
	}
	body := scrape(t, c)
	if metricValue(t, body, `eyeorg_admission_rejected_total{reason="inflight"}`) == "0" {
		t.Fatalf("inflight rejections not counted")
	}
}

// TestWorkerRate429 exhausts a 1-token bucket and requires 429 +
// Retry-After on the session-scoped endpoints.
func TestWorkerRate429(t *testing.T) {
	c, _ := newClientOpts(t, Options{WorkerRate: 0.5, WorkerBurst: 1})
	id, _ := setupCampaign(c, "timeline", 1)
	jr := join(c, id, "w-rate") // join itself is not session-scoped

	if code := c.do("GET", "/api/v1/sessions/"+jr.Session+"/tests", nil, nil); code != http.StatusOK {
		t.Fatalf("first tests fetch: %d", code)
	}
	resp, err := http.Get(c.srv.URL + "/api/v1/sessions/" + jr.Session + "/tests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second tests fetch = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	// Another session has its own bucket.
	jr2 := join(c, id, "w-rate-2")
	if code := c.do("GET", "/api/v1/sessions/"+jr2.Session+"/tests", nil, nil); code != http.StatusOK {
		t.Fatalf("other session's fetch: %d", code)
	}
}

// TestWorkerRateIgnoresUnknownSessions: a request naming a session the
// index does not hold makes no token bucket, so bucketCap+1 made-up IDs
// (each answered 404) cannot reset the bucket map and refill a drained
// participant's bucket.
func TestWorkerRateIgnoresUnknownSessions(t *testing.T) {
	s, err := Open(Options{WorkerRate: 0.001, WorkerBurst: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	campaign := seedDispatch(t, h, 1)
	var jr JoinResponse
	dispatch(t, h, "POST", "/api/v1/sessions", JoinRequest{Campaign: campaign, Worker: Worker{ID: "drained"}, Captcha: "tok"}, &jr)
	env := &fuzzEnv{handler: h}
	tests := "/api/v1/sessions/" + jr.Session + "/tests"
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} {
		if rec := env.do("GET", tests, nil); rec.Code != want {
			t.Fatalf("tests fetch %d of the live session: %d, want %d", i+1, rec.Code, want)
		}
	}
	for i := 0; i <= bucketCap; i++ {
		if rec := env.do("GET", "/api/v1/sessions/s-unknown-"+strconv.Itoa(i)+"/tests", nil); rec.Code != http.StatusNotFound {
			t.Fatalf("unknown session %d: %d, want 404", i, rec.Code)
		}
	}
	if rec := env.do("GET", tests, nil); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("drained session after %d unknown IDs: %d, want 429", bucketCap+1, rec.Code)
	}
}

// TestDerivedCountsMatchCampaigns: SessionsInFlight, the
// eyeorg_sessions_inflight gauge and each eyeorg_quality_verdicts gauge
// equal what every campaign's /analytics document lists — its rows not
// yet completed, and its completed rows by verdict — after a join,
// completions, an abandoned session, and a snapshot and a reopen. On the
// parent-written v4 fixture, the sessions in flight are its joined
// count less its completed records.
func TestDerivedCountsMatchCampaigns(t *testing.T) {
	check := func(step string, srv *Server, c *client) {
		t.Helper()
		inflight, verdicts := 0, map[string]int{}
		var ids []string
		srv.campaigns.Range(func(id string, _ *campaignState) bool {
			ids = append(ids, id)
			return true
		})
		for _, id := range ids {
			for _, p := range fetchAnalytics(t, c, id).Participants {
				if !p.Completed {
					inflight++
				} else {
					verdicts[p.Verdict]++
				}
			}
		}
		if got := srv.SessionsInFlight(); got != int64(inflight) {
			t.Errorf("%s: SessionsInFlight %d, the campaigns list %d", step, got, inflight)
		}
		body := scrape(t, c)
		if got := metricValue(t, body, "eyeorg_sessions_inflight"); got != strconv.Itoa(inflight) {
			t.Errorf("%s: eyeorg_sessions_inflight %s, the campaigns list %d", step, got, inflight)
		}
		for r := filtering.Kept; r <= filtering.DropControl; r++ {
			series := `eyeorg_quality_verdicts{verdict="` + r.String() + `"}`
			if got := metricValue(t, body, series); got != strconv.Itoa(verdicts[r.String()]) {
				t.Errorf("%s: %s is %s, the campaigns list %d", step, series, got, verdicts[r.String()])
			}
		}
	}
	dirA := t.TempDir()
	a, ca := openPersisted(t, dirA, Options{SnapshotEvery: -1})
	timeline, _ := setupCampaign(ca, "timeline", 2)
	ab, _ := setupCampaign(ca, "ab", 2)
	check("empty", a, ca)
	join(ca, timeline, "derived-live") // still in flight at the snapshot
	check("join", a, ca)
	completeSession(ca, join(ca, timeline, "derived-kept"), 1500, true, 12, 0)
	completeSession(ca, join(ca, timeline, "derived-away"), 9000, true, 12, 45_000)
	completeSession(ca, join(ca, timeline, "derived-control"), 1500, false, 12, 0)
	check("completion", a, ca)
	walked := join(ca, ab, "derived-walked")
	tt := walked.Tests[0]
	ca.do("POST", "/api/v1/sessions/"+walked.Session+"/events", EventBatch{
		VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Seeks: 12, Plays: 1, WatchedFraction: 0.9,
	}, nil)
	if code := ca.do("POST", "/api/v1/sessions/"+walked.Session+"/responses", ResponseBody{TestID: tt.TestID, Choice: "left"}, nil); code >= 300 {
		t.Fatalf("abandoned session's one answer: %d", code)
	}
	check("abandoned", a, ca)
	if err := a.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a, ca = openPersisted(t, dirA, Options{SnapshotEvery: -1})
	check("snapshot and reopen", a, ca)
	a.Close()

	data, err := os.ReadFile(filepath.Join("testdata", "parent_v4_snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st snapState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	want := st.Joined
	for _, cn := range st.Campaigns {
		want -= int64(len(cn.Records))
	}
	dir := t.TempDir()
	srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.blobs.Put(bytes.NewReader(sampleVideoBytes())); err != nil {
		t.Fatal(err)
	}
	if err := srv.log.WriteSnapshot(data); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, cf := openPersisted(t, dir, Options{SnapshotEvery: -1})
	defer srv.Close()
	if got := srv.SessionsInFlight(); got != want || want == 0 {
		t.Errorf("v4 fixture: SessionsInFlight %d, want joined %d less %d completed records", got, st.Joined, st.Joined-want)
	}
	check("v4 fixture", srv, cf)
}

// TestDrainRefusesNewSessions: after StartDrain, joins bounce with 503
// + Retry-After while in-flight sessions' requests keep being served
// and /metrics stays up.
func TestDrainRefusesNewSessions(t *testing.T) {
	c, s := newClientOpts(t, Options{})
	id, _ := setupCampaign(c, "timeline", 1)
	jr := join(c, id, "w-drain")

	s.StartDrain()
	resp, err := http.Post(c.srv.URL+"/api/v1/sessions", "application/json",
		strings.NewReader(fmt.Sprintf(`{"campaign":%q,"worker":{"id":"late"},"captcha":"x"}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("join during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("drain 503 without Retry-After")
	}
	// The already-joined session still completes.
	completeSession(c, jr, 1500, true, 0, 0)
	body := scrape(t, c)
	if got := metricValue(t, body, "eyeorg_draining"); got != "1" {
		t.Fatalf("eyeorg_draining = %s, want 1", got)
	}
	if got := metricValue(t, body, `eyeorg_quality_verdicts{verdict="kept"}`); got != "1" {
		t.Fatalf("in-flight session did not complete during drain: kept = %s", got)
	}
}

// TestMaxBodyRejectsOversizeIngest: an ingest body over the cap answers
// 413 with Retry-After, counts as an admission rejection and closes the
// connection instead of draining the rest — whether the body declares its
// length or arrives chunked.
func TestMaxBodyRejectsOversizeIngest(t *testing.T) {
	c, _ := newClientOpts(t, Options{MaxBodyBytes: 128})
	big := fmt.Sprintf(`{"video_id":%q}`, strings.Repeat("v", 300))
	for i, body := range []io.Reader{strings.NewReader(big), unsized(strings.NewReader(big))} {
		resp, err := http.Post(c.srv.URL+"/api/v1/sessions/s1/events", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversize events body = %d, want 413", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("413 without Retry-After — body-cap refusals are backpressure")
		}
		if !resp.Close {
			t.Fatalf("413 left the connection open: the rest of the body would be drained")
		}
		if got := metricValue(t, scrape(t, c), `eyeorg_admission_rejected_total{reason="body"}`); got != fmt.Sprint(i+1) {
			t.Fatalf("body rejections counted: %s, want %d", got, i+1)
		}
	}
}
