package platform

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/trace"
)

// TestTracingEndToEnd drives one full session through a fsynced
// durable server with every request sampled, then checks the whole
// observability surface: /debug/traces serves the retained traces,
// stage durations tile each trace's wall time, campaign and session IDs
// are stamped, the durable mutations show the journal stages, and the
// per-stage histograms appear on /metrics.
func TestTracingEndToEnd(t *testing.T) {
	c, s := newClientOpts(t, Options{
		DataDir:     t.TempDir(),
		Fsync:       true,
		TraceSample: 1,
	})
	campaign, _ := setupCampaign(c, "timeline", 2)
	jr := join(c, campaign, "w-trace")
	completeSession(c, jr, 1500, true, 0, 0)

	recs := s.Tracer().Snapshot()
	if len(recs) == 0 {
		t.Fatal("no traces retained at sample rate 1")
	}
	routes := map[string]int{}
	for _, rec := range recs {
		routes[rec.Route]++
		if rec.ID == "" {
			t.Fatalf("trace on %s has no ID", rec.Route)
		}
		if rec.Status == 0 {
			t.Errorf("trace %s has no status", rec.ID)
		}
		// The checkpoint model tiles wall time: the stage sum must
		// account for (at least) the vast majority of the total, and
		// never exceed it by more than scheduling noise.
		sum := rec.StageSum()
		if sum < rec.Duration*9/10 {
			t.Errorf("trace %s (%s): stage sum %s < 90%% of total %s",
				rec.ID, rec.Route, sum, rec.Duration)
		}
	}
	for _, route := range []string{"create_campaign", "add_video", "join", "events", "response"} {
		if routes[route] == 0 {
			t.Errorf("no trace retained for route %q (got %v)", route, routes)
		}
	}

	// Durable mutations must show the journal pipeline stages; the
	// fsynced path always pays a nonzero append + durability wait.
	var sawDurable bool
	for _, rec := range recs {
		if rec.Route != "response" {
			continue
		}
		if rec.Session == "" {
			t.Errorf("response trace %s has no session ID", rec.ID)
		}
		if rec.Stages[trace.StageAppend] <= 0 {
			t.Errorf("response trace %s has no append stage: %v", rec.ID, rec.Stages)
		}
		wait := rec.Stages[trace.StageFlush] + rec.Stages[trace.StageFsync] + rec.Stages[trace.StageAck]
		if wait <= 0 {
			t.Errorf("response trace %s has no durability wait: %v", rec.ID, rec.Stages)
		}
		if rec.Stages[trace.StageFsync] > 0 {
			sawDurable = true
		}
	}
	if !sawDurable {
		t.Error("no response trace attributed time to fsync under Fsync")
	}
	for _, rec := range recs {
		if rec.Route == "create_campaign" && rec.Campaign == "" {
			t.Errorf("create_campaign trace %s has no campaign ID", rec.ID)
		}
	}

	// The trace surface serves from DebugHandler only — the retained
	// traces name campaigns and sessions, so the public API handler
	// must 404 the route even with tracing on.
	if code := c.do("GET", "/debug/traces", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /debug/traces on the API handler: %d, want 404", code)
	}
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()
	getJSON := func(url string, out any) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if out != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}

	// GET /debug/traces serves the same set as the snapshot, JSON shape
	// pinned by the trace package's round-trip test.
	var report trace.Report
	if code := getJSON(dbg.URL+"/debug/traces", &report); code != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d", code)
	}
	if report.Count < len(recs) {
		t.Fatalf("/debug/traces count %d < snapshot %d", report.Count, len(recs))
	}

	// ?route= narrows the dump server-side.
	var filtered trace.Report
	if code := getJSON(dbg.URL+"/debug/traces?route=events", &filtered); code != http.StatusOK {
		t.Fatalf("GET /debug/traces?route=events: %d", code)
	}
	if filtered.Count == 0 {
		t.Fatal("route filter returned no events traces")
	}
	for _, rec := range filtered.Traces {
		if rec.Route != "events" {
			t.Fatalf("route filter leaked %q trace %s", rec.Route, rec.ID)
		}
	}

	// Single-trace lookup, JSON and text.
	one := recs[0]
	var got trace.Record
	if code := getJSON(dbg.URL+"/debug/traces/"+one.ID, &got); code != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id}: %d", code)
	}
	if got.ID != one.ID || got.Route != one.Route {
		t.Fatalf("trace lookup returned %s/%s, want %s/%s", got.ID, got.Route, one.ID, one.Route)
	}
	if code := getJSON(dbg.URL+"/debug/traces/ffffffffffffffffffffffffffffffff", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace ID: %d, want 404", code)
	}
	textResp, err := http.Get(dbg.URL + "/debug/traces?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer textResp.Body.Close()
	text, _ := io.ReadAll(textResp.Body)
	if !strings.HasPrefix(string(text), "traces: ") {
		t.Fatalf("text rendering: %q", string(text)[:min(len(text), 40)])
	}

	// Tracing-on servers expose the stage histograms.
	body := scrape(t, c)
	if !strings.Contains(body, `eyeorg_ingest_stage_seconds_count{stage="fsync"}`) {
		t.Error("exposition missing stage histograms")
	}
}

// TestTracingDisabledSurface: without tracing options the debug routes
// do not exist, the tracer and DebugHandler are nil, and /metrics
// carries no stage series — the pre-tracing exposition (pinned by
// TestMetricsGolden) is unchanged.
func TestTracingDisabledSurface(t *testing.T) {
	c, s := newClientOpts(t, Options{})
	if s.Tracer() != nil {
		t.Fatal("tracer non-nil with tracing off")
	}
	if s.DebugHandler() != nil {
		t.Fatal("DebugHandler non-nil with tracing off")
	}
	if code := c.do("GET", "/debug/traces", nil, nil); code != http.StatusNotFound {
		t.Fatalf("GET /debug/traces on tracing-off server: %d, want 404", code)
	}
	if body := scrape(t, c); strings.Contains(body, "eyeorg_ingest_stage_seconds") {
		t.Error("tracing-off exposition carries stage series")
	}
}

// TestTraceSlowCapture: a request slower than the threshold is
// retained even at sample rate 0, flagged slow.
func TestTraceSlowCapture(t *testing.T) {
	c, s := newClientOpts(t, Options{TraceSlow: time.Nanosecond})
	setupCampaign(c, "timeline", 1)
	recs := s.Tracer().Snapshot()
	if len(recs) == 0 {
		t.Fatal("no slow traces retained with a 1ns threshold")
	}
	for _, rec := range recs {
		if !rec.Slow {
			t.Errorf("trace %s retained without slow flag at sample rate 0", rec.ID)
		}
	}
}

// TestTraceParentAdoptedOverHTTP: an inbound W3C traceparent supplies
// the trace identity and forces retention via its sampled flag.
func TestTraceParentAdoptedOverHTTP(t *testing.T) {
	c, s := newClientOpts(t, Options{TraceSlow: time.Hour})
	const id = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest("POST", c.srv.URL+"/api/v1/campaigns",
		strings.NewReader(`{"name":"p","kind":"timeline"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+id+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rec, ok := s.Tracer().Get(id)
	if !ok {
		t.Fatal("sampled traceparent request not retained")
	}
	if rec.Route != "create_campaign" {
		t.Fatalf("adopted trace on route %q", rec.Route)
	}
}

// TestTracingPerRecordFsync: a client whose mutations arrive one at a
// time leads a window of its own for each record — one journal append,
// one fsync, synced by the request that waits for it — and every traced
// mutation charges its buffering to the append stage and the wait on
// that window to the flush/fsync/ack stages.
func TestTracingPerRecordFsync(t *testing.T) {
	c, s := newClientOpts(t, Options{
		DataDir:     t.TempDir(),
		Fsync:       true,
		TraceSample: 1,
	})
	campaign, _ := setupCampaign(c, "timeline", 2)
	jr := join(c, campaign, "w-trace-serial")
	completeSession(c, jr, 1500, true, 0, 0)

	var responses int
	for _, rec := range s.Tracer().Snapshot() {
		if rec.Route != "response" {
			continue
		}
		responses++
		if rec.Stages[trace.StageAppend] <= 0 {
			t.Errorf("response trace %s has no append stage: %v", rec.ID, rec.Stages)
		}
		if wait := rec.Stages[trace.StageFlush] + rec.Stages[trace.StageFsync] + rec.Stages[trace.StageAck]; wait <= 0 {
			t.Errorf("response trace %s has no durability wait: %v", rec.ID, rec.Stages)
		}
	}
	if responses == 0 {
		t.Fatal("no response traces retained at sample rate 1")
	}
	body := scrape(t, c)
	appends := metricValue(t, body, "eyeorg_journal_appends_total")
	if got := metricValue(t, body, "eyeorg_journal_fsync_seconds_count"); got != appends || appends == "0" {
		t.Errorf("fsyncs = %s for %s appends, want one per append", got, appends)
	}
	if got := metricValue(t, body, "eyeorg_journal_window_records_count"); got != appends {
		t.Errorf("windows = %s for %s appends, want windows of one", got, appends)
	}
	if got := metricValue(t, body, "eyeorg_journal_window_records_sum"); got != appends {
		t.Errorf("windows cover %s records for %s appends", got, appends)
	}
}
