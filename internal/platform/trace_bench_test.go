package platform

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchIngest drives the events endpoint straight into the handler —
// the mem-mode ingest hot path — so `go test -bench Ingest` isolates
// the per-request cost of stage stamping without a load generator
// around it.
func benchIngest(b *testing.B, opts Options) {
	srv, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(path, body string, out any) {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 300 {
			b.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body.String())
		}
		if out != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				b.Fatal(err)
			}
		}
	}
	var created CreateCampaignResponse
	post("/api/v1/campaigns", `{"name":"b","kind":"timeline"}`, &created)
	var added AddVideoResponse
	post("/api/v1/campaigns/"+created.ID+"/videos", string(sampleVideoBytes()), &added)
	var jr JoinResponse
	post("/api/v1/sessions",
		`{"campaign":"`+created.ID+`","worker":{"id":"bench-w","gender":"female","country":"US","source":"bench"},"captcha":"x"}`,
		&jr)
	path := "/api/v1/sessions/" + jr.Session + "/events"
	body := `{"video_id":"","time_on_video_ms":10,"plays":1}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 300 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

func BenchmarkIngestUntraced(b *testing.B) {
	benchIngest(b, Options{})
}

// BenchmarkIngestTraced retains every request — the dense capture the
// bench's durable stage-breakdown twin runs — so it prices stamping
// plus retention. BenchmarkIngestTracedSampled is the production
// configuration (1% retention): the cost left is stamping alone.
func BenchmarkIngestTraced(b *testing.B) {
	benchIngest(b, Options{TraceSample: 1})
}

func BenchmarkIngestTracedSampled(b *testing.B) {
	benchIngest(b, Options{TraceSample: 0.01})
}
