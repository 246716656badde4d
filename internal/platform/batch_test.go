package platform

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/wire"
)

// postBinary POSTs raw bytes as an EYB1 batch and returns the response.
func postBinary(t *testing.T, c *client, session, contentType string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(c.srv.URL+"/api/v1/sessions/"+session+"/events", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// encodeBatches renders EventBatches as one EYB1 payload.
func encodeBatches(batches ...EventBatch) []byte {
	var recs []wire.Record
	for _, b := range batches {
		recs = AppendWireRecords(recs, b)
	}
	return wire.AppendBatch(nil, recs)
}

func engagementBatches(n int) []EventBatch {
	out := make([]EventBatch, n)
	for i := range out {
		out[i] = EventBatch{VideoID: "ghost", LoadMs: 100, TimeOnVideoMs: 1000, Plays: 1}
	}
	return out
}

// TestBatchAdmissionPerRecord is the regression test for the admission
// fix: a binary batch must charge the worker's token bucket once per
// decoded record, so a batch of N records and N single-event JSON posts
// deplete the bucket identically. Before the fix a batch cost one token
// regardless of size, letting a worker smuggle unlimited records
// through the rate limit.
func TestBatchAdmissionPerRecord(t *testing.T) {
	// Refill is negligible within the test (~1 token per 1000s).
	c, _ := newClientOpts(t, Options{WorkerRate: 0.001, WorkerBurst: 8})
	campaign, _ := setupCampaign(c, "ab", 2)

	jr := join(c, campaign, "rate-worker")
	// 8 records: instrument() takes 1 token for the request, the batch
	// handler takes the remaining 7 — the bucket is now empty.
	resp := postBinary(t, c, jr.Session, wire.ContentType, encodeBatches(engagementBatches(8)...))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("8-record batch on a full 8-token bucket: status %d, want 202", resp.StatusCode)
	}
	// Per-request charging would have cost 1 token and this next request
	// would sail through with 7 to spare.
	resp = postBinary(t, c, jr.Session, wire.ContentType, encodeBatches(engagementBatches(1)...))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request after bucket-depleting batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// A batch needing more tokens than the bucket holds is refused
	// up front, before any record applies.
	jr2 := join(c, campaign, "rate-worker-2")
	resp = postBinary(t, c, jr2.Session, wire.ContentType, encodeBatches(engagementBatches(12)...))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("12-record batch against an 8-token bucket: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	// ...and refusal is all-or-nothing: the session is still live and a
	// batch that fits goes through (minus the tokens the refused
	// requests burned via instrument()).
	resp = postBinary(t, c, jr2.Session, wire.ContentType, encodeBatches(engagementBatches(4)...))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("4-record batch after refusal: status %d, want 202", resp.StatusCode)
	}
}

// TestAdmitNDebt pins the debt model at the unit level: a charge larger
// than burst is admitted only against a full bucket and leaves it
// negative, so the sustained record rate stays bounded at rate
// tokens/sec even though individual oversized charges get through.
func TestAdmitNDebt(t *testing.T) {
	a := &admission{rate: 1, burst: 4, held: func(string) bool { return true }}
	ok, _ := a.admitN("k", 10) // fresh bucket holds burst=4 ≥ need=min(10,4)
	if !ok {
		t.Fatal("oversized charge against a full bucket refused; want admitted with debt")
	}
	ok, wait := a.admit("k")
	if ok {
		t.Fatal("charge against an in-debt bucket admitted; want refused")
	}
	// Debt is 10-4=6, so one token is ~7s out at rate 1.
	if wait < 5*time.Second {
		t.Fatalf("retry-after %v does not reflect the debt; want ≥5s", wait)
	}
	// A second oversized charge must NOT be admitted until the debt
	// clears — this is what bounds the sustained rate.
	if ok, _ := a.admitN("k", 10); ok {
		t.Fatal("back-to-back oversized charges admitted; debt model broken")
	}
}

// TestBatchContentNegotiation covers the binary path's edges: media-type
// parameters, malformed payloads, the record cap, and unknown sessions.
func TestBatchContentNegotiation(t *testing.T) {
	c, s := newClientOpts(t, Options{})
	s.maxBatch = 4 // set before the first request reads it
	campaign, _ := setupCampaign(c, "ab", 2)
	jr := join(c, campaign, "nego-worker")

	// Media-type parameters don't break negotiation.
	resp := postBinary(t, c, jr.Session, wire.ContentType+"; charset=utf-8", encodeBatches(engagementBatches(2)...))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch with content-type parameters: status %d, want 202", resp.StatusCode)
	}

	// Garbage that fails the magic check is a 400, not a 5xx.
	resp = postBinary(t, c, jr.Session, wire.ContentType, []byte("not a batch"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed payload: status %d, want 400", resp.StatusCode)
	}
	// A truncated but well-prefixed payload too.
	valid := encodeBatches(engagementBatches(2)...)
	resp = postBinary(t, c, jr.Session, wire.ContentType, valid[:len(valid)-3])
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated payload: status %d, want 400", resp.StatusCode)
	}

	// One record past the cap is a 413.
	resp = postBinary(t, c, jr.Session, wire.ContentType, encodeBatches(engagementBatches(5)...))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("5-record batch against a 4-record cap: status %d, want 413", resp.StatusCode)
	}

	// Unknown session decodes fine but 404s at apply, like JSON.
	resp = postBinary(t, c, "sess-does-not-exist", wire.ContentType, encodeBatches(engagementBatches(1)...))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("batch for unknown session: status %d, want 404", resp.StatusCode)
	}

	// An empty batch is valid wire and a cheap no-op ack.
	resp = postBinary(t, c, jr.Session, wire.ContentType, wire.AppendBatch(nil, nil))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("empty batch: status %d, want 202", resp.StatusCode)
	}

	// A JSON body with a JSON content type still takes the JSON path.
	if got := c.do(http.MethodPost, "/api/v1/sessions/"+jr.Session+"/events",
		EventBatch{VideoID: "v", LoadMs: 1, TimeOnVideoMs: 1}, nil); got != http.StatusAccepted {
		t.Fatalf("JSON path after binary posts: status %d, want 202", got)
	}
}
