package platform

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"github.com/eyeorg/eyeorg/internal/wire"
)

// TestAckBodiesMatchEncodingJSON pins the ingest acknowledgements, which
// are written from constants and a pooled buffer, to the bytes
// encoding/json renders for the maps they stand for.
func TestAckBodiesMatchEncodingJSON(t *testing.T) {
	batchAck := func(n int) []byte { return appendBatchAck(nil, n) }
	for name, tc := range map[string]struct {
		got  []byte
		want any
	}{
		"events":           {ackRecorded, map[string]string{"status": "recorded"}},
		"response":         {ackComplete[false], map[string]bool{"session_complete": false}},
		"last response":    {ackComplete[true], map[string]bool{"session_complete": true}},
		"empty batch":      {batchAck(0), map[string]any{"status": "recorded", "records": 0}},
		"batch":            {batchAck(7), map[string]any{"status": "recorded", "records": 7}},
		"batch at the cap": {batchAck(defaultMaxBatchRecords), map[string]any{"status": "recorded", "records": defaultMaxBatchRecords}},
	} {
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, '\n'); !bytes.Equal(tc.got, want) {
			t.Errorf("%s ack is %q, encoding/json renders %q", name, tc.got, want)
		}
	}
}

// TestAcksOverHTTP: the three ingest routes answer 202 with exactly
// those bodies.
func TestAcksOverHTTP(t *testing.T) {
	c := newClient(t)
	campaign, _ := setupCampaign(c, "timeline", 2)
	jr := join(c, campaign, "acked")
	post := func(path string, body any) (int, []byte) {
		t.Helper()
		return rawDo(t, c, "POST", "/api/v1/sessions/"+jr.Session+path, body)
	}
	if status, body := post("/events", EventBatch{InstructionMs: 9_000}); status != http.StatusAccepted || !bytes.Equal(body, ackRecorded) {
		t.Fatalf("events ack: %d %q", status, body)
	}
	resp := postBinary(t, c, jr.Session, wire.ContentType, encodeBatches(engagementBatches(3)...))
	var got bytes.Buffer
	if _, err := got.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if want := "{\"records\":3,\"status\":\"recorded\"}\n"; resp.StatusCode != http.StatusAccepted || got.String() != want {
		t.Fatalf("batch ack: %d %q, want %q", resp.StatusCode, got.String(), want)
	}
	for i, tt := range jr.Tests {
		want := ackComplete[i == len(jr.Tests)-1]
		if status, body := post("/responses", ResponseBody{TestID: tt.TestID, SubmittedMs: 1_200, KeptOriginal: true}); status != http.StatusAccepted || !bytes.Equal(body, want) {
			t.Fatalf("response %d ack: %d %q, want %q", i, status, body, want)
		}
	}
}

// TestAckAllocs: an acknowledgement allocates nothing. Its header values
// are shared ones and a batch's body is rendered into the request's
// scratch. With a []string built per header value it cost two, three for
// a batch; rendered from maps through json.Encoder, six and eight.
func TestAckAllocs(t *testing.T) {
	w := &discardWriter{header: http.Header{}}
	var buf []byte
	for _, tc := range []struct {
		name string
		ack  func()
		max  float64
	}{
		{"events", func() { writeBody(w, http.StatusAccepted, ackRecorded) }, 0},
		{"response", func() { writeBody(w, http.StatusAccepted, ackComplete[true]) }, 0},
		{"batch", func() {
			buf = appendBatchAck(buf[:0], 7)
			writeBody(w, http.StatusAccepted, buf)
		}, 0},
	} {
		if allocs := testing.AllocsPerRun(200, tc.ack); allocs > tc.max {
			t.Errorf("%s ack: %.0f allocations, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
