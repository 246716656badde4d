// The in-place decoders against their reference: whatever they accept
// they decode as decodeJSON does, they decline nothing they were built to
// take, and the bodies the repo's own clients send are all of that kind.
package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"testing"
)

// fields names the members a body may have; a non-nil value is a nested
// object's.
type fields map[string]fields

var (
	joinFields = fields{"campaign": nil, "captcha": nil,
		"worker": {"id": nil, "gender": nil, "country": nil, "source": nil}}
	eventsFields = fields{"video_id": nil, "instruction_ms": nil, "load_ms": nil, "time_on_video_ms": nil,
		"plays": nil, "pauses": nil, "seeks": nil, "watched_fraction": nil, "out_of_focus_ms": nil}
	responseFields = fields{"test_id": nil, "slider_ms": nil, "helper_ms": nil, "submitted_ms": nil,
		"accepted_helper": nil, "kept_original": nil, "choice": nil}
)

// plain reports whether body, which decodeJSON accepted, is in the
// in-place decoders' language: printable ASCII and JSON whitespace, no
// escape, no null, and every key one of spec's exactly. It is the test's
// own statement of that language, written against encoding/json's
// tokens, not the decoders' code.
func plain(body []byte, spec fields) bool {
	for _, c := range body {
		if c == '\\' || c > '~' || c < ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	tok, err := dec.Token()
	return err == nil && tok == json.Delim('{') && plainMembers(dec, spec)
}

// plainMembers walks one object's members, its brace already read.
func plainMembers(dec *json.Decoder, spec fields) bool {
	for dec.More() {
		key, _ := dec.Token()
		name, _ := key.(string)
		nested, known := spec[name]
		if !known {
			return false
		}
		switch value, _ := dec.Token(); value {
		case nil:
			return false
		case json.Delim('{'):
			if nested == nil || !plainMembers(dec, nested) {
				return false
			}
		}
	}
	_, err := dec.Token()
	return err == nil
}

// checkInPlace holds one decoder to the reference on one body: got is
// what it decoded to (zero if it declined), want the reference's target.
func checkInPlace(t *testing.T, body []byte, spec fields, accepted bool, got, want any) {
	t.Helper()
	refErr := decodeJSON(bytes.NewReader(body), want)
	switch {
	case accepted && refErr != nil:
		t.Fatalf("decoded in place a body the reference refuses (%v): %q", refErr, body)
	case accepted && !reflect.DeepEqual(got, want):
		t.Fatalf("decoded in place to %+v, the reference to %+v: %q", got, want, body)
	case !accepted && refErr == nil && plain(body, spec):
		t.Fatalf("declined a body of the in-place language: %q", body)
	case !accepted && !reflect.ValueOf(got).Elem().IsZero():
		t.Fatalf("declined and left %+v behind: %q", got, body)
	}
}

// fuzzAssignment is a session's assignment for the decoders to resolve
// IDs against; the seeds name its first test and video.
var fuzzAssignment = []AssignedTest{
	{TestID: "s3-t0", VideoID: "v2", Kind: "timeline"},
	{TestID: "s3-control", VideoID: "v4", Kind: "timeline", Control: true},
}

// copyID resolves no campaign ID: a join decoded with it copies its own.
func copyID(id []byte) string { return string(id) }

// fuzzCampaign resolves the campaign the seeds name, as a server holding
// it would, to its own string.
func fuzzCampaign(id []byte) string {
	if string(id) == "c1" {
		return "c1"
	}
	return string(id)
}

// checkAllInPlace runs body through all three decoders, with and without
// a campaign or an assignment to resolve IDs against.
func checkAllInPlace(t *testing.T, body []byte) {
	t.Helper()
	for _, campaign := range []func([]byte) string{copyID, fuzzCampaign} {
		var join JoinRequest
		checkInPlace(t, body, joinFields, decodeJoinRequest(body, &join, campaign), &join, new(JoinRequest))
	}
	for _, known := range [][]AssignedTest{nil, fuzzAssignment} {
		var batch EventBatch
		checkInPlace(t, body, eventsFields, decodeEventBatch(body, &batch, known), &batch, new(EventBatch))
		var resp ResponseBody
		checkInPlace(t, body, responseFields, decodeResponseBody(body, &resp, known), &resp, new(ResponseBody))
	}
}

// inPlaceSeeds is the corpus the decoders are first held to: the three
// bodies' own fuzz seeds, around the IDs a fresh server mints first, and
// everything the in-place language leaves out.
func inPlaceSeeds() [][]byte {
	seeds := [][]byte{
		// Escapes and \u sequences, in values and in keys.
		[]byte(`{"video_id":"v2","plays":1}`),
		[]byte(`{"test_id":"s3-t0\n","choice":"le\/ft"}`),
		[]byte(`{"plays":1}`),
		[]byte(`{"campaign":"c1","worker":{"id":"w\"1"},"captcha":"\t"}`),
		[]byte(`{"video_id":"vidéo"}`),
		// null, everywhere the reference lets it stand for "absent".
		[]byte(`{"video_id":null,"plays":null}`),
		[]byte(`{"campaign":"c1","worker":null,"captcha":"t"}`),
		[]byte(`{"worker":{"id":null}}`),
		[]byte(`{"worker":null,"worker":{"id":"w"}}`),
		// Numbers: exponents, -0, huge and fractional integers, bad grammar.
		[]byte(`{"load_ms":1e3,"time_on_video_ms":2.5E+2,"watched_fraction":1e-7,"out_of_focus_ms":-0}`),
		[]byte(`{"load_ms":-0.0,"plays":-0,"seeks":0}`),
		[]byte(`{"plays":9223372036854775807,"pauses":-9223372036854775808}`),
		[]byte(`{"plays":9223372036854775808}`),
		[]byte(`{"plays":123456789012345678901234567890}`),
		[]byte(`{"load_ms":123456789012345678901234567890123456789012345678901234567890}`),
		[]byte(`{"load_ms":1e999}`),
		[]byte(`{"plays":1.0}`),
		[]byte(`{"plays":1e2}`),
		[]byte(`{"load_ms":01}`),
		[]byte(`{"load_ms":1.}`),
		[]byte(`{"load_ms":.5}`),
		[]byte(`{"load_ms":+1}`),
		[]byte(`{"load_ms":0x10}`),
		[]byte(`{"load_ms":1_000}`),
		[]byte(`{"load_ms":Infinity,"submitted_ms":NaN}`),
		[]byte(`{"load_ms":"900"}`),
		// Keys: case-folded, duplicated, unknown, empty.
		[]byte(`{"Video_ID":"v2","PLAYS":2}`),
		[]byte(`{"plays":1,"plays":2,"Plays":3}`),
		[]byte(`{"test_id":"a","test_id":"s3-t0","kept_original":true,"kept_original":false}`),
		[]byte(`{"worker":{"id":"a","gender":"f"},"worker":{"id":"b"}}`),
		[]byte(`{"":1}`),
		// Structure: nesting, trailing bytes, whitespace, wrong types.
		[]byte(`{"worker":{"id":{"x":1}}}`),
		[]byte(`{"worker":[]}`),
		[]byte(`{"video_id":"v2"}{"video_id":"v4"}`),
		[]byte(`{"video_id":"v2"} junk`),
		[]byte(" \t\r\n{ \"video_id\" : \"v2\" , \"plays\" : 1 } \n"),
		[]byte(`{"video_id":"v2",}`),
		[]byte(`{,"video_id":"v2"}`),
		[]byte(`{"kept_original":1,"accepted_helper":"true"}`),
		[]byte(`{"kept_original":truefalse}`),
		[]byte(`{"choice":"no difference"}`),
		[]byte(`{"choice":"right","test_id":"s3-control"}`),
	}
	seeds = append(seeds, joinSeeds("c1")...)
	seeds = append(seeds, eventsSeeds("v2")...)
	return append(seeds, responseSeeds("s3")...)
}

// FuzzInPlaceJSONDifferential: for any input, each in-place decoder
// either declines, leaving its target zero, or returns the struct
// decodeJSON returns (duplicate keys last-wins, numbers parsed alike);
// and it declines only what the reference refuses or what is outside its
// language as plain states it.
func FuzzInPlaceJSONDifferential(f *testing.F) {
	for _, seed := range inPlaceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(checkAllInPlace)
}

// TestIngestPathsAgree: the reply to a body does not depend on the path
// it took. Two servers seeded alike (so they mint the same IDs) get every
// seed on all three endpoints, one with the length declared — decoded in
// place, or declined to decodeJSON — the other chunked, readJSON's path
// alone; status and body must match request for request.
func TestIngestPathsAgree(t *testing.T) {
	type reply struct {
		status int
		body   string
	}
	run := func(chunked bool) (replies []reply) {
		c := newClient(t)
		campaign, vids := setupCampaign(c, "timeline", 1)
		jr := join(c, campaign, "w")
		if campaign != "c1" || vids[0] != "v2" || jr.Session != "s3" {
			t.Fatalf("seeded %s, %s, %s: the seeds name c1, v2, s3", campaign, vids[0], jr.Session)
		}
		for _, seed := range inPlaceSeeds() {
			for _, path := range []string{"/api/v1/sessions", "/api/v1/sessions/s3/events", "/api/v1/sessions/s3/responses"} {
				var rd io.Reader = bytes.NewReader(seed)
				if chunked {
					rd = unsized(rd)
				}
				resp, err := http.Post(c.srv.URL+path, "application/json", rd)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				replies = append(replies, reply{resp.StatusCode, string(got)})
			}
		}
		return replies
	}
	declared, chunked := run(false), run(true)
	for i := range declared {
		if declared[i] != chunked[i] {
			t.Errorf("seed %q, endpoint %d: declared length answers %d %q, chunked %d %q",
				inPlaceSeeds()[i/3], i%3, declared[i].status, declared[i].body, chunked[i].status, chunked[i].body)
		}
	}
}

// TestClientBodiesDecodeInPlace: the bodies cmd/loadgen and the
// differential suite send never take the slow path. Both render events
// and responses with encoding/json from the API's structs — so this runs
// the suite's own script generator and the float formats encoding/json
// switches between — and joins from ASCII identifiers, loadgen with
// Sprintf's %q.
func TestClientBodiesDecodeInPlace(t *testing.T) {
	inPlace := func(body []byte) {
		t.Helper()
		var (
			join  JoinRequest
			batch EventBatch
			resp  ResponseBody
		)
		if !decodeJoinRequest(body, &join, copyID) && !decodeEventBatch(body, &batch, fuzzAssignment) && !decodeResponseBody(body, &resp, fuzzAssignment) {
			t.Fatalf("takes the slow path: %s", body)
		}
		checkAllInPlace(t, body)
	}
	marshal := func(v any) []byte {
		t.Helper()
		var buf bytes.Buffer // as the suites' clients do, newline included
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// cmd/loadgen's join, verbatim, and the suites' marshalled one.
	inPlace([]byte(fmt.Sprintf(
		`{"campaign":%q,"worker":{"id":%q,"gender":%q,"country":%q,"source":"loadgen"},"captcha":"loadgen"}`,
		"ca.12", "lg-w3-s41", "female", "VE")))
	inPlace(marshal(JoinRequest{Campaign: "c1", Worker: Worker{ID: "w-7", Gender: "m", Country: "VE", Source: "crowdflower"}, Captcha: "ok-token"}))

	jr := JoinResponse{Session: "s3"}
	for k := 0; k < TestsPerSession; k++ {
		jr.Tests = append(jr.Tests, AssignedTest{TestID: fmt.Sprintf("s3-t%d", k), VideoID: fmt.Sprintf("v%d", 2+k%3), Kind: "timeline", Control: k == TestsPerSession-1})
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		kind := []string{"timeline", "ab"}[i%2]
		sc := buildScript(r, kind, "w", jr)
		for _, chunk := range append(sc.chunks, sc.late) {
			for _, b := range chunk {
				inPlace(marshal(b))
			}
		}
		for _, resp := range sc.responses {
			inPlace(marshal(resp))
		}
	}
	// Every way encoding/json writes a float64: plain, exponent on either
	// side, the integers' edge, the smallest and the largest, minus zero.
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 1e-7, 123456.789, 1e20, 1e21, 1.7976931348623157e308, 5e-324, 9007199254740993} {
		inPlace(marshal(EventBatch{VideoID: "v2", InstructionMs: x, LoadMs: -x, TimeOnVideoMs: x / 3, Plays: 1 << 40, Seeks: -3, WatchedFraction: x, OutOfFocusMs: x}))
		inPlace(marshal(ResponseBody{TestID: "s3-t0", SliderMs: x, HelperMs: -x, SubmittedMs: x / 7, AcceptedHelper: true, Choice: "no difference"}))
	}
}

// BenchmarkIngestJSONDecode prices the decode of one events body and one
// response body, the two a session sends fifteen of, each way.
func BenchmarkIngestJSONDecode(b *testing.B) {
	events := []byte(`{"video_id":"v2","load_ms":912.4375,"time_on_video_ms":21034.5,"plays":1,"pauses":0,"seeks":4,"watched_fraction":0.9375,"out_of_focus_ms":0}`)
	response := []byte(`{"test_id":"s3-t0","slider_ms":1431.25,"helper_ms":1210.5,"submitted_ms":1210.5,"kept_original":true}`)
	var (
		batch EventBatch
		resp  ResponseBody
		rd    bytes.Reader
	)
	b.Run("inplace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !decodeEventBatch(events, &batch, fuzzAssignment) || !decodeResponseBody(response, &resp, fuzzAssignment) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(events)
			err := decodeJSON(&rd, &batch)
			if rd.Reset(response); err == nil {
				err = decodeJSON(&rd, &resp)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
