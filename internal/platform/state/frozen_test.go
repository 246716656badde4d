package state

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/response"
)

// frozenFixture returns a campaign of the given kind with three videos
// and a completed session of it: six tests and a control, answered in
// presentation order, the control failed.
func frozenFixture(kind string) (*Campaign, *Session) {
	c := &Campaign{ID: "c1", Kind: kind, Videos: []string{"v2", "v3", "v4"}}
	sess := &Session{
		ID:       "s17",
		Campaign: c,
		Worker:   Worker{ID: "worker-17", Gender: "f", Country: "IT", Source: "microworkers"},
		final: quality.Snapshot{
			Provisional: filtering.DropControl, Final: filtering.DropControl, Completed: true,
			Answered: TestsPerSession, Actions: 91, Controls: 1, ControlsFailed: 1,
		},
	}
	for k := 0; k < TestsPerSession; k++ {
		t := AssignedTest{TestID: sess.ID + "-t" + string(rune('0'+k)), VideoID: c.Videos[k%3], Kind: kind}
		a := answer{Test: k}
		if k == TestsPerSession-1 {
			t.TestID, t.Control, a.ControlFailed = sess.ID+"-control", true, true
		}
		if kind == "ab" {
			a.Choice = response.ABChoice(k % 3)
		} else {
			a.Submitted = time.Duration(1_400+k*37) * time.Millisecond
		}
		sess.Assignment = append(sess.Assignment, t)
		sess.answers = append(sess.answers, a)
	}
	return c, sess
}

// TestFrozenRoundTrip: encode → decode gives back every field a completed
// session has, for the records completion writes and for the literals
// the encoding falls back to — a test ID the join would not have minted,
// a video the campaign does not list, a kind other than the campaign's —
// and for the values no handler mints but a journal may carry.
func TestFrozenRoundTrip(t *testing.T) {
	for name, mutate := range map[string]func(c *Campaign, sess *Session){
		"as completion writes it": func(*Campaign, *Session) {},
		"foreign test IDs": func(_ *Campaign, sess *Session) {
			sess.Assignment[0].TestID = "odd-0"
			sess.Assignment[3].TestID = "s1" // a proper prefix of the session ID
			sess.Assignment[4].TestID = ""
		},
		"test ID is the session ID": func(_ *Campaign, sess *Session) { sess.Assignment[1].TestID = sess.ID },
		"minted IDs out of place": func(_ *Campaign, sess *Session) {
			sess.Assignment[0].TestID = sess.ID + "-t1"      // another test's
			sess.Assignment[1].TestID = sess.ID + "-control" // the control's, on a plain test
			sess.Assignment[2].TestID = sess.ID + "-t02"     // the number spelled otherwise
			sess.Assignment[6].TestID = sess.ID + "-t6"      // a plain test's, on the control
		},
		"video outside the campaign": func(_ *Campaign, sess *Session) {
			sess.Assignment[2].VideoID = "v-gone"
			sess.Assignment[5].VideoID = ""
		},
		"campaign without videos": func(c *Campaign, _ *Session) { c.Videos = nil },
		"kind other than the campaign's": func(c *Campaign, sess *Session) {
			// The answer's value travels as the test's own kind reads it.
			sess.Assignment[1].Kind, sess.answers[1] = "ab", answer{Test: 1, Choice: response.ChoiceRight}
			if c.Kind == "ab" {
				sess.Assignment[1].Kind, sess.answers[1] = "timeline", answer{Test: 1, Submitted: 5 * time.Second}
			}
			sess.Assignment[2].Kind, sess.answers[2] = "survey", answer{Test: 2, Submitted: 2 * time.Second}
		},
		"answers out of order, negative values": func(c *Campaign, sess *Session) {
			sess.answers[0], sess.answers[6] = sess.answers[6], sess.answers[0]
			sess.final.Actions = -12
			if c.Kind == "timeline" {
				sess.answers[2].Submitted = -time.Second
				sess.answers[3].Submitted = 1<<63 - 1
			}
		},
		"empty worker, no tests": func(_ *Campaign, sess *Session) {
			sess.Worker, sess.Assignment, sess.answers = Worker{}, []AssignedTest{}, []answer{}
			sess.final = quality.Snapshot{Completed: true}
		},
	} {
		for _, kind := range []string{"timeline", "ab"} {
			c, want := frozenFixture(kind)
			mutate(c, want)
			rec := appendFrozen(nil, c, want)
			got, err := decodeFrozen(c, want.ID, rec)
			if err != nil {
				t.Fatalf("%s/%s: decoding what was just encoded: %v", name, kind, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: round trip changed the session:\n got: %+v\nwant: %+v", name, kind, got, want)
			}
			// Appending to a non-empty arena writes the same bytes.
			if again := appendFrozen([]byte("arena"), c, want); string(again) != "arena"+string(rec) {
				t.Fatalf("%s/%s: record depends on what it is appended to", name, kind)
			}
		}
	}
	c, sess := frozenFixture("timeline")
	if n := len(appendFrozen(nil, c, sess)); n > 100 {
		t.Fatalf("a plain timeline record takes %d bytes, want at most 100", n)
	}
}

// TestFrozenDecodeRefusesCorruptRecords: every way a record can be wrong
// is an error wrapping errFrozen that says what is wrong, never a panic
// and never a session that indexes outside its campaign's videos or its
// own assignment.
func TestFrozenDecodeRefusesCorruptRecords(t *testing.T) {
	c, sess := frozenFixture("timeline")
	good := appendFrozen(nil, c, sess)
	for cut := 0; cut < len(good); cut++ {
		if _, err := decodeFrozen(c, sess.ID, good[:cut]); !errors.Is(err, errFrozen) {
			t.Fatalf("record cut to %d of %d bytes: %v, want errFrozen", cut, len(good), err)
		}
	}
	// Four empty worker fields, then hand-built tests, answers and final.
	worker := []byte{0, 0, 0, 0}
	final := []byte{0, 0, 0, 0, 0, 0}
	build := func(parts ...[]byte) []byte {
		var rec []byte
		for _, p := range parts {
			rec = append(rec, p...)
		}
		return rec
	}
	for name, tc := range map[string]struct {
		rec  []byte
		want string
	}{
		"trailing bytes":          {build(good, []byte{0}), "trailing"},
		"video past the list":     {build(worker, []byte{1, 0, 3, 0}, []byte{0}, final), "video 3 of 3"},
		"unknown flag":            {build(worker, []byte{1, frozenFlagsEnd, 0, 0}, []byte{0}, final), "flags"},
		"answer to no test":       {build(worker, []byte{1, 0, 0, 0}, []byte{1, 1 << 1, 0}, final), "test 1 of 1"},
		"answer without tests":    {build(worker, []byte{0}, []byte{1, 0, 0}, final), "test 0 of 0"},
		"more tests than bytes":   {build(worker, []byte{0xff, 0xff, 0x03}, final), "tests in"},
		"more answers than bytes": {build(worker, []byte{0}, []byte{0xff, 0xff, 0x03}, final), "answers in"},
		"verdict off the table":   {build(worker, []byte{0}, []byte{0}, []byte{0, 5, 0, 0, 0, 0}), "reason"},
		"verdict past int64": {build(worker, []byte{0}, []byte{0},
			[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0, 0}), "reason"},
		"string past the record": {[]byte{9, 'a'}, "ends early"},
	} {
		_, err := decodeFrozen(c, sess.ID, tc.rec)
		if !errors.Is(err, errFrozen) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: %v, want errFrozen mentioning %q", name, err, tc.want)
		}
	}
}

// FuzzFrozenSession: a frozen record arrives inside import documents,
// from outside the process. Arbitrary bytes never panic the decoder; a
// record it accepts yields a session every consumer can walk — its
// answers index its assignment, its verdict names a rule — and encodes
// back to a record that decodes to the same session.
func FuzzFrozenSession(f *testing.F) {
	for _, kind := range []string{"timeline", "ab"} {
		c, sess := frozenFixture(kind)
		f.Add(appendFrozen(nil, c, sess), kind == "ab", uint8(len(c.Videos)))
	}
	f.Add([]byte{}, false, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, true, uint8(1))
	// One test, answered: its ID the minted "s17-t0", then one stored whole.
	f.Add([]byte{0, 0, 0, 0, 1, frozenMinted, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, false, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 3, 'o', 'd', 'd', 1, 0, 0, 0, 0, 0, 0, 0, 0}, false, uint8(1))
	f.Fuzz(func(t *testing.T, rec []byte, ab bool, videos uint8) {
		c, _ := frozenFixture("timeline")
		if ab {
			c.Kind = "ab"
		}
		c.Videos = c.Videos[:min(int(videos), len(c.Videos))]
		sess, err := decodeFrozen(c, "s17", rec)
		if err != nil {
			if !errors.Is(err, errFrozen) {
				t.Fatalf("decode error %v does not wrap errFrozen", err)
			}
			return
		}
		// What the server does with a decoded session.
		folded := new(completion).record(sess, c.Kind)
		if n := len(folded.Timeline) + len(folded.AB); n != len(sess.answers) {
			t.Fatalf("record views %d answers of %d", n, len(sess.answers))
		}
		_ = sess.verdict()
		_, _ = parseResponse(sess, &ResponseBody{TestID: "s17-t0", Choice: "left"})
		again, err := decodeFrozen(c, "s17", appendFrozen(nil, c, sess))
		if err != nil || !reflect.DeepEqual(again, sess) {
			t.Fatalf("re-encoding an accepted record changed it (%v):\n got: %+v\nwant: %+v", err, again, sess)
		}
	})
}
