package state

import (
	"bytes"
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
	var videos [TestsPerSession]string
	for k := range videos {
		videos[k] = c.Videos[k%3]
		a := answer{Test: k, ControlFailed: k == TestsPerSession-1}
		if kind == "ab" {
			a.Choice = response.ABChoice(k % 3)
		} else {
			a.Submitted = time.Duration(1_400+k*37) * time.Millisecond
		}
		sess.answers = append(sess.answers, a)
	}
	sess.Assignment = assignment(sess.ID, kind, &videos)
	return c, sess
}

// TestFrozenRoundTrip: encode → decode gives back every field a completed
// session has, for the records completion writes and for the values no
// handler mints but a journal may carry.
func TestFrozenRoundTrip(t *testing.T) {
	for name, mutate := range map[string]func(c *Campaign, sess *Session){
		"as completion writes it": func(*Campaign, *Session) {},
		"answers out of order, negative values": func(c *Campaign, sess *Session) {
			sess.answers[0], sess.answers[6] = sess.answers[6], sess.answers[0]
			sess.final.Actions = -12
			if c.Kind == "timeline" {
				sess.answers[2].Submitted = -time.Second
				sess.answers[3].Submitted = 1<<63 - 1
			}
		},
		"empty worker": func(_ *Campaign, sess *Session) { sess.Worker = Worker{} },
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
	if n := len(appendFrozen(nil, c, sess)); n != 85 {
		t.Fatalf("a plain timeline record takes %d bytes, want 85", n)
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
	// Four empty worker fields, then hand-built videos, answers and final.
	worker := []byte{0, 0, 0, 0}
	videos := []byte{0, 0, 0, 0, 0, 0, 0}
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
		"video past the list":     {build(worker, []byte{0, 0, 0, 3, 0, 0, 0}, []byte{0}, final), "test 3 names video 3 of 3"},
		"answer to no test":       {build(worker, videos, []byte{1, TestsPerSession << 1, 0}, final), "test 7 of 7"},
		"more answers than bytes": {build(worker, videos, []byte{0xff, 0xff, 0x03}, final), "answers in"},
		"verdict off the table":   {build(worker, videos, []byte{0}, []byte{0, 5, 0, 0, 0, 0}), "reason"},
		"verdict past int64": {build(worker, videos, []byte{0},
			[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0, 0}), "reason"},
		"string past the record": {[]byte{9, 'a'}, "ends early"},
	} {
		_, err := decodeFrozen(c, sess.ID, tc.rec)
		if !errors.Is(err, errFrozen) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: %v, want errFrozen mentioning %q", name, err, tc.want)
		}
	}
}

// FuzzFrozenSession: a frozen record is read back from its campaign's
// frozen file, from outside the process. Arbitrary bytes never panic the
// decoder or the in-place row renderer (appendRowOf); a record the
// decoder accepts yields a session every consumer can walk — its answers
// index its assignment, its verdict names a rule — encodes back to a
// record that decodes to the same session, and renders in place, byte
// for byte, the /analytics row its decoded session renders. The
// committed corpus (testdata/fuzz/FuzzFrozenSession) holds a record of
// negative actions, which a renderer reading them unsigned gets wrong.
func FuzzFrozenSession(f *testing.F) {
	for _, kind := range []string{"timeline", "ab"} {
		c, sess := frozenFixture(kind)
		f.Add(appendFrozen(nil, c, sess), kind == "ab", uint8(len(c.Videos)))
	}
	f.Add([]byte{}, false, uint8(0))
	// Seven tests of the one video, one answered.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, true, uint8(1))
	// Over three videos, the control answered first and failed, then test
	// 2 a nanosecond before the video starts.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2, 0, 1, 2, 0, 2, 6<<1 | 1, 0, 2 << 1, 1, 0, 0, 2, 0, 1, 1}, false, uint8(3))
	// A video past the campaign's three.
	f.Add([]byte{0, 0, 0, 0, 0, 1, 2, 3, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0}, false, uint8(3))
	f.Fuzz(func(t *testing.T, rec []byte, ab bool, videos uint8) {
		c, _ := frozenFixture("timeline")
		if ab {
			c.Kind = "ab"
		}
		c.Videos = c.Videos[:min(int(videos), len(c.Videos))]
		row, rendered := appendRowOf([]byte("rows,"), "s17", rec)
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
		v := sess.verdict()
		if want := v.appendRow([]byte("rows,")); !rendered || !bytes.Equal(row, want) {
			t.Fatalf("the record renders in place (ok %v) as\n%s\nits decoded session as\n%s", rendered, row, want)
		}
		_, _ = parseResponse(sess, &ResponseBody{TestID: "s17-t0", Choice: "left"})
		again, err := decodeFrozen(c, "s17", appendFrozen(nil, c, sess))
		if err != nil || !reflect.DeepEqual(again, sess) {
			t.Fatalf("re-encoding an accepted record changed it (%v):\n got: %+v\nwant: %+v", err, again, sess)
		}
	})
}
