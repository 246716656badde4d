package platform

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// opPrefix is what seedOpPrefix leaves on a server: campaign c1, its
// video v2 and session s3, which has answered every test but its last.
type opPrefix struct {
	campaign, video, hash, session string
	tests                          []AssignedTest
}

var (
	opVideoOnce  sync.Once
	opVideoBytes []byte
)

// seedOpPrefix applies the prefix every op-table test starts from, each
// record through its row by mutate, as a live request applies it.
func seedOpPrefix(tb testing.TB, srv *Server) opPrefix {
	tb.Helper()
	opVideoOnce.Do(func() { opVideoBytes = sampleVideoBytes() })
	ref, _, err := srv.blobs.Put(bytes.NewReader(opVideoBytes))
	if err != nil {
		tb.Fatal(err)
	}
	p := opPrefix{campaign: "c1", video: "v2", hash: ref.Hash, session: "s3"}
	for k := 0; k < TestsPerSession; k++ {
		control := k == TestsPerSession-1
		id := fmt.Sprintf("%s-t%d", p.session, k)
		if control {
			id = p.session + "-control"
		}
		p.tests = append(p.tests, AssignedTest{TestID: id, VideoID: p.video, Kind: "timeline", Control: control})
	}
	records := []*state.Event{
		{Op: state.OpCampaign, ID: p.campaign, Name: "op table", Kind: "timeline"},
		{Op: state.OpVideo, ID: p.video, Campaign: p.campaign, Hash: p.hash, Size: ref.Size},
		{Op: state.OpSession, ID: p.session, Campaign: p.campaign, Worker: &Worker{ID: "w1", Country: "ES"}, Tests: p.tests},
	}
	for k, t := range p.tests[:TestsPerSession-1] {
		records = append(records, &state.Event{Op: state.OpResponse, ID: p.session,
			Body: &ResponseBody{TestID: t.TestID, SubmittedMs: 1200 + float64(k), KeptOriginal: true}})
	}
	for _, ev := range records {
		if _, err := srv.mutate(ev, nil); err != nil {
			tb.Fatalf("prefix %s record: %v", ev.Op, err)
		}
	}
	return p
}

// openOrPanic is Open with a panic turned into an error, so a test that
// replays a hostile journal reports each case instead of dying on one.
func openOrPanic(opts Options) (srv *Server, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("Open panicked: %v", p)
		}
	}()
	return Open(opts)
}

// TestMalformedJournalRecordRefused: a CRC-valid journal record that
// lacks a field its op reads, or names a campaign kind the create
// handler refuses, fails Open with an error naming the record's sequence
// and op and the field, never a panic and never a replayed record.
func TestMalformedJournalRecordRefused(t *testing.T) {
	for _, tc := range []struct {
		op, record, field string
	}{
		{state.OpSession, `{"op":"session","id":"s9","campaign":"c1"}`, "worker"},
		{state.OpEvents, `{"op":"events","id":"s3"}`, "batch"},
		{state.OpResponse, `{"op":"response","id":"s3"}`, "body"},
		{state.OpCampaign, `{"op":"campaign","id":"c77","name":"n","kind":"bogus"}`, "kind"},
		{state.OpFlag, `{"op":"flag","id":"v2"}`, "flagger"},
	} {
		t.Run(tc.op, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := Open(Options{DataDir: dir, SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			seedOpPrefix(t, srv)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			jl, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := jl.Append([]byte(tc.record))
			if err != nil {
				t.Fatal(err)
			}
			if err := jl.Close(); err != nil {
				t.Fatal(err)
			}
			srv, err = openOrPanic(Options{DataDir: dir, SnapshotEvery: -1})
			if err == nil {
				srv.Close()
				t.Fatalf("Open replayed %s", tc.record)
			}
			for _, want := range []string{fmt.Sprintf("record %d (%s)", seq, tc.op), tc.field} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("Open: %v, want an error naming %q", err, want)
				}
			}
		})
	}
}

// FuzzOpRoundTrip drives one record of a live row through mutate, which
// hands it to the state's Apply with no HTTP in front of it, after
// seedOpPrefix on a durable server. pick chooses the row; the strings and
// numbers fill its fields, a set bit of known puts the prefix's value in
// a field instead (so a record can name the campaign, video, session or
// test that exists), and nilPtr leaves the record's pointer field out.
// Whatever the record, Open over the journal does not panic, a record
// refused live leaves the journal's sequence where it was and one
// accepted moves it by one, and the reopened server's state document
// equals the live server's byte for byte.
func FuzzOpRoundTrip(f *testing.F) {
	for pick := range state.Ops() {
		f.Add(byte(pick), uint8(0xff), "c9", "name", "timeline", 1400.5, int64(3), false)
		f.Add(byte(pick), uint8(0), "", "", "", 0.0, int64(0), true)
	}
	f.Add(byte(5), uint8(0xff), "", "", "", 1650.0, int64(6), false) // completes s3
	f.Add(byte(5), uint8(0xfd), "", "no such test", "", 1.0, int64(0), false)
	f.Add(byte(1), uint8(0xfe), "v8", "c404", "", 0.0, int64(10), false)
	f.Add(byte(4), uint8(0), "s3", "\xff\x00", "", 0.0, int64(0), false) // undecodable EYB1
	var live []string
	for _, row := range state.Ops() {
		if !row.Retired {
			live = append(live, row.Name)
		}
	}
	f.Fuzz(func(t *testing.T, pick byte, known uint8, id, s1, s2 string, x float64, n int64, nilPtr bool) {
		// Every string a live record carries was decoded from JSON, or is
		// minted, so it is valid UTF-8.
		id, s1, s2 = strings.ToValidUTF8(id, "\uFFFD"), strings.ToValidUTF8(s1, "\uFFFD"), strings.ToValidUTF8(s2, "\uFFFD")
		opts := Options{DataDir: t.TempDir(), SnapshotEvery: -1}
		srv, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		p := seedOpPrefix(t, srv)
		or := func(bit uint8, s, prefix string) string {
			if known&bit != 0 {
				return prefix
			}
			return s
		}
		ev := &state.Event{Op: live[int(pick)%len(live)]}
		switch ev.Op {
		case state.OpCampaign:
			ev.ID, ev.Name, ev.Kind = id, s1, or(1, s2, "timeline")
		case state.OpVideo:
			ev.ID, ev.Campaign, ev.Hash, ev.Size = id, or(1, s1, p.campaign), or(2, s2, p.hash), n
		case state.OpSession:
			ev.ID, ev.Campaign = id, or(1, s1, p.campaign)
			if known&2 != 0 {
				ev.Tests = p.tests
			} else if s2 != "" {
				ev.Tests = []AssignedTest{{TestID: s2, VideoID: s1, Kind: s2, Control: n%2 == 0}}
			}
			if !nilPtr {
				ev.Worker = &Worker{ID: s2, Country: s1}
			}
		case state.OpEvents, state.OpBatch:
			ev.ID = or(1, id, p.session)
			b := EventBatch{VideoID: or(2, s1, p.video), InstructionMs: x, LoadMs: x, TimeOnVideoMs: x,
				Plays: int(n), Pauses: int(n >> 8), Seeks: int(n >> 16), WatchedFraction: x, OutOfFocusMs: x}
			switch {
			case ev.Op == state.OpBatch && known&4 != 0:
				var enc wire.Encoder
				ev.Wire = enc.AppendBatch(nil, AppendWireRecords(nil, b))
			case ev.Op == state.OpBatch:
				ev.Wire = []byte(s2)
			case !nilPtr:
				ev.Batch = &b
			}
		case state.OpResponse:
			ev.ID = or(1, id, p.session)
			if !nilPtr {
				k := int(uint64(n) % TestsPerSession)
				ev.Body = &ResponseBody{TestID: or(2, s1, p.tests[k].TestID), Choice: s2, SubmittedMs: x, KeptOriginal: n%2 == 0}
			}
		case state.OpFlag:
			ev.ID, ev.Flagger = or(1, id, p.video), s1
		default:
			t.Fatalf("live op %s has no record here", ev.Op)
		}
		before := srv.log.Seq()
		_, applied := srv.mutate(ev, nil)
		switch after := srv.log.Seq(); {
		case applied != nil && after != before:
			t.Fatalf("%s record refused (%v) moved the journal from %d to %d", ev.Op, applied, before, after)
		case applied == nil && after != before+1:
			t.Fatalf("%s record applied moved the journal from %d to %d", ev.Op, before, after)
		}
		want, err := document(srv)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(opts)
		if err != nil {
			t.Fatalf("Open after a %s record (live: %v): %v", ev.Op, applied, err)
		}
		defer reopened.Close()
		got, err := document(reopened)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s record (live: %v): reopened state\n%s\nlive state\n%s", ev.Op, applied, got, want)
		}
	})
}
