package state

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// TestETagFormat: etagOf renders exactly what fmt's "%016x-%x" did, so a
// client's cached validator still matches after an upgrade.
func TestETagFormat(t *testing.T) {
	for _, sum := range []uint64{0, 1, 0xf, 0xabc, 1 << 32, 0x0123456789abcdef, 0xfedcba9876543210, ^uint64(0)} {
		for _, n := range []int{0, 1, 15, 16, 4095, 1 << 20, 1<<31 - 1} {
			tag := etagOf(sum, n)
			if got, want := tag.String(), fmt.Sprintf(`"%016x-%x"`, sum, n); got != want {
				t.Errorf("etagOf(%#x, %d) = %s, want %s", sum, n, got, want)
			}
		}
	}
}

// TestJournalOpsDocumented: docs/PROTOCOLS.md's table of journal record
// payloads has one row per row of ops, and no other.
func TestJournalOpsDocumented(t *testing.T) {
	doc, err := os.Open("../../../docs/PROTOCOLS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	documented := map[string]bool{}
	section := false
	for sc := bufio.NewScanner(doc); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			section = line == "## Journal record payloads"
			continue
		}
		if op, ok := strings.CutPrefix(line, "| `"); section && ok {
			op, _, _ = strings.Cut(op, "`")
			documented[op] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal(`docs/PROTOCOLS.md has no "Journal record payloads" table`)
	}
	for _, row := range ops {
		if !documented[row.name] {
			t.Errorf("op %s has no row in docs/PROTOCOLS.md's journal record table", row.name)
		}
		delete(documented, row.name)
	}
	for op := range documented {
		t.Errorf("docs/PROTOCOLS.md's journal record table lists %s, which is no row of ops", op)
	}
}

// TestJournalRecordBytesMatchMarshal: journal encodes each record into a
// pooled buffer instead of calling json.Marshal, and the record on disk
// is still json.Marshal's bytes, for every op: strings that encoding/json
// escapes (HTML, U+2028, non-ASCII) and a batch's EYB1 Wire bytes
// included. Every row of ops has a record here.
func TestJournalRecordBytesMatchMarshal(t *testing.T) {
	recs := AppendWireRecords(nil, EventBatch{VideoID: "v2", LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 4, WatchedFraction: 0.9})
	var enc wire.Encoder
	events := []*Event{
		{Op: OpCampaign, ID: "c1", Name: "<b>A & B</b> — ünï\u2028code", Kind: "timeline"},
		{Op: OpVideo, ID: "v2", Campaign: "c1", Hash: "e2f418a26daa90aec4ab4540ac673fdc9445eb213788a61c67ac01d4e9e51861", Size: 4096},
		{Op: OpSession, ID: "s3", Campaign: "c1", Worker: &Worker{ID: "w<1>", Gender: "f", Country: "ES", Source: "crowdflower"},
			Videos: []string{"v2", "v2", "v<3>", "v2", "v2", "v2", "v2"}},
		{Op: OpEvents, ID: "s3", Batch: &EventBatch{VideoID: "v2", InstructionMs: 3.5, LoadMs: 912.25, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 4, WatchedFraction: 0.9, OutOfFocusMs: 1e-7}},
		{Op: OpBatch, ID: "s3", Wire: enc.AppendBatch(nil, recs)},
		{Op: OpResponse, ID: "s3", Body: &ResponseBody{TestID: "s3-t0", SliderMs: 1400.5, HelperMs: 1200, SubmittedMs: 1200, KeptOriginal: true}},
		{Op: OpResponse, ID: "s4", Body: &ResponseBody{TestID: "s4-t0", Choice: "no difference"}},
		{Op: OpFlag, ID: "v2", Flagger: "w&2"},
	}
	dir := t.TempDir()
	jl, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := New(nil, nil)
	if err := st.Recover(jl); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if _, err := st.journal(ev, nil); err != nil {
			t.Fatalf("%s: %v", ev.Op, err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	jl, err = store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	n := 0
	err = jl.Replay(func(_ uint64, payload []byte) error {
		if n >= len(events) {
			return fmt.Errorf("record %d past the %d journaled", n+1, len(events))
		}
		want, err := json.Marshal(events[n])
		if err != nil {
			return err
		}
		if !bytes.Equal(payload, want) {
			t.Errorf("%s record:\n got %s\nwant %s", events[n].Op, payload, want)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("replayed %d records, journaled %d", n, len(events))
	}
	for _, row := range ops {
		if !slices.ContainsFunc(events, func(ev *Event) bool { return ev.Op == row.name }) {
			t.Errorf("op %s has no record here", row.name)
		}
	}
}

// TestHeldIDRefused: a video or session record whose ID the state already
// holds — in flight, or completed in its campaign — is refused before it
// is journaled, rather than overwrite the entity its ID names.
func TestHeldIDRefused(t *testing.T) {
	jl, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	blobs, err := blob.Open(blob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := blobs.Put(bytes.NewReader([]byte("EYV1 stand-in")))
	if err != nil {
		t.Fatal(err)
	}
	st := New(blobs, nil)
	if err := st.Recover(jl); err != nil {
		t.Fatal(err)
	}
	apply := func(ev *Event) error {
		seq, _, err := st.Apply(ev, nil)
		if err == nil {
			err = jl.WaitDurable(seq)
		}
		return err
	}
	video := &Event{Op: OpVideo, ID: "v2", Campaign: "c1", Hash: ref.Hash, Size: ref.Size}
	session := &Event{Op: OpSession, ID: "s3", Campaign: "c1", Worker: &Worker{ID: "w"}, Videos: sevenOf("v2")}
	for _, ev := range []*Event{{Op: OpCampaign, ID: "c1", Name: "held", Kind: "timeline"}, video, session} {
		if err := apply(ev); err != nil {
			t.Fatalf("%s %s: %v", ev.Op, ev.ID, err)
		}
	}
	refused := func(how string, ev *Event) {
		t.Helper()
		before := jl.Seq()
		if err := apply(ev); !errors.Is(err, ErrHeld) || !strings.Contains(err.Error(), ev.ID) {
			t.Errorf("%s %s %s: %v, want ErrHeld naming it", how, ev.Op, ev.ID, err)
		}
		if jl.Seq() != before {
			t.Errorf("%s %s %s: a refused record was journaled", how, ev.Op, ev.ID)
		}
	}
	refused("in flight", video)
	refused("in flight", session)
	for _, test := range []string{"s3-t0", "s3-t1", "s3-t2", "s3-t3", "s3-t4", "s3-t5", "s3-control"} {
		if err := apply(&Event{Op: OpResponse, ID: "s3", Body: &ResponseBody{TestID: test, SubmittedMs: 900, KeptOriginal: true}}); err != nil {
			t.Fatal(err)
		}
	}
	refused("completed", session)
}

// TestOutOfRangeMillisecondsRefused: a millisecond field whose count of
// nanoseconds does not fit in an int64 (time.Duration's range), NaN and
// ±Inf included, is refused by its record's row with ErrInvalidValue and
// the field's name, by a state in memory and a durable one alike, before
// anything is journaled; a negative value that fits is a value. A journal
// holding such a record, which builds that checked it only at the HTTP
// boundary could replay, fails Open with an error naming the record.
func TestOutOfRangeMillisecondsRefused(t *testing.T) {
	for _, c := range []struct {
		ms   float64
		fits bool
	}{{9.2e12, true}, {-9.2e12, true}, {0, true}, {9.3e12, false}, {-9.3e12, false}, {math.MaxFloat64, false}, {math.Inf(-1), false}, {math.Inf(1), false}, {math.NaN(), false}} {
		if durationFits(c.ms) != c.fits {
			t.Errorf("durationFits(%g) = %v, want %v", c.ms, !c.fits, c.fits)
		}
	}

	dir := t.TempDir()
	r := openRig(t, dir, nil)
	seedOpPrefix(r)
	mem := New(r.blobs, nil)
	defer mem.Close()
	refused := func(ev *Event, field string) {
		t.Helper()
		before := r.jl.Seq()
		_, err := r.apply(ev)
		_, _, memErr := mem.Apply(ev, nil)
		want := field + " is outside the range of a duration"
		for how, err := range map[string]error{"durable": err, "in memory": memErr} {
			if !errors.Is(err, ErrInvalidValue) || err.Error() != want {
				t.Errorf("%s %s %s: %v, want ErrInvalidValue %q", how, ev.Op, field, err, want)
			}
		}
		if r.jl.Seq() != before {
			t.Errorf("%s %s: the refused record was journaled", ev.Op, field)
		}
	}
	for _, ms := range []float64{9.3e12, -9.3e12, math.MaxFloat64, math.Inf(1), math.NaN()} {
		for i, field := range []string{"instruction_ms", "load_ms", "time_on_video_ms", "out_of_focus_ms"} {
			b := EventBatch{VideoID: "v2", LoadMs: 900, TimeOnVideoMs: 21_000}
			*[]*float64{&b.InstructionMs, &b.LoadMs, &b.TimeOnVideoMs, &b.OutOfFocusMs}[i] = ms
			refused(&Event{Op: OpEvents, ID: "s3", Batch: &b}, field)
		}
		refused(&Event{Op: OpResponse, ID: "s3", Body: &ResponseBody{TestID: "s3-control", SubmittedMs: ms, KeptOriginal: true}}, "submitted_ms")
	}
	r.mustApply(&Event{Op: OpEvents, ID: "s3", Batch: &EventBatch{VideoID: "v2", LoadMs: -5, TimeOnVideoMs: 21_000}})
	r.close()

	seq := appendRecords(t, dir, []byte(`{"op":"events","id":"s3","batch":{"video_id":"v2","load_ms":900,"time_on_video_ms":9.3e12}}`))
	err := openErr(t, dir)
	if want := fmt.Sprintf("record %d (events) batch.time_on_video_ms: time_on_video_ms is outside the range of a duration", seq); !errors.Is(err, ErrInvalidValue) || !strings.Contains(fmt.Sprint(err), want) {
		t.Fatalf("replay: %v, want ErrInvalidValue naming %q", err, want)
	}
}
