package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendSync appends payload and waits until it is durable, as a caller
// that acks the record does.
func appendSync(l *Log, payload []byte) (uint64, error) {
	seq, err := l.AppendAsync(payload)
	if err != nil {
		return 0, err
	}
	return seq, l.WaitDurable(seq)
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := appendSync(l, []byte(p)); err != nil {
			t.Fatalf("append %q: %v", p, err)
		}
	}
}

func replayAll(t *testing.T, l *Log) (seqs []uint64, payloads []string) {
	t.Helper()
	err := l.Replay(func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1].path
}

func TestAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a", "bb", "ccc")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seqs, payloads := replayAll(t, l)
	if want := []string{"a", "bb", "ccc"}; len(payloads) != 3 || payloads[0] != want[0] || payloads[1] != want[1] || payloads[2] != want[2] {
		t.Fatalf("replayed %v, want %v", payloads, want)
	}
	if seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("sequences %v, want 1..3", seqs)
	}
	// Appends continue the sequence.
	seq, err := appendSync(l, []byte("dddd"))
	if err != nil || seq != 4 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("payload-%03d", i)
		want = append(want, p)
	}
	appendAll(t, l, want...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}

	l, err = Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, payloads := replayAll(t, l)
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if payloads[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, payloads[i], want[i])
		}
	}
}

// tearSegment writes b where the segment at path would take its next
// frame — the end of its last valid frame, not the end of the file,
// which on a crashed, preallocated segment lies past the zeros — as a
// crash mid-append leaves it.
func tearSegment(t *testing.T, path string, b []byte) {
	t.Helper()
	end, _ := dataEnd(t, path)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, end); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "one", "two")
	// Simulate a crash mid-append: the log dies with its segment still
	// preallocated, and a frame's first bytes follow the last good one.
	l.crash()
	tearSegment(t, lastSegment(t, dir), []byte{0x09, 0x00, 0x00, 0x00, 0xde, 0xad})

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	_, payloads := replayAll(t, l)
	if len(payloads) != 2 || payloads[1] != "two" {
		t.Fatalf("replayed %v, want [one two]", payloads)
	}
	// The torn bytes are gone; appends land cleanly where they were.
	if seq, err := appendSync(l, []byte("three")); err != nil || seq != 3 {
		t.Fatalf("append after truncation: seq=%d err=%v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	_, payloads = replayAll(t, l)
	if len(payloads) != 3 || payloads[2] != "three" {
		t.Fatalf("replayed %v, want [one two three]", payloads)
	}
}

func TestCorruptPayloadTruncatesFromThere(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "aaaa", "bbbb", "cccc")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := lastSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the second record's payload.
	raw[recordHeader+4+recordHeader+1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with corrupt record: %v", err)
	}
	defer l.Close()
	_, payloads := replayAll(t, l)
	if len(payloads) != 1 || payloads[0] != "aaaa" {
		t.Fatalf("replayed %v, want just [aaaa]", payloads)
	}
}

func TestMidJournalCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendAll(t, l, fmt.Sprintf("record-%d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}
	// Corrupt the FIRST segment: that is unrecoverable, not a torn tail.
	raw, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	raw[recordHeader+1] ^= 0xff
	if err := os.WriteFile(segs[0].path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 32}); err == nil {
		t.Fatal("open succeeded on mid-journal corruption")
	}
}

func TestMissingOldestSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		appendAll(t, l, fmt.Sprintf("record-%d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}
	// Losing the segment that holds the first records must not silently
	// replay a journal missing its prefix.
	if err := os.Remove(segs[0].path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 32}); err == nil {
		t.Fatal("open succeeded with the oldest segment missing")
	}
}

func TestSnapshotReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "old-1", "old-2")
	if err := l.WriteSnapshot([]byte("state@2")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "new-3", "new-4")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, data, ok := l.Snapshot()
	if !ok || seq != 2 || !bytes.Equal(data, []byte("state@2")) {
		t.Fatalf("snapshot = (%d, %q, %v), want (2, state@2, true)", seq, data, ok)
	}
	seqs, payloads := replayAll(t, l)
	if len(payloads) != 2 || payloads[0] != "new-3" || payloads[1] != "new-4" {
		t.Fatalf("tail replay %v, want [new-3 new-4]", payloads)
	}
	if seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("tail sequences %v, want [3 4]", seqs)
	}
	if l.Seq() != 4 {
		t.Fatalf("Seq() = %d, want 4", l.Seq())
	}
}

// TestReplayAllocsFlatInCoveredRecords: what Replay allocates does not
// grow with the records the loaded snapshot covers, and it reads none of
// them. The journal starts with a snapshot of nothing, as a platform
// data directory does, so after the second snapshot both are retained
// and the segment of covered records stays on disk. Replay skips that
// segment, which the test shows by appending a valid frame to it after
// Open: read, it would replay as the record after the snapshot. Nor do
// its allocations grow with the records past the snapshot, which it
// reads into one buffer.
func TestReplayAllocsFlatInCoveredRecords(t *testing.T) {
	payload := bytes.Repeat([]byte("r"), 100)
	replayAllocs := func(covered, tail int) float64 {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WriteSnapshot([]byte("nothing")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < covered; i++ {
			if _, err := appendSync(l, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.WriteSnapshot([]byte("covered")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tail; i++ {
			if _, err := appendSync(l, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		segs, err := listFiles(dir, segPrefix, segSuffix)
		if err != nil || len(segs) != 2 || segs[0].seq != 1 {
			t.Fatalf("segments %v (%v), want the covered one from seq 1 and the tail's", segs, err)
		}
		f, err := os.OpenFile(segs[0].path, os.O_APPEND|os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(AppendRecord(nil, []byte("read from a covered segment")))
			f.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			n := 0
			err := l.Replay(func(seq uint64, p []byte) error {
				if n++; seq != uint64(covered+n) || !bytes.Equal(p, payload) {
					return fmt.Errorf("record %d of the tail is seq %d, %q", n, seq, p)
				}
				return nil
			})
			if err != nil || n != tail {
				t.Fatalf("replayed %d records, want %d: %v", n, tail, err)
			}
		})
	}
	few, many, long := replayAllocs(100, 16), replayAllocs(4000, 16), replayAllocs(100, 512)
	t.Logf("Replay allocates %.0f times for 16 records past 100 covered ones, %.0f past 4,000, %.0f for 512 records", few, many, long)
	if many > few || long > few {
		t.Fatalf("Replay allocates %.0f times for 16 records past 100 covered ones, %.0f past 4,000 and %.0f for 512 records", few, many, long)
	}
}

func TestSnapshotCompactsSegmentsAndOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i := 0; i < 6; i++ {
			appendAll(t, l, fmt.Sprintf("r%d-%d-padding-padding", round, i))
		}
		if err := l.WriteSnapshot([]byte(fmt.Sprintf("state-%d", round))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := listFiles(dir, snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(snaps))
	}
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	// Everything below the older retained snapshot must be gone: with 4
	// rounds of 6 records each, at least the first two rounds' segments.
	if segs[0].seq <= 12 {
		t.Fatalf("segments below the retained snapshot survived: first base %d", segs[0].seq)
	}
	l, err = Open(dir, Options{SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, data, ok := l.Snapshot()
	if !ok || seq != 24 || string(data) != "state-3" {
		t.Fatalf("snapshot = (%d, %q, %v), want (24, state-3, true)", seq, data, ok)
	}
	if seqs, _ := replayAll(t, l); len(seqs) != 0 {
		t.Fatalf("tail should be empty, replayed %d records", len(seqs))
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "a")
	if err := l.WriteSnapshot([]byte("good@1")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "b")
	if err := l.WriteSnapshot([]byte("bad@2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := listFiles(dir, snapPrefix, snapSuffix)
	if err != nil {
		t.Fatal(err)
	}
	newest := snaps[len(snaps)-1].path
	raw, _ := os.ReadFile(newest)
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, data, ok := l.Snapshot()
	if !ok || seq != 1 || string(data) != "good@1" {
		t.Fatalf("fallback snapshot = (%d, %q, %v), want (1, good@1, true)", seq, data, ok)
	}
	// The tail past the fallback snapshot is still replayable.
	_, payloads := replayAll(t, l)
	if len(payloads) != 1 || payloads[0] != "b" {
		t.Fatalf("tail %v, want [b]", payloads)
	}
}

func TestEmptyDirStartsAtSeqOne(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "data")
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	seq, err := appendSync(l, []byte("first"))
	if err != nil || seq != 1 {
		t.Fatalf("first append seq=%d err=%v", seq, err)
	}
	if _, _, ok := l.Snapshot(); ok {
		t.Fatal("fresh log claims a snapshot")
	}
}

func TestAppendErrorLatchesLogFailed(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, "good")
	// Sabotage the active segment file: the next append's flush fails,
	// and from then on the log must refuse appends (memory and disk can
	// no longer be trusted to agree) until reopened.
	l.f.Close()
	if _, err := appendSync(l, []byte("doomed")); err == nil {
		t.Fatal("append to sabotaged file succeeded")
	}
	if _, err := appendSync(l, []byte("after")); !errors.Is(err, errFailed) {
		t.Fatalf("append after failure: %v, want errFailed", err)
	}
	if err := l.WriteSnapshot([]byte("state")); !errors.Is(err, errFailed) {
		t.Fatalf("snapshot after failure: %v, want errFailed", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendSync(l, []byte("x")); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("append after close: %v", err)
	}
}
