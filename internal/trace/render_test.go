package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedRecords is a deterministic trace set exercising every rendered
// shape: a durable ingest trace with all stages, a fast read with most
// stages elided, and a slow outlier.
func fixedRecords() []Record {
	start := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return []Record{
		{
			ID: "4bf92f3577b34da6a3ce929d0e0e4736", Route: "events",
			Campaign: "c1", Session: "s9", Status: 202,
			Start: start, Duration: 8456*time.Microsecond + 900*time.Nanosecond,
			Sampled: true,
			Stages: Stages{
				StageReceive:   12 * time.Microsecond,
				StageAdmission: 3 * time.Microsecond,
				StageDecode:    61 * time.Microsecond,
				StageLockWait:  220 * time.Microsecond,
				StageAppend:    95 * time.Microsecond,
				StageApply:     18 * time.Microsecond,
				StageFlush:     1302 * time.Microsecond,
				StageFsync:     6512 * time.Microsecond,
				StageAck:       188 * time.Microsecond,
				StageWrite:     45 * time.Microsecond,
			},
		},
		{
			ID: "00f067aa0ba902b700f067aa0ba902b7", Route: "results",
			Campaign: "c1", Status: 200,
			Start: start.Add(time.Second), Duration: 104 * time.Microsecond,
			Sampled: true,
			Stages: Stages{
				StageAdmission: 2 * time.Microsecond,
				StageWrite:     102 * time.Microsecond,
			},
		},
		{
			ID: "deadbeefdeadbeefdeadbeefdeadbeef", Route: "response",
			Campaign: "c2", Session: "s41", Status: 202,
			Start: start.Add(2 * time.Second), Duration: 52 * time.Millisecond,
			Sampled: false, Slow: true,
			Stages: Stages{
				StageReceive:   9 * time.Microsecond,
				StageAdmission: 2 * time.Microsecond,
				StageDecode:    48 * time.Microsecond,
				StageLockWait:  41100 * time.Microsecond,
				StageAppend:    77 * time.Microsecond,
				StageApply:     30 * time.Microsecond,
				StageFlush:     400 * time.Microsecond,
				StageFsync:     10100 * time.Microsecond,
				StageAck:       200 * time.Microsecond,
				StageWrite:     44 * time.Microsecond,
			},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestRenderTextGolden pins the human-readable /debug/traces format.
func TestRenderTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderText(&buf, fixedRecords()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "traces.golden", buf.Bytes())
}

// TestRenderJSONRoundTrip proves the JSON shape decodes back to the
// exact records — the contract /debug/traces consumers rely on.
func TestRenderJSONRoundTrip(t *testing.T) {
	recs := fixedRecords()
	var buf bytes.Buffer
	if err := RenderJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("decoding rendered report: %v", err)
	}
	if rep.Count != len(recs) {
		t.Fatalf("count %d, want %d", rep.Count, len(recs))
	}
	for i, rec := range rep.Traces {
		want := recs[i]
		if !rec.Start.Equal(want.Start) {
			t.Fatalf("trace %d start %s, want %s", i, rec.Start, want.Start)
		}
		rec.Start = want.Start // Equal but different wall-clock repr
		if rec != want {
			t.Fatalf("trace %d round-tripped to %+v, want %+v", i, rec, want)
		}
	}
}

func TestStageSum(t *testing.T) {
	rec := fixedRecords()[0]
	var want time.Duration
	for _, d := range rec.Stages {
		want += d
	}
	if got := rec.StageSum(); got != want {
		t.Fatalf("StageSum = %s, want %s", got, want)
	}
}
