package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// drive runs one fake request through the tracer with the given stage
// sleep, returning the trace ID.
func drive(t *Tracer, route string, work time.Duration) string {
	tr := t.Start(route, nil)
	tr.Mark(StageAdmission)
	tr.Mark(StageReceive)
	if work > 0 {
		time.Sleep(work)
	}
	tr.Mark(StageDecode)
	id := tr.ID()
	t.Finish(tr, 202)
	return id
}

func TestSamplerDeterminism(t *testing.T) {
	decisions := func(seed uint64, rate float64, n int) []bool {
		tracer := New(Config{SampleRate: rate, Seed: seed, Buffer: 4})
		out := make([]bool, n)
		for i := range out {
			tr := tracer.Start("events", nil)
			out[i] = tr.sampled
			tracer.Finish(tr, 200)
		}
		return out
	}
	a := decisions(7, 0.25, 512)
	b := decisions(7, 0.25, 512)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded tracers", i)
		}
	}
	var kept int
	for _, d := range a {
		if d {
			kept++
		}
	}
	if kept == 0 || kept == len(a) {
		t.Fatalf("rate 0.25 sampled %d/%d requests", kept, len(a))
	}
	c := decisions(8, 0.25, 512)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical capture schedules")
	}
}

func TestSampleRateBounds(t *testing.T) {
	all := New(Config{SampleRate: 1, Seed: 3})
	for i := 0; i < 64; i++ {
		tr := all.Start("events", nil)
		if !tr.sampled {
			t.Fatalf("rate 1 skipped request %d", i)
		}
		all.Finish(tr, 200)
	}
	// Slow-only configuration: nothing sampled, but slow traces are
	// always retained.
	slowOnly := New(Config{Slow: time.Nanosecond, Seed: 3})
	for i := 0; i < 16; i++ {
		tr := slowOnly.Start("events", nil)
		if tr.sampled {
			t.Fatalf("rate 0 sampled request %d", i)
		}
		slowOnly.Finish(tr, 200)
	}
	if got := len(slowOnly.Snapshot()); got != 16 {
		t.Fatalf("slow-only tracer retained %d traces, want 16", got)
	}
}

func TestSlowRingSurvivesSampledFlood(t *testing.T) {
	tracer := New(Config{SampleRate: 1, Slow: 5 * time.Millisecond, Buffer: 16, Seed: 1})
	slowID := drive(tracer, "events", 10*time.Millisecond)
	// Flood with fast sampled traces: far past the buffer capacity.
	for i := 0; i < 500; i++ {
		drive(tracer, "events", 0)
	}
	rec, ok := tracer.Get(slowID)
	if !ok {
		t.Fatalf("slow trace %s evicted by fast sampled flood", slowID)
	}
	if !rec.Slow {
		t.Fatalf("retained trace not marked slow: %+v", rec)
	}
	if rec.Duration < 5*time.Millisecond {
		t.Fatalf("slow trace duration %s under the threshold", rec.Duration)
	}
}

func TestStagesTileDuration(t *testing.T) {
	tracer := New(Config{SampleRate: 1, Seed: 9})
	id := drive(tracer, "events", 2*time.Millisecond)
	rec, ok := tracer.Get(id)
	if !ok {
		t.Fatalf("sampled trace not retained")
	}
	if rec.Duration <= 0 {
		t.Fatalf("non-positive duration %s", rec.Duration)
	}
	sum := rec.StageSum()
	if sum < rec.Duration*99/100 || sum > rec.Duration*101/100 {
		t.Fatalf("stage sum %s does not tile total %s", sum, rec.Duration)
	}
	if rec.Stages[StageDecode] < 2*time.Millisecond {
		t.Fatalf("decode stage %s missed the 2ms sleep", rec.Stages[StageDecode])
	}
}

func TestMarkDurableSplit(t *testing.T) {
	// Window fsync fully inside the wait: all three stages populated
	// and they partition the wait exactly. The wait spans the whole
	// trace (mark offset 0), which began ~10ms ago; the window's fsync
	// ran from +4ms to +8ms.
	tr := &Trace{start: time.Now().Add(-10 * time.Millisecond)}
	fsyncStart := tr.start.Add(4 * time.Millisecond)
	fsyncEnd := tr.start.Add(8 * time.Millisecond)
	tr.MarkDurable(fsyncStart, fsyncEnd)
	st := tr.Stages()
	if st[StageFlush] < 3*time.Millisecond {
		t.Fatalf("flush %s, want ~4ms", st[StageFlush])
	}
	if st[StageFsync] < 3*time.Millisecond {
		t.Fatalf("fsync %s, want ~4ms", st[StageFsync])
	}
	if st[StageAck] < time.Millisecond {
		t.Fatalf("ack %s, want ~2ms+", st[StageAck])
	}
	wait := st[StageFlush] + st[StageFsync] + st[StageAck]
	if wait < 10*time.Millisecond {
		t.Fatalf("durability wait %s does not cover the 10ms span", wait)
	}

	// No window timing: everything lands on ack.
	tr2 := &Trace{start: time.Now().Add(-3 * time.Millisecond)}
	tr2.MarkDurable(time.Time{}, time.Time{})
	st2 := tr2.Stages()
	if st2[StageFlush] != 0 || st2[StageFsync] != 0 {
		t.Fatalf("zero-window wait leaked into flush/fsync: %+v", st2)
	}
	if st2[StageAck] < 3*time.Millisecond {
		t.Fatalf("ack %s, want >=3ms", st2[StageAck])
	}

	// Window already durable before the wait began (another request led
	// the window that covered the record): all ack.
	tr3 := &Trace{start: time.Now()}
	tr3.MarkDurable(time.Now().Add(-2*time.Second), time.Now().Add(-time.Second))
	if st3 := tr3.Stages(); st3[StageFlush] != 0 || st3[StageFsync] != 0 {
		t.Fatalf("pre-durable window leaked into flush/fsync: %+v", st3)
	}
}

// TestConcurrentCaptureAndRead is the -race hammer: 64 goroutines
// finishing traces while readers snapshot and look up continuously.
func TestConcurrentCaptureAndRead(t *testing.T) {
	tracer := New(Config{SampleRate: 1, Slow: time.Millisecond, Buffer: 64, Seed: 11})
	const writers = 64
	const perWriter = 200
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := tracer.Snapshot()
				for _, rec := range recs {
					if rec.ID == "" {
						t.Error("snapshot returned a zero record")
						return
					}
					if _, ok := tracer.Get(rec.ID); !ok {
						// The record may have rotated out between the
						// snapshot and the lookup; absence is fine, a
						// torn read is not (checked above).
						continue
					}
				}
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				tr := tracer.Start("events", nil)
				tr.SetSession(fmt.Sprintf("s%d", w))
				tr.Mark(StageAdmission)
				tr.Mark(StageDecode)
				tr.MarkDurable(time.Time{}, time.Time{})
				tracer.Finish(tr, 202)
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()
	recs := tracer.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no traces retained after hammer")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.Before(recs[i-1].Start) {
			t.Fatalf("snapshot not ordered by start time at %d", i)
		}
	}
}

func TestParentAdoption(t *testing.T) {
	tracer := New(Config{SampleRate: 0, Slow: 0, Seed: 5})
	// Tracing disabled entirely -> nil tracer path.
	var nilTracer *Tracer
	if tr := nilTracer.Start("events", nil); tr != nil {
		t.Fatal("nil tracer issued a trace")
	}
	p, err := ParseTraceParent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if err != nil {
		t.Fatalf("parse traceparent: %v", err)
	}
	if !p.Sampled {
		t.Fatal("flags 01 must set sampled")
	}
	tr := tracer.Start("events", &p)
	if tr.ID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace did not adopt parent ID: %s", tr.ID())
	}
	if !tr.sampled {
		t.Fatal("sampled parent must force retention")
	}
	tracer.Finish(tr, 200)
	if _, ok := tracer.Get("4bf92f3577b34da6a3ce929d0e0e4736"); !ok {
		t.Fatal("parent-forced trace not retained")
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"00",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0g",
		strings.Repeat("a", 31),
		strings.Repeat("0", 32),
	}
	for _, s := range bad {
		if _, err := ParseHeader(s); err == nil {
			t.Errorf("ParseHeader(%q) accepted malformed input", s)
		}
	}
	// A version-01 parent with a trailing extension field parses.
	if _, err := ParseTraceParent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-ext"); err != nil {
		t.Fatalf("version 01 with extension rejected: %v", err)
	}
	// Bare trace ID form.
	p, err := ParseHeader("4bf92f3577b34da6a3ce929d0e0e4736")
	if err != nil {
		t.Fatalf("bare trace id rejected: %v", err)
	}
	if p.Sampled {
		t.Fatal("bare trace id must not set sampled")
	}
}
