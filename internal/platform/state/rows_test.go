package state

// A completed session's /analytics row is rendered when something first
// reads it (catchUpRows): what the catch-up allocates, and polls that
// race completions and snapshots.

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
)

// TestCatchUpRowsAllocatesOnlyChunks: bringing the rows up to the
// records — one session's at a time, then many at once, records that
// cross a chunk boundary among them — allocates nothing but the rows'
// and their ends' chunks: a new chunk, the first chunk grown, or the
// list of chunks grown. The row is rendered in place from its record
// into the completion scratch, and a record that crosses a chunk
// boundary is assembled there too; the scratch grows only for a row or
// record longer than any before it (the workers' names here grow from
// step to step), which counts as one allocation more. The collector is
// off while the test runs: a cycle's end wakes runtime goroutines that
// allocate. Skipped under the race detector.
func TestCatchUpRowsAllocatesOnlyChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are measured without the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := openRig(t, t.TempDir(), nil)
	campaign, _ := r.campaign("timeline", 4)
	c, _ := r.st.Campaign(campaign)
	completeN(r, campaign, "warm", 1)
	if err := c.catchUpRows(); err != nil { // the row scratch grows once
		t.Fatal(err)
	}
	type shape struct{ first, rest, list int }
	shapes := func() [3]shape {
		return [3]shape{
			{cap(c.rows.tail.first), len(c.rows.tail.rest), cap(c.rows.tail.rest)},
			{cap(c.rows.ends.first), len(c.rows.ends.rest), cap(c.rows.ends.rest)},
			{first: cap(c.done.row) + cap(c.done.frame)<<32}, // the scratch
		}
	}
	// doublings bounds how often a list of chunks grew by append, from
	// holding before to after: it doubles while it is short.
	doublings := func(before, after int) int {
		n := 0
		for have := before; have < after; have = max(2*have, 1) {
			n++
		}
		return n
	}
	crossed, step := 0, 0
	catchUp := func(batch int) {
		t.Helper()
		completeN(r, campaign, fmt.Sprintf("step%d", step), batch)
		step++
		for i := c.rows.count(); i < c.ids.count(); i++ {
			if start, end := c.records.size(i), c.records.size(i+1); start/chunkBytes != (end-1)/chunkBytes {
				crossed++
			}
		}
		before := shapes()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		mallocs := m.Mallocs
		err := c.catchUpRows()
		runtime.ReadMemStats(&m)
		mallocs = m.Mallocs - mallocs
		if err != nil {
			t.Fatal(err)
		}
		after, growth := shapes(), 0
		for k := range after {
			if after[k].first != before[k].first {
				growth++ // one append grows the first chunk, or a scratch buffer, once at most
			}
			growth += after[k].rest - before[k].rest + doublings(before[k].list, after[k].list)
		}
		if mallocs > uint64(growth) {
			t.Fatalf("step %d: catching up %d rows allocated %d objects, the rows' chunks grew %d times (%+v to %+v)", step, batch, mallocs, growth, before, after)
		}
	}
	// One at a time until both first chunks are full (1,024 ends), so
	// that a batch below grows only by whole chunks.
	for c.rows.ends.len() < chunkBytes/4 {
		catchUp(1)
	}
	for _, batch := range []int{2, 37, 1, 150, 5} {
		catchUp(batch)
	}
	if crossed == 0 {
		t.Fatal("no record crossed a chunk boundary: the test proves nothing")
	}
	body, err := r.analytics(campaign, 20, 80)
	if err != nil || !bytes.Contains(body, []byte(`"worker":"step201-0"`)) {
		t.Fatalf("/analytics after the catch-ups (%v) does not list the last session", err)
	}
}

// racePrepare joins n sessions to campaign on r and answers every test
// of each but its last, and returns each session's completing answer.
// The same calls on two fresh states mint the same sessions.
func racePrepare(r *rig, campaign string, n int) []*Event {
	r.tb.Helper()
	last := make([]*Event, n)
	for i := range last {
		sid, tests := r.join(campaign, fmt.Sprintf("race-%d", i))
		for k, tt := range tests {
			r.mustApply(&Event{Op: OpEvents, ID: sid, Batch: &EventBatch{
				VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 4 + i%7,
				WatchedFraction: 0.9, OutOfFocusMs: float64(i%3) * 20_000,
			}})
			ev := &Event{Op: OpResponse, ID: sid, Body: &ResponseBody{
				TestID: tt.TestID, SubmittedMs: 1_000 + float64((i*97+k*31)%1500), KeptOriginal: i%5 != 0,
			}}
			if k == len(tests)-1 {
				last[i] = ev
				break
			}
			r.mustApply(ev)
		}
	}
	return last
}

// TestPollsRaceCompletionsAndSnapshots: /analytics polls run while
// sessions complete and snapshots spill, so a poll may find rows
// lagging the records and catch them up, or find them caught up by
// another poll or a snapshot. Every session joined and answered all its
// tests but the last beforehand, so a body depends only on how many
// sessions had completed when it was rendered: each must be, byte for
// byte, the body a second state renders, serially, once it has completed
// as many sessions in the same order. Afterwards each completed session
// has exactly one row, the one its record renders, and rowDigest is the
// sum of the rows' checksums, so no row was rendered twice or lost.
func TestPollsRaceCompletionsAndSnapshots(t *testing.T) {
	const sessions, completers, pollers = 120, 3, 2
	r := openRig(t, t.TempDir(), nil)
	campaign, _ := r.campaign("timeline", 3)
	last := racePrepare(r, campaign, sessions)

	seen := map[int][]byte{} // a body by the completed sessions it lists
	var mu sync.Mutex
	done := make(chan struct{})
	var readers, writers sync.WaitGroup
	for range pollers {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				body, err := r.analytics(campaign, 20, 80)
				if err != nil {
					t.Error(err)
					return
				}
				k := bytes.Count(body, []byte(`"completed":true`))
				mu.Lock()
				if first, ok := seen[k]; !ok {
					seen[k] = body
				} else if !bytes.Equal(body, first) {
					t.Errorf("two polls of %d completed sessions differ:\n%s\n%s", k, first, body)
				}
				mu.Unlock()
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := r.snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := range completers {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := w; i < sessions; i += completers {
				if _, err := r.apply(last[i]); err != nil {
					t.Errorf("complete %s: %v", last[i].ID, err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}

	c, _ := r.st.Campaign(campaign)
	order := c.Completed()
	serial := openRig(t, t.TempDir(), nil)
	if id, _ := serial.campaign("timeline", 3); id != campaign {
		t.Fatalf("the serial state minted campaign %s, want %s", id, campaign)
	}
	byID := map[string]*Event{}
	for i, ev := range racePrepare(serial, campaign, sessions) {
		if ev.ID != last[i].ID {
			t.Fatalf("the serial state minted session %s, want %s", ev.ID, last[i].ID)
		}
		byID[ev.ID] = ev
	}
	for k := 0; ; k++ {
		if body, ok := seen[k]; ok {
			want, err := serial.analytics(campaign, 20, 80)
			if err != nil || !bytes.Equal(body, want) {
				t.Fatalf("a poll of %d completed sessions (%v):\n%s\nthe serial render:\n%s", k, err, body, want)
			}
		}
		if k == len(order) {
			break
		}
		serial.mustApply(byID[order[k]])
	}
	t.Logf("%d polls of distinct completed counts, of %d sessions", len(seen), sessions)

	if _, err := r.analytics(campaign, 20, 80); err != nil {
		t.Fatal(err)
	}
	if n := c.rows.count(); n != c.ids.count() {
		t.Fatalf("%d rows for %d completed sessions", n, c.ids.count())
	}
	var digest uint64
	for i := range c.ids.count() {
		piece, err := c.rows.piece(i, c.spilled)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := c.record(i)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := appendRowOf(nil, c.completedID(i), rec)
		if !bytes.Equal(piece, append(want, ',')) {
			t.Fatalf("row %d is\n%s\nits record renders\n%s", i, piece, want)
		}
		digest += crc64.Checksum(piece[:len(piece)-1], etagTable)
	}
	if digest != c.rowDigest {
		t.Fatalf("rowDigest %x, the rows' checksums sum to %x", c.rowDigest, digest)
	}
}
