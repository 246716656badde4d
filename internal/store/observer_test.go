package store

import (
	"fmt"
	"sync"
	"testing"
)

// recordingObserver keeps every window and checks, as each arrives,
// the parts of the contract a single call can break: no gap or reorder
// against the previous window, no empty window, timestamps in order,
// and — once log is set — no record of the window acked yet: the
// durable watermark, which the reporting goroutine holds commitMu over,
// has not reached the window. The store serializes calls; the mutex
// only orders them against the test's readers.
type recordingObserver struct {
	mu      sync.Mutex
	log     *Log // set right after Open, before any append
	windows []Window
	next    uint64 // First the next window must carry
	bad     []string
}

// openObserved opens a log in dir that reports to a new recordingObserver.
func openObserved(t *testing.T, dir string, opts Options) (*Log, *recordingObserver) {
	t.Helper()
	obs := &recordingObserver{next: 1}
	opts.Observer = obs
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	obs.log = l
	return l, obs
}

func (o *recordingObserver) WindowDurable(w Window) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if w.First != o.next {
		o.bad = append(o.bad, fmt.Sprintf("window starts at %d, want %d (gap or reorder)", w.First, o.next))
	}
	if w.Last < w.First {
		o.bad = append(o.bad, fmt.Sprintf("empty window [%d, %d]", w.First, w.Last))
	}
	if o.log != nil && o.log.durable >= w.First {
		o.bad = append(o.bad, fmt.Sprintf("window [%d, %d] reported after the watermark reached %d (acked before reported)", w.First, w.Last, o.log.durable))
	}
	if w.FlushStart.IsZero() || w.FlushStart.After(w.FsyncStart) || w.FsyncStart.After(w.FsyncEnd) {
		o.bad = append(o.bad, fmt.Sprintf("window [%d, %d] timestamps out of order: flush=%s fsync=[%s, %s]",
			w.First, w.Last, w.FlushStart, w.FsyncStart, w.FsyncEnd))
	}
	o.windows = append(o.windows, w)
	o.next = w.Last + 1
}

// observedThrough reports whether every sequence ≤ seq has been
// reported.
func (o *recordingObserver) observedThrough(seq uint64) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.next > seq
}

// totals sums the recorded windows and fails the test on any contract
// violation noted on arrival.
func (o *recordingObserver) totals(t *testing.T) (windows, records, fsyncs int, bytes int64) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, msg := range o.bad {
		t.Error(msg)
	}
	for _, w := range o.windows {
		windows++
		records += w.Records()
		bytes += w.Bytes
		if w.FsyncEnd.After(w.FsyncStart) {
			fsyncs++
		}
	}
	return
}

// appendConcurrently drives writers×per appends through l, each
// checking on return from WaitDurable that its window has already been
// reported: the observed-before-ack half of the contract, which is
// what lets an observer's timings cover every acked append.
func appendConcurrently(t *testing.T, l *Log, obs *recordingObserver, writers, per int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.AppendAsync([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := l.WaitDurable(seq); err != nil {
					t.Errorf("wait durable %d: %v", seq, err)
					return
				}
				if !obs.observedThrough(seq) {
					t.Errorf("seq %d acked before its window was reported", seq)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// observerModes crosses the one durability choice (Fsync or not) with
// the two window shapes the leader rule produces: one writer waiting
// out each record ("wal", "fsync-record") gets windows of one, and
// eight concurrent writers ("-group") get windows that group records.
var observerModes = []struct {
	name    string
	opts    Options
	writers int
}{
	{"wal", Options{}, 1},
	{"fsync-record", Options{Fsync: true}, 1},
	{"wal-group", Options{}, 8},
	{"fsync-group", Options{Fsync: true}, 8},
}

// TestObserverContract runs the appenders of every mode and checks the
// whole contract: reported before acked, in order with no gaps and no
// empty window, records and bytes summing to what was appended, windows
// of one for a single writer, and exactly one fsync per window with
// Fsync (none without: an empty bracket).
func TestObserverContract(t *testing.T) {
	for _, m := range observerModes {
		t.Run(m.name, func(t *testing.T) {
			dir := t.TempDir()
			l, obs := openObserved(t, dir, m.opts)
			writers, per := m.writers, 200/m.writers
			appendConcurrently(t, l, obs, writers, per)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			windows, records, fsyncs, bytes := obs.totals(t)
			if records != writers*per {
				t.Fatalf("windows cover %d records, want %d", records, writers*per)
			}
			if disk := int64(len(journalBytes(t, dir))); bytes != disk {
				t.Fatalf("windows report %d framed bytes, %d on disk", bytes, disk)
			}
			if writers == 1 && windows != records {
				t.Fatalf("one writer: %d windows for %d records, want windows of one", windows, records)
			}
			want := 0
			if m.opts.Fsync {
				want = windows
			}
			if fsyncs != want {
				t.Fatalf("%d windows carry %d fsync brackets, want %d", windows, fsyncs, want)
			}
		})
	}
}

// TestObserverSerialAppends: three serial appends with Fsync are three
// windows of one — each appendSync waits out its window before the next
// buffers — each with its own fsync and its own frame's bytes.
func TestObserverSerialAppends(t *testing.T) {
	l, obs := openObserved(t, t.TempDir(), Options{Fsync: true})
	defer l.Close()
	payload := []byte("hello")
	for i := 0; i < 3; i++ {
		if _, err := appendSync(l, payload); err != nil {
			t.Fatal(err)
		}
	}
	windows, records, fsyncs, bytes := obs.totals(t)
	if windows != 3 || records != 3 || fsyncs != 3 {
		t.Fatalf("%d windows covering %d records with %d fsyncs, want 3/3/3", windows, records, fsyncs)
	}
	if want := int64(3 * (recordHeader + len(payload))); bytes != want {
		t.Fatalf("bytes = %d, want %d", bytes, want)
	}
}

// TestObserverGroupCommitNoEmptyWindow pins the covered-record rule: a
// waiter whose record an earlier window covered costs no window and no
// sync. Concurrent writers produce such waiters by chance (followers
// that queued behind the leader whose window took their record); the
// stale waits afterwards, one per record already durable, produce them
// for sure. recordingObserver rejects an empty window on arrival, and
// every window must carry exactly one fsync.
func TestObserverGroupCommitNoEmptyWindow(t *testing.T) {
	l, obs := openObserved(t, t.TempDir(), Options{Fsync: true})
	const writers, per = 8, 100
	appendConcurrently(t, l, obs, writers, per)
	before, _, _, _ := obs.totals(t)
	for seq := uint64(1); seq <= l.Seq(); seq++ {
		if err := l.WaitDurable(seq); err != nil { // durable: nothing to flush
			t.Fatal(err)
		}
	}
	if _, err := appendSync(l, []byte("after the stale waits")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	windows, records, fsyncs, _ := obs.totals(t)
	if records != writers*per+1 {
		t.Fatalf("windows cover %d records, want %d", records, writers*per+1)
	}
	if windows != before+1 {
		t.Fatalf("stale waits + one append produced %d windows, want 1", windows-before)
	}
	if fsyncs != windows {
		t.Fatalf("%d windows with %d fsyncs, want one fsync per window", windows, fsyncs)
	}
}

// TestObserverRotationAndSnapshot: windows stay contiguous across
// segment rotations and a snapshot, both for serial Appends (windows of
// one) and for AppendAsync bursts of five, each one window whose leader
// rotates the segment it filled; the snapshot lands mid-burst and
// rotates with records still waiting in the buffer for that window.
func TestObserverRotationAndSnapshot(t *testing.T) {
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			dir := t.TempDir()
			l, obs := openObserved(t, dir, Options{SegmentBytes: 64})
			const n = 40
			for i := 0; i < n; i++ {
				if err := appendBurst(l, group, i, fmt.Sprintf("record-%02d", i)); err != nil {
					t.Fatal(err)
				}
				if i == n/2 {
					if err := l.WriteSnapshot([]byte("state")); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if segs, _ := listFiles(dir, segPrefix, segSuffix); len(segs) < 2 {
				t.Fatalf("only %d segments: the run never rotated", len(segs))
			}
			windows, records, _, _ := obs.totals(t)
			if records != n {
				t.Fatalf("windows cover %d records, want %d", records, n)
			}
			want := n
			if group {
				want = n / 5
			}
			if windows != want {
				t.Fatalf("%d windows for %d records, want %d", windows, n, want)
			}
		})
	}
}

// TestObserverCloseDrain: records appended without waiting are still
// reported (exactly once, in order) by the time Close returns. No
// waiter leads a window for them, so they form Close's tail window,
// which Close reports through the same call as every other window: one
// window whose record count is the successful appends and whose bytes
// are what is on disk, and a reopen replays the payloads in append
// order.
func TestObserverCloseDrain(t *testing.T) {
	dir := t.TempDir()
	l, obs := openObserved(t, dir, Options{})
	var want []string
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("rec-%d", len(want))
			want = append(want, p)
			if _, err := l.AppendAsync([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(55)
	seq := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(seq); err != nil {
		t.Fatalf("tail not acked by Close: %v", err)
	}
	windows, records, _, bytes := obs.totals(t)
	if records != len(want) {
		t.Fatalf("windows cover %d records through close, want %d", records, len(want))
	}
	if windows != 1 {
		t.Fatalf("appends nobody waited for formed %d windows, want Close's tail alone", windows)
	}
	if disk := int64(len(journalBytes(t, dir))); bytes != disk {
		t.Fatalf("windows report %d framed bytes, %d on disk", bytes, disk)
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, got := replayAll(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}
