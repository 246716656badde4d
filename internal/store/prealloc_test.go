package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// appendBurst appends record i: serially, or in bursts of five
// AppendAsync calls whose last one waits, so one leader's window covers
// the burst.
func appendBurst(l *Log, burst bool, i int, payload string) error {
	seq, err := l.AppendAsync([]byte(payload))
	if err == nil && (!burst || i%5 == 4) {
		err = l.WaitDurable(seq)
	}
	return err
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// dataEnd returns where the segment at path's last valid frame ends,
// and whether bytes follow it.
func dataEnd(t *testing.T, path string) (end int64, tail bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, end, tail, err = scanSegment(f, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return end, tail
}

// checkTrimmed fails unless the segment at path ends exactly where its
// last valid frame does.
func checkTrimmed(t *testing.T, path string) {
	t.Helper()
	end, tail := dataEnd(t, path)
	if size := fileSize(t, path); tail || size != end {
		t.Fatalf("%s: %d bytes on disk, data ends at %d (tail=%v)",
			filepath.Base(path), size, end, tail)
	}
}

// TestPreallocCrashZeroTailReplaysClean: a log that dies without Close
// leaves its active segment preallocated, zeros past the last frame.
// Open reads the zeros as the end of the data, replays every record,
// and the next append lands in place where the zeros began.
func TestPreallocCrashZeroTailReplaysClean(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, "one", "two", "three")
	path := lastSegment(t, dir)
	if size := fileSize(t, path); runtime.GOOS == "linux" && size < 8<<20 {
		t.Fatalf("active segment is %d bytes, want it preallocated to 8 MiB", size)
	}
	l.crash()
	end, _ := dataEnd(t, path)
	if fileSize(t, path) == end {
		// No preallocation on this system: leave the tail it would have.
		if err := os.Truncate(path, end+4096); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw[end:], make([]byte, len(raw)-int(end))) {
		t.Fatal("the bytes past the last frame are not zeros")
	}

	l, err = Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatalf("open over a zero tail: %v", err)
	}
	if _, payloads := replayAll(t, l); fmt.Sprint(payloads) != "[one two three]" {
		t.Fatalf("replayed %v, want [one two three]", payloads)
	}
	if seq, err := appendSync(l, []byte("four")); err != nil || seq != 4 {
		t.Fatalf("append after a zero tail: seq=%d err=%v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	checkTrimmed(t, path)
	want := raw[:end]
	want = AppendRecord(want, []byte("four"))
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("segment after reopen + append is not the old data plus one frame:\n got  %x\n want %x", got, want)
	}
}

// TestPreallocZeroTailInOlderSegmentFailsOpen: rotation trims a segment
// before the next one exists, so zeros past the data of any segment but
// the newest are corruption, not a crash's leftovers.
func TestPreallocZeroTailInOlderSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SegmentBytes: 64}
	l, err := Open(dir, opts)
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
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d (err=%v)", len(segs), err)
	}
	zeroTail := func(path string) {
		t.Helper()
		if err := os.Truncate(path, fileSize(t, path)+512); err != nil {
			t.Fatal(err)
		}
	}

	zeroTail(segs[len(segs)-1].path) // the newest may: a crash leaves it so
	l, err = Open(dir, opts)
	if err != nil {
		t.Fatalf("zero tail on the newest segment: %v", err)
	}
	if seqs, _ := replayAll(t, l); len(seqs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(seqs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	zeroTail(segs[0].path)
	if _, err := Open(dir, opts); err == nil || !strings.Contains(err.Error(), "corrupt mid-journal") {
		t.Fatalf("open with a zero tail on an older segment: %v, want corruption", err)
	}
}

// TestPreallocRotateAndCloseTrimToTrueLength: while a log runs, every
// segment but the active one is exactly as long as its data and the
// active one is preallocated; Close trims that one too. Rotation by
// size and by snapshot, for serial Appends (windows of one) and for
// AppendAsync bursts awaited every fifth record, whose leaders rotate
// with the whole burst in their window and whose snapshots rotate with
// records still buffered. (A segment rotated by size is already past
// its preallocation; the one a snapshot rotates, short of it, is what
// the trim is for, and the second snapshot keeps it from compaction.)
func TestPreallocRotateAndCloseTrimToTrueLength(t *testing.T) {
	const segBytes = 400
	for _, group := range []bool{false, true} {
		t.Run(fmt.Sprintf("group=%v", group), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{SegmentBytes: segBytes, Fsync: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				if err := appendBurst(l, group, i, fmt.Sprintf("record-%02d-padding", i)); err != nil {
					t.Fatal(err)
				}
				if i == 20 || i == 45 {
					if err := l.WriteSnapshot([]byte("state")); err != nil {
						t.Fatal(err)
					}
				}
			}
			segs, err := listFiles(dir, segPrefix, segSuffix)
			if err != nil || len(segs) < 3 {
				t.Fatalf("need >= 3 segments, got %d (err=%v)", len(segs), err)
			}
			for _, sf := range segs[:len(segs)-1] {
				checkTrimmed(t, sf.path)
			}
			active := segs[len(segs)-1].path
			if size := fileSize(t, active); runtime.GOOS == "linux" && size < segBytes {
				t.Fatalf("active segment is %d bytes, want it preallocated to %d", size, segBytes)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			for _, sf := range segs {
				checkTrimmed(t, sf.path)
			}
		})
	}
}

// TestAppendRejectsEmptyPayload: {len 0, crc 0} is what the end of a
// segment's data reads as, so an empty payload is refused — without
// latching the log or spending a sequence number.
func TestAppendRejectsEmptyPayload(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{nil, {}} {
		if _, err := appendSync(l, p); !errors.Is(err, errEmpty) {
			t.Fatalf("appendSync(%#v): %v, want errEmpty", p, err)
		}
		if _, err := l.AppendAsync(p); !errors.Is(err, errEmpty) {
			t.Fatalf("AppendAsync(%#v): %v, want errEmpty", p, err)
		}
	}
	if seq, err := appendSync(l, []byte("x")); err != nil || seq != 1 {
		t.Fatalf("append after refusals: seq=%d err=%v, want seq 1", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// syncedBytes sums the framed bytes of the windows reported durable.
type syncedBytes struct{ n atomic.Int64 }

func (s *syncedBytes) WindowDurable(w Window) { s.n.Add(w.Bytes) }

// TestRecoverKillBetweenWriteAndSync kills the log after a window was
// written and before its sync: appenders race the kill, the disk keeps
// every synced byte and any prefix of the unsynced window (the rest
// reads as the preallocated zeros), and the reopened journal must
// replay every acked record, in a gap-free prefix of what was attempted.
func TestRecoverKillBetweenWriteAndSync(t *testing.T) {
	defer func() { syncData = testSync }()
	errKilled := errors.New("killed between write and sync")
	for trial := 0; trial < 8; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(11_000 + trial)))
			dir := t.TempDir()
			synced := &syncedBytes{}
			l, err := Open(dir, Options{Fsync: true, Observer: synced})
			if err != nil {
				t.Fatal(err)
			}
			killAt := int32(3 + rng.Intn(30))
			killed := make(chan struct{})
			var calls atomic.Int32
			syncData = func(f *os.File) error {
				switch n := calls.Add(1); {
				case n == killAt:
					close(killed)
					return errKilled
				case n > killAt:
					return errKilled
				}
				return testSync(f)
			}

			var (
				mu        sync.Mutex
				attempted = map[string]bool{}
				acked     = map[uint64]string{}
				wg        sync.WaitGroup
			)
			for a := 0; a < 3; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					arng := rand.New(rand.NewSource(int64(trial*10 + a)))
					for i := 0; ; i++ {
						p := fmt.Sprintf("a%d-%d-%s", a, i, strings.Repeat("p", arng.Intn(50)))
						mu.Lock()
						attempted[p] = true
						mu.Unlock()
						seq, err := appendSync(l, []byte(p))
						if err != nil {
							return
						}
						mu.Lock()
						acked[seq] = p
						mu.Unlock()
					}
				}(a)
			}
			<-killed
			l.crash()
			wg.Wait()
			syncData = testSync

			path := lastSegment(t, dir)
			end, _ := dataEnd(t, path)
			durable := synced.n.Load()
			if end < durable {
				t.Fatalf("data ends at byte %d, before the %d bytes synced", end, durable)
			}
			keep := durable + rng.Int63n(end-durable+1)
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(make([]byte, end-keep), keep); err != nil {
				t.Fatal(err)
			}
			f.Close()

			rl, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			var replayed []string
			err = rl.Replay(func(seq uint64, payload []byte) error {
				p := string(payload)
				if want := uint64(len(replayed) + 1); seq != want {
					return fmt.Errorf("replay gap: seq %d, want %d", seq, want)
				}
				if !attempted[p] {
					return fmt.Errorf("seq %d replayed %q, which no appender wrote", seq, p)
				}
				replayed = append(replayed, p)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := rl.Close(); err != nil {
				t.Fatal(err)
			}
			if len(acked) == 0 {
				t.Fatal("nothing was acked before the kill")
			}
			for seq, p := range acked {
				if seq > uint64(len(replayed)) || replayed[seq-1] != p {
					t.Fatalf("acked seq %d (%q) did not replay (replayed through %d)", seq, p, len(replayed))
				}
			}
		})
	}
}

// parentPayload is record i of testdata/parent_wal: 24 records appended
// with Fsync and closed cleanly by the journal as it was before
// segments were preallocated, which opened its segments O_APPEND.
func parentPayload(i int) string {
	return fmt.Sprintf(`{"op":"record","seq":%d,"pad":"%s"}`, i, strings.Repeat("x", i%17))
}

// TestPreallocParentWrittenSegment: a segment written by the O_APPEND
// journal opens, replays byte-identically, closes unchanged, and then
// takes appends in place after its last frame.
func TestPreallocParentWrittenSegment(t *testing.T) {
	const name = "wal-0000000000000001.seg"
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent_wal", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 1; i <= 24; i++ {
		want = append(want, parentPayload(i))
	}
	replayWant := func(want []string) {
		t.Helper()
		l, err := Open(dir, Options{Fsync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if _, got := replayAll(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("replayed %q,\nwant %q", got, want)
		}
	}

	replayWant(want)
	if got, _ := os.ReadFile(path); !bytes.Equal(got, fixture) {
		t.Fatal("open + replay + close changed the parent-written segment")
	}

	l, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	replayAll(t, l)
	expect := fixture
	for i := 25; i <= 27; i++ {
		p := parentPayload(i)
		if seq, err := appendSync(l, []byte(p)); err != nil || seq != uint64(i) {
			t.Fatalf("append %d: seq=%d err=%v", i, seq, err)
		}
		want = append(want, p)
		expect = AppendRecord(expect, []byte(p))
	}
	// In place: the old bytes stand and the new frames follow them inside
	// the preallocated tail.
	if got, _ := os.ReadFile(path); !bytes.HasPrefix(got, expect) {
		t.Fatal("appends did not land in place after the parent-written frames")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, expect) {
		t.Fatal("closed segment is not the parent's bytes plus the new frames")
	}
	replayWant(want)
}

// TestAppendAllocsPerRun pins the append path at no heap object per
// record in every durability mode: the frame header is written from the
// Log, not from a local that escapes through bufio.Writer.Write. The
// "-group" modes also price a window of m.writers records: all buffered,
// then one wait.
func TestAppendAllocsPerRun(t *testing.T) {
	payload := []byte(`{"op":"events","session":"s-000123","batch":"..."}`)
	for _, m := range observerModes {
		t.Run(m.name, func(t *testing.T) {
			l, err := Open(t.TempDir(), m.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			appends := map[string]func([]byte) (uint64, error){
				"Append":      func(p []byte) (uint64, error) { return appendSync(l, p) },
				"AppendAsync": l.AppendAsync,
			}
			if m.writers > 1 {
				appends["window"] = func(p []byte) (seq uint64, err error) {
					for i := 0; i < m.writers && err == nil; i++ {
						seq, err = l.AppendAsync(p)
					}
					if err == nil {
						err = l.WaitDurable(seq)
					}
					return seq, err
				}
			}
			for name, append := range appends {
				allocs := testing.AllocsPerRun(200, func() {
					if _, err := append(payload); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s: %.2f heap objects per call, want 0", name, allocs)
				}
			}
		})
	}
}
