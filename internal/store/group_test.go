package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

// crash abandons the log the way a dying process would: the OS file is
// closed first, without flushing the user-space write buffer, so every
// later write fails — including those of the committer's last drain,
// which runs against the dead file wherever it was in a window — and
// then every waiter is released. Bytes already flushed to the OS
// survive (the "OS" outlives the fake process); bytes still in the
// bufio writer are lost. An in-flight window sync finishes first, as
// rotate lets it: datasync reads the raw descriptor.
func (l *Log) crash() {
	l.mu.Lock()
	if l.f != nil {
		l.syncWG.Wait()
		l.f.Close()
	}
	l.mu.Unlock()
	l.stop.Do(func() { close(l.stopc) })
	<-l.done
	l.mu.Lock()
	l.f, l.w = nil, nil
	l.mu.Unlock()
	l.ackMu.Lock()
	l.ackClosed = true
	l.ackCond.Broadcast()
	l.ackMu.Unlock()
}

// journalBytes concatenates every segment's on-disk bytes in sequence
// order: the byte-identity domain for TestGroupCommitSerialEquivalence.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, sf := range segs {
		b, err := os.ReadFile(sf.path)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// tearTail writes a strict prefix of a frame at the end of the newest
// segment's data, simulating the torn write a crash mid-append leaves
// behind. The payload has no zero byte, so the preallocated zeros past
// the cut can never complete the frame.
func tearTail(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	segs, err := listFiles(dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		return
	}
	payload := make([]byte, 1+rng.Intn(40))
	for i := range payload {
		payload[i] = byte(1 + rng.Intn(255))
	}
	frame := appendRecord(nil, payload)
	cut := 1 + rng.Intn(len(frame)-1) // always a strict prefix
	tearSegment(t, segs[len(segs)-1].path, frame[:cut])
}

// TestGroupCommitSerialEquivalence is the group-commit safety property:
// for randomized concurrent appenders — with a crash injected at an
// arbitrary flush point or a clean drain-on-close — the journal replays
// to a contiguous sequence prefix k, every acked record survives (with
// or without Fsync: crash() is a process crash, and an ack means the
// window reached the OS), and the journal is byte for byte the payloads
// appenders submitted for sequences 1..k, framed one after another in
// sequence order — a reference built without the Log under test.
func TestGroupCommitSerialEquivalence(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7_000 + trial)))
			opts := Options{
				SegmentBytes: int64(64 + rng.Intn(1024)), // force rotations
				Fsync:        trial%2 == 0,
			}
			crashing := trial%4 < 2
			dir := t.TempDir()
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}

			const appenders = 4
			var (
				mu       sync.Mutex
				payloads = map[uint64][]byte{} // every buffered seq
				acked    = map[uint64]bool{}   // WaitDurable returned nil
			)
			var wg sync.WaitGroup
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					arng := rand.New(rand.NewSource(int64(trial*100 + a)))
					for i := 0; i < 40; i++ {
						p := make([]byte, 1+arng.Intn(60))
						arng.Read(p)
						seq, err := l.AppendAsync(p)
						if err != nil {
							return // crashed or closed under us
						}
						mu.Lock()
						payloads[seq] = p
						mu.Unlock()
						if l.WaitDurable(seq) == nil {
							mu.Lock()
							acked[seq] = true
							mu.Unlock()
						}
					}
				}(a)
			}
			if crashing {
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				l.crash()
				wg.Wait()
				if rng.Intn(2) == 0 {
					tearTail(t, dir, rng)
				}
			} else {
				wg.Wait()
				if err := l.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}

			// Recover and replay: the surviving journal must be a
			// contiguous prefix of what was buffered.
			rl, err := Open(dir, Options{SegmentBytes: opts.SegmentBytes})
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			var k uint64
			err = rl.Replay(func(seq uint64, _ []byte) error {
				if seq != k+1 {
					t.Fatalf("replay gap: seq %d, want %d", seq, k+1)
				}
				k = seq
				return nil
			})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if err := rl.Close(); err != nil {
				t.Fatal(err)
			}
			for seq := range acked {
				if seq > k {
					t.Fatalf("acked seq %d lost in crash (replayed through %d)", seq, k)
				}
			}
			if !crashing {
				if want := uint64(len(payloads)); k != want {
					t.Fatalf("clean close drained %d of %d buffered records", k, want)
				}
				if len(acked) != len(payloads) {
					t.Fatalf("clean close acked %d of %d appends", len(acked), len(payloads))
				}
			}

			// Byte equivalence: the journal (trimmed to its data by the
			// reopened log's Close) is exactly the submitted payloads of
			// 1..k, each framed, in sequence order.
			var want []byte
			for seq := uint64(1); seq <= k; seq++ {
				p, ok := payloads[seq]
				if !ok {
					t.Fatalf("replayed seq %d was never buffered", seq)
				}
				want = appendRecord(want, p)
			}
			if !bytes.Equal(journalBytes(t, dir), want) {
				t.Fatal("journal bytes diverge from the submitted payloads framed in sequence order")
			}
		})
	}
}

// TestGroupCommitAcksAcrossSnapshots runs appends concurrently with
// snapshots: every acked record past the newest snapshot must replay,
// and the snapshot rotation must not wedge or mis-ack the committer.
func TestGroupCommitAcksAcrossSnapshots(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for a := 0; a < 3; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("a%d-%d", a, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(a)
	}
	for i := 0; i < 5; i++ {
		if err := l.WriteSnapshot([]byte(fmt.Sprintf("state-%d", i))); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
	wg.Wait()
	seq := l.Seq()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rl, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	snapSeq, _, ok := rl.Snapshot()
	if !ok {
		t.Fatal("no snapshot recovered")
	}
	count := uint64(0)
	last := snapSeq
	err = rl.Replay(func(s uint64, _ []byte) error {
		if s != last+1 {
			t.Fatalf("replay gap after snapshot: seq %d, want %d", s, last+1)
		}
		last = s
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != seq {
		t.Fatalf("replayed through %d, want %d", last, seq)
	}
}

// TestSnapshotRotateFailureLatchesLog pins the latch on the
// WriteSnapshot-triggered rotation: if the rotate fails after closing
// the old segment, the log must refuse further appends rather than
// buffer them onto a dead file.
func TestSnapshotRotateFailureLatchesLog(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("payload")); err != nil { // size > 0: snapshot rotates
		t.Fatal(err)
	}
	boom := errors.New("boom: dir sync failed")
	calls := 0
	syncDir = func(dir string) error {
		// First call is the snapshot rename's own dir sync; the second is
		// createSegment inside the rotation — fail there.
		if calls++; calls >= 2 {
			return boom
		}
		return orig(dir)
	}
	if err := l.WriteSnapshot([]byte("state")); !errors.Is(err, boom) {
		t.Fatalf("WriteSnapshot: %v, want the injected failure", err)
	}
	if _, err := l.Append([]byte("after")); !errors.Is(err, errFailed) {
		t.Fatalf("log accepted an append after a failed snapshot rotation: %v", err)
	}
}

// TestCloseDoesNotAckFailedCommits pins the shutdown ack contract: a
// log whose commit pipeline failed must not let Close's own successful
// flush+sync ack sequences a failed fsync may have dropped — a later
// Sync succeeding does not resurrect earlier dirty pages.
func TestCloseDoesNotAckFailedCommits(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l.AppendAsync([]byte("maybe lost"))
	if err != nil {
		t.Fatal(err)
	}
	// Latch the log exactly as flushGroup does on an fsync failure.
	boom := errors.New("boom: fsync failed")
	l.mu.Lock()
	l.failed = true
	l.mu.Unlock()
	l.failAcks(boom)
	_ = l.Close()
	if err := l.WaitDurable(seq); !errors.Is(err, boom) {
		t.Fatalf("WaitDurable after failed pipeline + Close: %v, want the latched failure", err)
	}
}

// TestSyncDirErrorPropagates pins the regression: a failing directory
// fsync must surface from WriteSnapshot (without advancing the snapshot
// watermark) and from segment creation, not vanish.
func TestSyncDirErrorPropagates(t *testing.T) {
	orig := syncDir
	defer func() { syncDir = orig }()
	boom := errors.New("boom: dir sync failed")

	l, err := Open(t.TempDir(), Options{SegmentBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("first record")); err != nil {
		t.Fatal(err)
	}

	syncDir = func(string) error { return boom }
	if err := l.WriteSnapshot([]byte("state")); !errors.Is(err, boom) {
		t.Fatalf("WriteSnapshot swallowed the dir-sync failure: %v", err)
	}
	if got := l.SnapshotSeq(); got != 0 {
		t.Fatalf("snapshot watermark advanced to %d despite non-durable rename", got)
	}
	// The next append rotates (size >= SegmentBytes) and must fail on
	// the new segment's directory sync, latching the log.
	if _, err := l.Append([]byte("forces rotation")); !errors.Is(err, boom) {
		t.Fatalf("rotation swallowed the dir-sync failure: %v", err)
	}
	if _, err := l.Append([]byte("after failure")); !errors.Is(err, errFailed) {
		t.Fatalf("log not latched after dir-sync failure: %v", err)
	}

	syncDir = orig
	if _, err := Open(t.TempDir(), Options{}); err != nil {
		t.Fatalf("restored syncDir: %v", err)
	}
}

// BenchmarkAppend prices a durable append through the group-commit
// pipeline, with and without fsync, with 32 appenders per CPU and with
// two closed-loop appenders, which is the shape of the repo benchmark's
// crowd-durable workload. Run it on the disk being measured:
// b.TempDir() on tmpfs makes every sync free.
func BenchmarkAppend(b *testing.B) {
	payload := bytes.Repeat([]byte("x"), 128)
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"fsync", Options{Fsync: true}},
		{"nofsync", Options{}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			l, err := Open(b.TempDir(), mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.SetParallelism(32)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := l.Append(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
	b.Run("fsync-2appenders", func(b *testing.B) {
		l, err := Open(b.TempDir(), Options{Fsync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		b.ReportAllocs()
		b.ResetTimer()
		var wg sync.WaitGroup
		for a := 0; a < 2; a++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if _, err := l.Append(payload); err != nil {
						b.Error(err)
						return
					}
				}
			}((b.N + 1 - a) / 2)
		}
		wg.Wait()
	})
}
