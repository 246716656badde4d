package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncGate is how crash() finds the window syncs in flight: every sync
// the tests run goes through testSync, which holds the gate shared, and
// crash holds it exclusively while it closes the file.
var syncGate sync.RWMutex

// testSync is datasync under syncGate: the syncData of every test in
// this package, and what each test's own hook syncs through.
func testSync(f *os.File) error {
	syncGate.RLock()
	defer syncGate.RUnlock()
	return datasync(f)
}

func init() { syncData = testSync }

// crash abandons the log the way a dying process would: the OS file is
// closed without flushing the user-space write buffer, wherever the
// appenders are, so every later append fails and every waiter that
// would have led a window gets errClosed instead. Bytes already flushed
// to the OS survive (the "OS" outlives the fake process); bytes still
// in the bufio writer are lost. A window sync in flight finishes first
// (datasync reads the raw descriptor), and the crash may land between
// that sync and its leader's ack, or before a sync that then fails.
func (l *Log) crash() {
	syncGate.Lock()
	defer syncGate.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
	}
	l.f, l.w = nil, nil
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
	frame := AppendRecord(nil, payload)
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
				want = AppendRecord(want, p)
			}
			if !bytes.Equal(journalBytes(t, dir), want) {
				t.Fatal("journal bytes diverge from the submitted payloads framed in sequence order")
			}
		})
	}
}

// TestGroupCommitAcksAcrossSnapshots runs appends concurrently with
// snapshots: every acked record past the newest snapshot must replay,
// and the snapshot rotation must not wedge or mis-ack a leader's window.
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
				if _, err := appendSync(l, []byte(fmt.Sprintf("a%d-%d", a, i))); err != nil {
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
	if _, err := appendSync(l, []byte("payload")); err != nil { // size > 0: snapshot rotates
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
	if _, err := appendSync(l, []byte("after")); !errors.Is(err, errFailed) {
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
	l.commitMu.Lock()
	l.mu.Lock()
	l.failed = true
	l.mu.Unlock()
	l.failAcks(boom)
	l.commitMu.Unlock()
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
	if _, err := appendSync(l, []byte("first record")); err != nil {
		t.Fatal(err)
	}

	syncDir = func(string) error { return boom }
	if err := l.WriteSnapshot([]byte("state")); !errors.Is(err, boom) {
		t.Fatalf("WriteSnapshot swallowed the dir-sync failure: %v", err)
	}
	if got := l.SnapshotSeq(); got != 0 {
		t.Fatalf("snapshot watermark advanced to %d despite non-durable rename", got)
	}
	// The next append's window rotates (size >= SegmentBytes) and must
	// fail on the new segment's directory sync, latching the log.
	if _, err := appendSync(l, []byte("forces rotation")); !errors.Is(err, boom) {
		t.Fatalf("rotation swallowed the dir-sync failure: %v", err)
	}
	if _, err := appendSync(l, []byte("after failure")); !errors.Is(err, errFailed) {
		t.Fatalf("log not latched after dir-sync failure: %v", err)
	}

	syncDir = orig
	if _, err := Open(t.TempDir(), Options{}); err != nil {
		t.Fatalf("restored syncDir: %v", err)
	}
}

// TestGroupCommitOneSyncPerWindow: sixteen writers lead and follow one
// another through commitMu, and a counting data-sync hook sees exactly
// one sync per reported window and never two syncs at once — the leader
// rule keeps one window in flight.
func TestGroupCommitOneSyncPerWindow(t *testing.T) {
	defer func() { syncData = testSync }()
	var inSync, syncs, overlaps atomic.Int32
	syncData = func(f *os.File) error {
		if inSync.Add(1) > 1 {
			overlaps.Add(1)
		}
		defer inSync.Add(-1)
		syncs.Add(1)
		return testSync(f)
	}
	l, obs := openObserved(t, t.TempDir(), Options{Fsync: true})
	const writers, per = 16, 25
	appendConcurrently(t, l, obs, writers, per)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	windows, records, fsyncs, _ := obs.totals(t)
	if records != writers*per {
		t.Fatalf("windows cover %d records, want %d", records, writers*per)
	}
	// Every append was waited for, so Close has no tail window and every
	// window's sync went through the hook.
	if n := int(syncs.Load()); n != windows || fsyncs != windows {
		t.Fatalf("%d windows, %d fsync brackets, %d data syncs: want one sync per window", windows, fsyncs, n)
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d data syncs started while another was running", n)
	}
	t.Logf("%d records in %d windows", records, windows)
}

// parkedIn reports whether some goroutine is parked on a mutex inside
// the named (*Log) method.
func parkedIn(method string) bool {
	frame := []byte("store.(*Log)." + method + "(")
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		header, _, _ := bytes.Cut(g, []byte("\n"))
		parked := bytes.Contains(header, []byte("[sync.Mutex.Lock")) || bytes.Contains(header, []byte("[semacquire"))
		if parked && bytes.Contains(g, frame) {
			return true
		}
	}
	return false
}

// holdFirstSync makes the first window sync wait, after inSync closes,
// until release closes: a leader held mid-sync. The caller restores
// syncData.
func holdFirstSync() (inSync, release chan struct{}) {
	inSync, release = make(chan struct{}), make(chan struct{})
	var first sync.Once
	syncData = func(f *os.File) error {
		first.Do(func() {
			close(inSync)
			<-release
		})
		return testSync(f)
	}
	return inSync, release
}

// awaitParked waits until a goroutine is parked in the named method,
// failing the test if done delivers first (the call returned while the
// leader was mid-sync) or nothing parks within ten seconds. Either way
// it releases the leader first.
func awaitParked(t *testing.T, method string, done <-chan error, release chan struct{}) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !parkedIn(method); {
		select {
		case err := <-done:
			close(release)
			t.Fatalf("%s returned (%v) while a leader was mid-sync", method, err)
		default:
		}
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%s never parked on the commit lock", method)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
}

// TestGroupCommitCloseWaitsForLeader: the sync hook holds a leader's
// window mid-sync until Close is parked on the commit lock, while three
// more records nobody waits for buffer behind it. Close must not finish
// before the leader does; windows arrive in order, the leader's first
// and Close's tail after it; and a reopen replays every acked record
// exactly once.
func TestGroupCommitCloseWaitsForLeader(t *testing.T) {
	defer func() { syncData = testSync }()
	inSync, release := holdFirstSync()
	dir := t.TempDir()
	l, obs := openObserved(t, dir, Options{Fsync: true})
	leader := make(chan error, 1)
	go func() {
		_, err := appendSync(l, []byte("leader"))
		leader <- err
	}()
	<-inSync
	want := []string{"leader"}
	for i := 0; i < 3; i++ {
		p := fmt.Sprintf("tail-%d", i)
		want = append(want, p)
		if _, err := l.AppendAsync([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	awaitParked(t, "Close", closed, release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := l.WaitDurable(uint64(len(want))); err != nil {
		t.Fatalf("tail not acked by Close: %v", err)
	}
	windows, records, _, _ := obs.totals(t)
	if windows != 2 || records != len(want) || obs.windows[0].Last != 1 {
		t.Fatalf("windows %+v, want the leader's [1, 1] then Close's tail [2, %d]", obs.windows, len(want))
	}
	rl, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if _, got := replayAll(t, rl); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

// TestSnapshotWaitsForLeader: a snapshot rotates the segment a leader
// may be syncing, so it takes the commit lock first. The sync hook
// holds a leader's window mid-sync with one more record buffered behind
// it; WriteSnapshot must park on the commit lock, not rotate the file
// out from under the sync. Once released, the leader acks, the snapshot
// covers both records, and a reopen finds it with nothing left to
// replay.
func TestSnapshotWaitsForLeader(t *testing.T) {
	defer func() { syncData = testSync }()
	inSync, release := holdFirstSync()
	dir := t.TempDir()
	l, obs := openObserved(t, dir, Options{Fsync: true})
	leader := make(chan error, 1)
	go func() {
		_, err := appendSync(l, []byte("leader"))
		leader <- err
	}()
	<-inSync
	if _, err := l.AppendAsync([]byte("behind")); err != nil {
		t.Fatal(err)
	}
	snapped := make(chan error, 1)
	go func() { snapped <- l.WriteSnapshot([]byte("state@2")) }()
	awaitParked(t, "WriteSnapshot", snapped, release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if err := <-snapped; err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if windows, records, _, _ := obs.totals(t); windows != 2 || records != 2 {
		t.Fatalf("%d windows covering %d records, want the leader's and Close's tail", windows, records)
	}
	rl, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if seq, data, ok := rl.Snapshot(); !ok || seq != 2 || string(data) != "state@2" {
		t.Fatalf("snapshot = (%d, %q, %v), want (2, state@2, true)", seq, data, ok)
	}
	if seqs, _ := replayAll(t, rl); len(seqs) != 0 {
		t.Fatalf("replayed %v past a snapshot covering everything", seqs)
	}
}

// TestOpenStartsNoGoroutine: the journal has no background goroutine;
// its windows are led by the waiters themselves.
func TestOpenStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	l, err := Open(t.TempDir(), Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendSync(l, []byte("x")); err != nil {
		t.Fatal(err)
	}
	open := runtime.NumGoroutine()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A goroutine another test left behind may exit in between, never
	// start: a count above before is the journal's.
	if after := runtime.NumGoroutine(); open > before || after > before {
		t.Fatalf("goroutines: %d before Open, %d open, %d after Close", before, open, after)
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
					if _, err := appendSync(l, payload); err != nil {
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
					if _, err := appendSync(l, payload); err != nil {
						b.Error(err)
						return
					}
				}
			}((b.N + 1 - a) / 2)
		}
		wg.Wait()
	})
}
