package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// watchdog waits for done, and fails the test with every goroutine's
// stack if it has not closed within bound: a hang becomes a failing test
// with the stack that explains it.
func watchdog(t *testing.T, done <-chan struct{}, bound time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(bound):
		buf := make([]byte, 8<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("%s still blocked %v later; all goroutines:\n%s", what, bound, buf)
	}
}

// TestLivenessSoak: seeded writers mix appendSync with AppendAsync, some
// awaited and some never, over segments small enough that most windows
// rotate, beside a snapshotter, with every window sync slowed so that
// rotations, snapshots and Close keep landing on a leader mid-sync; the
// log is closed at a seeded point while they run. Every waiter must
// return within a bound of Close; the only error anything may see is
// errClosed; the observer's contract must hold; and since the close is
// clean, every record an append accepted must replay on reopen with its
// payload, unless the newest snapshot covers it.
func TestLivenessSoak(t *testing.T) {
	defer func() { syncData = testSync }()
	syncData = func(f *os.File) error {
		time.Sleep(100 * time.Microsecond)
		return testSync(f)
	}
	for trial := 0; trial < 6; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31_000 + trial)))
			dir := t.TempDir()
			l, obs := openObserved(t, dir, Options{Fsync: true, SegmentBytes: int64(64 + rng.Intn(512))})

			var (
				mu       sync.Mutex
				payloads = map[uint64][]byte{} // every record an append accepted
				acked    = map[uint64]bool{}
				bad      []error
				ops      atomic.Int64
				writers  atomic.Int32
			)
			check := func(err error) bool {
				if err != nil && !errors.Is(err, errClosed) {
					mu.Lock()
					bad = append(bad, err)
					mu.Unlock()
				}
				return err == nil
			}
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				writers.Add(1)
				go func(w int) {
					defer wg.Done()
					defer writers.Add(-1)
					wrng := rand.New(rand.NewSource(int64(trial*100 + w)))
					for i := 0; i < 300; i++ {
						p := []byte(fmt.Sprintf("w%d-%d-%s", w, i, strings.Repeat("p", wrng.Intn(48))))
						mode := wrng.Intn(3) // 0 appendSync, 1 awaited AppendAsync, 2 unawaited
						var seq uint64
						var err error
						if mode == 0 {
							seq, err = appendSync(l, p)
						} else {
							seq, err = l.AppendAsync(p)
						}
						if seq != 0 {
							mu.Lock()
							payloads[seq] = p
							mu.Unlock()
						}
						if err == nil && mode == 1 {
							err = l.WaitDurable(seq)
						}
						ops.Add(1)
						if !check(err) {
							return
						}
						if mode != 2 {
							mu.Lock()
							acked[seq] = true
							mu.Unlock()
						}
					}
				}(w)
			}
			srng := rand.New(rand.NewSource(rng.Int63()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					if !check(l.WriteSnapshot([]byte(fmt.Sprintf("state-%d", i)))) {
						return
					}
					time.Sleep(time.Duration(srng.Intn(3000)) * time.Microsecond)
				}
			}()

			// Close at the seeded op count, or once every writer has stopped
			// (failed), or after ten seconds (hung): the watchdog below tells
			// those apart.
			closeAt, deadline := int64(50+rng.Intn(1200)), time.Now().Add(10*time.Second)
			for ops.Load() < closeAt && writers.Load() > 0 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
			if err := l.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			watchdog(t, done, 10*time.Second, "appenders, waiters or the snapshotter")
			for _, err := range bad {
				t.Errorf("error other than errClosed: %v", err)
			}
			obs.totals(t)

			rl, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer rl.Close()
			snapSeq, _, _ := rl.Snapshot()
			replayed := map[uint64][]byte{}
			if err := rl.Replay(func(seq uint64, p []byte) error {
				replayed[seq] = bytes.Clone(p)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for seq, p := range payloads {
				if seq > snapSeq && !bytes.Equal(replayed[seq], p) {
					t.Fatalf("seq %d (acked %v) replayed %q, want %q (snapshot covers %d)", seq, acked[seq], replayed[seq], p, snapSeq)
				}
			}
			t.Logf("%d ops, %d records (%d acked), snapshot at %d", ops.Load(), len(payloads), len(acked), snapSeq)
		})
	}
}
