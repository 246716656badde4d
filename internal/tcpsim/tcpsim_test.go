package tcpsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/eyeorg/eyeorg/internal/netem"
	"github.com/eyeorg/eyeorg/internal/simtime"
)

// testPath returns a lossless 100ms-RTT, 8Mbps path for deterministic math.
func testPath(s *simtime.Scheduler) *netem.Path {
	return netem.NewPath(s, netem.Profile{
		Name: "test", RTT: 100 * time.Millisecond,
		DownBps: 8_000_000, UpBps: 8_000_000, LossRate: 0,
	}, rand.New(rand.NewSource(1)))
}

func TestHandshakeTiming(t *testing.T) {
	cases := []struct {
		cfg  Config
		want time.Duration
	}{
		{Config{TLS: false}, 100 * time.Millisecond},
		{Config{TLS: true, TLSRTTs: 2}, 300 * time.Millisecond},
		{Config{TLS: true, TLSRTTs: 1}, 200 * time.Millisecond},
	}
	for _, c := range cases {
		s := simtime.NewScheduler()
		path := testPath(s)
		var at simtime.Time
		Dial(path, c.cfg, func(_ *Conn, t simtime.Time) { at = t })
		s.Run()
		if at != c.want {
			t.Errorf("handshake(TLS=%v,rtts=%d) done at %v, want %v", c.cfg.TLS, c.cfg.TLSRTTs, at, c.want)
		}
	}
}

func TestSingleSegmentDelivery(t *testing.T) {
	s := simtime.NewScheduler()
	path := testPath(s)
	var done simtime.Time
	conn := Dial(path, Config{TLS: false}, nil)
	conn.AddStream(&Stream{
		Bytes:      1000,
		ReadyAt:    0,
		OnComplete: func(t simtime.Time) { done = t },
	})
	s.Run()
	// Handshake 1 RTT + one delivery round 1 RTT = 200ms.
	if done != 200*time.Millisecond {
		t.Fatalf("1KB delivered at %v, want 200ms", done)
	}
}

func TestSlowStartRamp(t *testing.T) {
	// 100 KB at initcwnd 10: rounds deliver 10, 20, 40 MSS-sized chunks
	// (capped by BDP = 100KB per round).
	s := simtime.NewScheduler()
	path := testPath(s)
	var done simtime.Time
	var progress []int64
	conn := Dial(path, Config{TLS: false, InitCwnd: 10}, nil)
	conn.AddStream(&Stream{
		Bytes:      100_000,
		OnProgress: func(_ simtime.Time, got int64) { progress = append(progress, got) },
		OnComplete: func(t simtime.Time) { done = t },
	})
	s.Run()
	// Rounds: 14600, +29200=43800, +58400=100000(capped) -> 3 rounds.
	if len(progress) != 3 {
		t.Fatalf("progress points = %v, want 3 rounds", progress)
	}
	if progress[0] != 14600 {
		t.Fatalf("first round delivered %d, want 14600 (10 MSS)", progress[0])
	}
	if progress[1] != 43800 {
		t.Fatalf("second round cumulative %d, want 43800 (10+20 MSS)", progress[1])
	}
	// handshake (1 RTT) + 3 rounds = 400ms
	if done != 400*time.Millisecond {
		t.Fatalf("done at %v, want 400ms", done)
	}
}

func TestFirstByteFiresOnce(t *testing.T) {
	s := simtime.NewScheduler()
	path := testPath(s)
	count := 0
	conn := Dial(path, Config{TLS: false}, nil)
	conn.AddStream(&Stream{
		Bytes:       50_000,
		OnFirstByte: func(simtime.Time) { count++ },
		OnComplete:  func(simtime.Time) {},
	})
	s.Run()
	if count != 1 {
		t.Fatalf("OnFirstByte fired %d times", count)
	}
}

func TestServerThinkDelaysDelivery(t *testing.T) {
	run := func(ready simtime.Time) simtime.Time {
		s := simtime.NewScheduler()
		path := testPath(s)
		var done simtime.Time
		conn := Dial(path, Config{TLS: false}, nil)
		conn.AddStream(&Stream{Bytes: 1000, ReadyAt: ready, OnComplete: func(t simtime.Time) { done = t }})
		s.Run()
		return done
	}
	base := run(0)
	delayed := run(simtime.Time(300 * time.Millisecond))
	if delayed <= base {
		t.Fatalf("ReadyAt had no effect: base %v delayed %v", base, delayed)
	}
}

func TestZeroByteStreamCompletes(t *testing.T) {
	s := simtime.NewScheduler()
	path := testPath(s)
	var done simtime.Time
	fb := false
	conn := Dial(path, Config{TLS: false}, nil)
	conn.AddStream(&Stream{
		Bytes:       0,
		OnFirstByte: func(simtime.Time) { fb = true },
		OnComplete:  func(t simtime.Time) { done = t },
	})
	s.Run()
	if done == 0 {
		t.Fatal("zero-byte stream never completed")
	}
	if !fb {
		t.Fatal("zero-byte stream never fired first byte")
	}
}

func TestMultiplexedStreamsDrainSequentially(t *testing.T) {
	// Chrome-style exclusive dependencies: equal-priority streams drain in
	// arrival order, so the first finishes as if alone and the second
	// strictly after it.
	s := simtime.NewScheduler()
	path := testPath(s)
	var doneA, doneB simtime.Time
	conn := Dial(path, Config{TLS: false}, nil)
	conn.AddStream(&Stream{Bytes: 400_000, Weight: 1, OnComplete: func(t simtime.Time) { doneA = t }})
	conn.AddStream(&Stream{Bytes: 400_000, Weight: 1, OnComplete: func(t simtime.Time) { doneB = t }})
	s.Run()
	if doneB <= doneA {
		t.Fatalf("second stream (%v) should finish after first (%v)", doneB, doneA)
	}

	s2 := simtime.NewScheduler()
	path2 := testPath(s2)
	var alone simtime.Time
	conn2 := Dial(path2, Config{TLS: false}, nil)
	conn2.AddStream(&Stream{Bytes: 400_000, OnComplete: func(t simtime.Time) { alone = t }})
	s2.Run()
	if doneA != alone {
		t.Fatalf("head-of-chain stream (%v) should match solo time (%v)", doneA, alone)
	}
	if doneB <= alone {
		t.Fatalf("tail stream (%v) not slower than solo (%v)", doneB, alone)
	}
}

func TestWeightedPriorityFinishesHeavierFirst(t *testing.T) {
	s := simtime.NewScheduler()
	path := testPath(s)
	var heavy, light simtime.Time
	conn := Dial(path, Config{TLS: false}, nil)
	conn.AddStream(&Stream{Bytes: 60_000, Weight: 8, OnComplete: func(t simtime.Time) { heavy = t }})
	conn.AddStream(&Stream{Bytes: 60_000, Weight: 1, OnComplete: func(t simtime.Time) { light = t }})
	s.Run()
	if heavy >= light {
		t.Fatalf("weight-8 stream (%v) not faster than weight-1 (%v)", heavy, light)
	}
}

func TestLossSlowsTransfer(t *testing.T) {
	run := func(loss float64) simtime.Time {
		s := simtime.NewScheduler()
		path := netem.NewPath(s, netem.Profile{
			RTT: 100 * time.Millisecond, DownBps: 8_000_000, LossRate: loss,
		}, rand.New(rand.NewSource(7)))
		var done simtime.Time
		conn := Dial(path, Config{TLS: false}, nil)
		conn.AddStream(&Stream{Bytes: 500_000, OnComplete: func(t simtime.Time) { done = t }})
		s.Run()
		return done
	}
	clean := run(0)
	lossy := run(0.4)
	if lossy <= clean {
		t.Fatalf("40%% loss (%v) not slower than clean (%v)", lossy, clean)
	}
}

func TestLossDeterministicWithSeed(t *testing.T) {
	run := func() simtime.Time {
		s := simtime.NewScheduler()
		path := netem.NewPath(s, netem.Profile{
			RTT: 50 * time.Millisecond, DownBps: 8_000_000, LossRate: 0.2,
		}, rand.New(rand.NewSource(123)))
		var done simtime.Time
		conn := Dial(path, Config{TLS: false}, nil)
		conn.AddStream(&Stream{Bytes: 300_000, OnComplete: func(t simtime.Time) { done = t }})
		s.Run()
		return done
	}
	if run() != run() {
		t.Fatal("lossy transfer not reproducible with identical seed")
	}
}

func TestTwoConnsSlowerThanOneForSharedPath(t *testing.T) {
	// Fair sharing: one flow on a path gets all capacity; two concurrent
	// bulk flows each take roughly twice as long.
	single := func() simtime.Time {
		s := simtime.NewScheduler()
		path := testPath(s)
		var done simtime.Time
		c := Dial(path, Config{TLS: false}, nil)
		c.AddStream(&Stream{Bytes: 400_000, OnComplete: func(t simtime.Time) { done = t }})
		s.Run()
		return done
	}()
	var doneA simtime.Time
	s := simtime.NewScheduler()
	path := testPath(s)
	c1 := Dial(path, Config{TLS: false}, nil)
	c2 := Dial(path, Config{TLS: false}, nil)
	c1.AddStream(&Stream{Bytes: 400_000, OnComplete: func(t simtime.Time) { doneA = t }})
	c2.AddStream(&Stream{Bytes: 400_000, OnComplete: func(simtime.Time) {}})
	s.Run()
	if doneA <= single {
		t.Fatalf("contended flow (%v) not slower than solo (%v)", doneA, single)
	}
}

func TestCloseReleasesPathShare(t *testing.T) {
	s := simtime.NewScheduler()
	path := testPath(s)
	c := Dial(path, Config{TLS: false}, nil)
	s.Run()
	if path.ActiveConns() != 1 {
		t.Fatalf("ActiveConns = %d, want 1", path.ActiveConns())
	}
	c.Close()
	if path.ActiveConns() != 0 {
		t.Fatalf("ActiveConns after close = %d, want 0", path.ActiveConns())
	}
	c.Close() // double close is a no-op
	if path.ActiveConns() != 0 {
		t.Fatal("double Close released share twice")
	}
}

func TestAddStreamPanics(t *testing.T) {
	s := simtime.NewScheduler()
	path := testPath(s)
	c := Dial(path, Config{TLS: false}, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stream without OnComplete accepted")
			}
		}()
		c.AddStream(&Stream{Bytes: 1})
	}()
	c.Close()
	defer func() {
		if recover() == nil {
			t.Error("AddStream on closed conn accepted")
		}
	}()
	c.AddStream(&Stream{Bytes: 1, OnComplete: func(simtime.Time) {}})
}

func TestBusyAndActiveStreams(t *testing.T) {
	s := simtime.NewScheduler()
	path := testPath(s)
	c := Dial(path, Config{TLS: false}, nil)
	inFlight := func() int {
		n := 0
		for _, st := range c.streams {
			if !st.done {
				n++
			}
		}
		return n
	}
	c.AddStream(&Stream{Bytes: 100_000, OnComplete: func(simtime.Time) {}})
	if !c.busy || inFlight() != 1 {
		t.Fatal("stream not visible as active")
	}
	s.Run()
	if c.busy || inFlight() != 0 {
		t.Fatal("conn still busy after completion")
	}
}

// Property: delivered bytes always equal the requested size, for any
// transfer size and loss rate, and completion time is positive.
func TestPropertyExactDelivery(t *testing.T) {
	f := func(kb uint16, lossPct uint8, seed int64) bool {
		size := int64(kb)%2000*1000 + 1
		loss := float64(lossPct%50) / 100
		s := simtime.NewScheduler()
		path := netem.NewPath(s, netem.Profile{
			RTT: 40 * time.Millisecond, DownBps: 16_000_000, LossRate: loss,
		}, rand.New(rand.NewSource(seed)))
		var last int64
		var done simtime.Time
		c := Dial(path, Config{TLS: false}, nil)
		c.AddStream(&Stream{
			Bytes:      size,
			OnProgress: func(_ simtime.Time, got int64) { last = got },
			OnComplete: func(t simtime.Time) { done = t },
		})
		s.Run()
		return last == size && done > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a transfer on a higher-bandwidth path never completes later.
func TestPropertyBandwidthMonotonic(t *testing.T) {
	f := func(kb uint16) bool {
		size := int64(kb)%1000*1000 + 10_000
		run := func(bps int64) simtime.Time {
			s := simtime.NewScheduler()
			path := netem.NewPath(s, netem.Profile{RTT: 50 * time.Millisecond, DownBps: bps}, rand.New(rand.NewSource(1)))
			var done simtime.Time
			c := Dial(path, Config{TLS: false}, nil)
			c.AddStream(&Stream{Bytes: size, OnComplete: func(t simtime.Time) { done = t }})
			s.Run()
			return done
		}
		return run(40_000_000) <= run(4_000_000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
