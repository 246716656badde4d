package netem

import (
	"math/rand"
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/simtime"
)

func TestProfileByName(t *testing.T) {
	for name := range Profiles {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("ProfileByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("profile %q has Name %q", name, p.Name)
		}
	}
	if _, err := ProfileByName("dialup"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestBDPBytes(t *testing.T) {
	p := Profile{RTT: 100 * time.Millisecond, DownBps: 8_000_000}
	// 1 MB/s * 0.1s = 100 KB
	if got := p.BDPBytes(); got != 100_000 {
		t.Fatalf("BDPBytes = %d, want 100000", got)
	}
}

func TestFairShareSplitsAcrossBusyConns(t *testing.T) {
	s := simtime.NewScheduler()
	path := NewPath(s, Profile{RTT: 100 * time.Millisecond, DownBps: 8_000_000}, rand.New(rand.NewSource(1)))
	full := path.FairShareBytesPerRTT(1460)
	// Open-but-idle connections claim nothing.
	path.ConnOpened()
	path.ConnOpened()
	if got := path.FairShareBytesPerRTT(1460); got != full {
		t.Fatalf("idle conns reduced fair share to %d, want %d", got, full)
	}
	// Busy connections split the capacity.
	path.ConnBusy()
	path.ConnBusy()
	half := path.FairShareBytesPerRTT(1460)
	if half*2 != full {
		t.Fatalf("two busy conns get %d each, want exact halving of %d", half, full)
	}
	path.ConnIdle()
	path.ConnIdle()
	if path.busy != 0 {
		t.Fatalf("busy = %d after balanced busy/idle", path.busy)
	}
	path.ConnIdle() // must not underflow
	if path.busy != 0 {
		t.Fatal("busy went negative")
	}
	path.ConnClosed()
	path.ConnClosed()
	if path.ActiveConns() != 0 {
		t.Fatalf("ActiveConns = %d after balanced open/close", path.ActiveConns())
	}
	path.ConnClosed()
	if path.ActiveConns() != 0 {
		t.Fatal("ActiveConns went negative")
	}
}

func TestFairShareFloorIsMSS(t *testing.T) {
	s := simtime.NewScheduler()
	path := NewPath(s, Profile{RTT: 10 * time.Millisecond, DownBps: 100_000}, rand.New(rand.NewSource(1)))
	for i := 0; i < 100; i++ {
		path.ConnOpened()
		path.ConnBusy()
	}
	if got := path.FairShareBytesPerRTT(1460); got != 1460 {
		t.Fatalf("starved share = %d, want MSS floor 1460", got)
	}
}

func TestLossRoundDeterministic(t *testing.T) {
	mk := func() []bool {
		s := simtime.NewScheduler()
		path := NewPath(s, Profile{LossRate: 0.3}, rand.New(rand.NewSource(42)))
		out := make([]bool, 100)
		for i := range out {
			out[i] = path.LossRound()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("loss sequence not deterministic for equal seeds")
		}
	}
}

func TestLossRateZeroNeverLoses(t *testing.T) {
	s := simtime.NewScheduler()
	path := NewPath(s, Profile{LossRate: 0}, rand.New(rand.NewSource(1)))
	for i := 0; i < 1000; i++ {
		if path.LossRound() {
			t.Fatal("lossless path reported loss")
		}
	}
}

func TestUploadTime(t *testing.T) {
	p := Profile{UpBps: 8_000_000} // 1 MB/s
	s := simtime.NewScheduler()
	path := NewPath(s, p, nil)
	if got := path.UploadTime(1_000_000); got != time.Second {
		t.Fatalf("UploadTime(1MB) = %v, want 1s", got)
	}
	if got := path.UploadTime(0); got != 0 {
		t.Fatalf("UploadTime(0) = %v, want 0", got)
	}
}

func TestNewPathNilSchedulerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil scheduler did not panic")
		}
	}()
	NewPath(nil, Lab, nil)
}
