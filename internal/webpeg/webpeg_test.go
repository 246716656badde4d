package webpeg

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/adblock"
	"github.com/eyeorg/eyeorg/internal/httpsim"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/webpage"
)

func smallCorpus(seed int64, n int) []*webpage.Page {
	return sitegen.Generate(sitegen.Config{Seed: seed, Sites: n, AdShare: 1})
}

func TestCaptureSiteBasics(t *testing.T) {
	page := smallCorpus(1, 1)[0]
	cap, err := CaptureSite(page, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(cap.OnLoads) != 5 {
		t.Fatalf("trials = %d, want default 5", len(cap.OnLoads))
	}
	if cap.Selected.OnLoad != cap.OnLoads[cap.MedianIndex] {
		t.Fatal("selected result does not match median index")
	}
	if cap.Video == nil || cap.Video.Duration() < cap.Selected.OnLoad {
		t.Fatal("video shorter than onload")
	}
	// Recording extends past onload by the configured tail.
	if cap.Video.Duration() < cap.Selected.OnLoad+4*time.Second {
		t.Fatalf("video %v does not include the 5s post-onload tail (onload %v)", cap.Video.Duration(), cap.Selected.OnLoad)
	}
}

func TestMedianSelection(t *testing.T) {
	page := smallCorpus(2, 1)[0]
	cap, err := CaptureSite(page, Config{Seed: 9, Loads: 5})
	if err != nil {
		t.Fatal(err)
	}
	med := cap.OnLoads[cap.MedianIndex]
	below, above := 0, 0
	for i, d := range cap.OnLoads {
		if i == cap.MedianIndex {
			continue
		}
		if d <= med {
			below++
		}
		if d >= med {
			above++
		}
	}
	if below > 2 || above > 2 {
		t.Fatalf("median property violated: onloads=%v selected=%v", cap.OnLoads, med)
	}
}

func TestMedianIndexLowerMedian(t *testing.T) {
	ds := []time.Duration{40, 10, 30, 20}
	// sorted: 10 20 30 40; lower median = 20, original index 3.
	if got := medianIndex(ds); got != 3 {
		t.Fatalf("medianIndex = %d, want 3", got)
	}
	if medianIndex(nil) != 0 {
		t.Fatal("empty medianIndex should be 0")
	}
	if medianIndex([]time.Duration{5}) != 0 {
		t.Fatal("single-element medianIndex should be 0")
	}
}

func TestCaptureDeterministic(t *testing.T) {
	page := smallCorpus(3, 1)[0]
	a, err := CaptureSite(page, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureSite(page, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.OnLoads {
		if a.OnLoads[i] != b.OnLoads[i] {
			t.Fatal("capture not reproducible with equal seeds")
		}
	}
}

func TestProtocolAffectsCapture(t *testing.T) {
	page := smallCorpus(4, 1)[0]
	h1, err := CaptureSite(page, Config{Seed: 13, Protocol: httpsim.HTTP1})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := CaptureSite(page, Config{Seed: 13, Protocol: httpsim.HTTP2})
	if err != nil {
		t.Fatal(err)
	}
	if h1.Selected.Protocol != httpsim.HTTP1 || h2.Selected.Protocol != httpsim.HTTP2 {
		t.Fatal("protocol not propagated")
	}
	if h1.Selected.OnLoad == h2.Selected.OnLoad {
		t.Fatal("H1 and H2 captures identical; protocol had no effect")
	}
}

func TestBlockerPropagates(t *testing.T) {
	page := smallCorpus(5, 1)[0]
	plain, err := CaptureSite(page, Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := CaptureSite(page, Config{Seed: 17, Blocker: adblock.Ghostery()})
	if err != nil {
		t.Fatal(err)
	}
	if blocked.Selected.NetStats.Requests >= plain.Selected.NetStats.Requests {
		t.Fatal("blocker did not reduce request count in capture")
	}
}

func TestPrimerMakesFirstTrialConsistent(t *testing.T) {
	// Without the primer, the first trial pays DNS misses that later
	// trials do not — the skew §3.1 exists to remove.
	page := smallCorpus(6, 1)[0]
	with, err := CaptureSite(page, Config{Seed: 19, Loads: 3})
	if err != nil {
		t.Fatal(err)
	}
	without, err := CaptureSite(page, Config{Seed: 19, Loads: 3, SkipPrimer: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.OnLoads[0] <= with.OnLoads[0] {
		t.Fatalf("primed first trial (%v) not faster than unprimed (%v)", with.OnLoads[0], without.OnLoads[0])
	}
}

func TestCaptureCorpus(t *testing.T) {
	pages := smallCorpus(7, 4)
	caps, err := CaptureCorpus(pages, Config{Seed: 23, Loads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != len(pages) {
		t.Fatalf("captures = %d, want %d", len(caps), len(pages))
	}
	for i, c := range caps {
		if c.Page != pages[i] {
			t.Fatal("capture/page order mismatch")
		}
	}
}

func TestCapturedMetricsPlausible(t *testing.T) {
	page := smallCorpus(8, 1)[0]
	cap, err := CaptureSite(page, Config{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	p := metrics.Compute(cap.Video, cap.Selected.OnLoad)
	if !(p.FirstVisualChange > 0 &&
		p.FirstVisualChange <= p.SpeedIndex &&
		p.SpeedIndex <= p.LastVisualChange) {
		t.Fatalf("metric ordering broken: %+v", p)
	}
	if p.OnLoad <= p.FirstVisualChange {
		t.Fatalf("onload %v before first paint %v", p.OnLoad, p.FirstVisualChange)
	}
}
