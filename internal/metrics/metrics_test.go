package metrics

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

// stagedVideo paints 50% of the viewport at 1s and the rest at 3s, over a
// 5s capture at 10fps.
func stagedVideo() *video.Video {
	paints := []browsersim.PaintEvent{
		{T: 1 * time.Second, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH/2 + 1}, Value: 1},
		{T: 3 * time.Second, Rect: vision.Rect{X: 0, Y: vision.GridH/2 + 1, W: vision.GridW, H: vision.GridH}, Value: 2},
	}
	return webpeg.Render(paints, 5*time.Second, 10)
}

func TestFirstAndLastVisualChange(t *testing.T) {
	v := stagedVideo()
	if got := FirstVisualChange(v); got != time.Second {
		t.Fatalf("FVC = %v, want 1s", got)
	}
	if got := LastVisualChange(v); got != 3*time.Second {
		t.Fatalf("LVC = %v, want 3s", got)
	}
}

func TestStaticVideoMetricsZero(t *testing.T) {
	v := webpeg.Render(nil, 2*time.Second, 10)
	if FirstVisualChange(v) != 0 || LastVisualChange(v) != 0 || SpeedIndex(v) != 0 {
		t.Fatal("static video should have zero visual metrics")
	}
}

func TestSpeedIndexBetweenPaints(t *testing.T) {
	v := stagedVideo()
	si := SpeedIndex(v)
	// Completeness is 0 until 1s, ~0.52 until 3s, 1 after. SI must land
	// between FVC and LVC and be closer to the early paint for a
	// mostly-early page.
	if si <= FirstVisualChange(v) || si >= LastVisualChange(v) {
		t.Fatalf("SpeedIndex %v outside (FVC, LVC)", si)
	}
}

func TestSpeedIndexRewardsEarlyPaint(t *testing.T) {
	early := webpeg.Render([]browsersim.PaintEvent{
		{T: 500 * time.Millisecond, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
	}, 5*time.Second, 10)
	late := webpeg.Render([]browsersim.PaintEvent{
		{T: 4 * time.Second, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
	}, 5*time.Second, 10)
	if SpeedIndex(early) >= SpeedIndex(late) {
		t.Fatal("earlier full paint should yield lower SpeedIndex")
	}
}

func TestCompletenessMonotoneForAdditivePaints(t *testing.T) {
	vc := Completeness(stagedVideo())
	for i := 1; i < len(vc); i++ {
		if vc[i] < vc[i-1] {
			t.Fatal("completeness decreased for additive paint timeline")
		}
	}
	if vc[len(vc)-1] != 1 {
		t.Fatal("final completeness != 1")
	}
}

func TestComputeBundles(t *testing.T) {
	v := stagedVideo()
	p := Compute(v, 2700*time.Millisecond)
	if p.OnLoad != 2700*time.Millisecond {
		t.Fatal("onload not attached")
	}
	if p.FirstVisualChange != FirstVisualChange(v) || p.LastVisualChange != LastVisualChange(v) {
		t.Fatal("bundle inconsistent with direct computation")
	}
}

func TestByName(t *testing.T) {
	p := PLT{OnLoad: 1, SpeedIndex: 2, FirstVisualChange: 3, LastVisualChange: 4}
	for name, want := range map[string]time.Duration{
		"onload": 1, "speedindex": 2, "firstvisualchange": 3, "lastvisualchange": 4,
	} {
		if got := p.ByName(name); got != want {
			t.Errorf("ByName(%s) = %v, want %v", name, got, want)
		}
	}
	if p.ByName("nope") != 0 {
		t.Fatal("unknown metric should be 0")
	}
	if len(Names) != 4 {
		t.Fatal("Names should list 4 metrics")
	}
}

func TestCurvesSeparateMainFromAux(t *testing.T) {
	// Main content at 1s, aux ad at 4s.
	paints := []browsersim.PaintEvent{
		{T: 1 * time.Second, Rect: vision.Rect{X: 0, Y: 0, W: vision.GridW, H: vision.GridH}, Value: 1},
		{T: 4 * time.Second, Rect: vision.Rect{X: 38, Y: 0, W: 10, H: 5}, Value: 9, Aux: true},
	}
	v := webpeg.Render(paints, 5*time.Second, 10)
	pc := Curves(v, map[vision.Tile]bool{9: true})

	mainDone, ok := CrossTime(pc.T, pc.Main, 1.0)
	if !ok || mainDone != time.Second {
		t.Fatalf("main complete at %v (ok=%v), want 1s", mainDone, ok)
	}
	allDone, ok := CrossTime(pc.T, pc.All, 1.0)
	if !ok || allDone != 4*time.Second {
		t.Fatalf("all complete at %v (ok=%v), want 4s", allDone, ok)
	}
}

func TestCrossTimeNeverCrosses(t *testing.T) {
	_, ok := CrossTime([]time.Duration{0, 1}, []float64{0.1, 0.2}, 0.9)
	if ok {
		t.Fatal("threshold never reached but reported crossed")
	}
}

func TestCurvesWithoutAux(t *testing.T) {
	v := stagedVideo()
	pc := Curves(v, nil)
	for i := range pc.All {
		if pc.All[i] != pc.Main[i] {
			t.Fatal("without aux tiles, curves must coincide")
		}
	}
}
