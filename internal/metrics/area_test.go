package metrics

import (
	"testing"
	"time"

	"github.com/eyeorg/eyeorg/internal/browsersim"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpage"
	"github.com/eyeorg/eyeorg/internal/webpeg"
)

func TestAreaAboveBasics(t *testing.T) {
	// A curve that jumps 0 -> 1 at 2s over a 4s span has area 2s.
	ts := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	curve := []float64{0, 0, 1, 1, 1}
	if got := AreaAbove(ts, curve); got != 2*time.Second {
		t.Fatalf("AreaAbove = %v, want 2s", got)
	}
	// Fully complete from the start: zero area.
	if got := AreaAbove(ts, []float64{1, 1, 1, 1, 1}); got != 0 {
		t.Fatalf("complete curve area = %v, want 0", got)
	}
}

func TestAreaAboveDegenerate(t *testing.T) {
	if AreaAbove(nil, nil) != 0 {
		t.Fatal("nil curve area nonzero")
	}
	if AreaAbove([]time.Duration{0}, []float64{0.5}) != 0 {
		t.Fatal("single-point area nonzero")
	}
	if AreaAbove([]time.Duration{0, 1}, []float64{0.5}) != 0 {
		t.Fatal("length mismatch not handled")
	}
}

func TestAreaAboveEarlierContentSmaller(t *testing.T) {
	ts := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}
	early := []float64{0, 1, 1, 1}
	late := []float64{0, 0, 0, 1}
	if AreaAbove(ts, early) >= AreaAbove(ts, late) {
		t.Fatal("earlier completion should have smaller area")
	}
}

func TestAnimationChurnSplitsMetricsFromPerception(t *testing.T) {
	// A hero that paints at 1s and then "rotates" (alternate state at 3s,
	// base again at 5s): pixel metrics count the churn, perception does
	// not — the paper's central divergence mechanism.
	rect := vision.Rect{X: 0, Y: 0, W: 24, H: 20}
	base := webpage.TileValue(0)
	paints := []browsersim.PaintEvent{
		{T: 1 * time.Second, Rect: rect, Value: base},
		{T: 3 * time.Second, Rect: rect, Value: base + webpage.AnimTileOffset},
		{T: 5 * time.Second, Rect: rect, Value: base},
	}
	v := webpeg.Render(paints, 6*time.Second, 10)

	// LastVisualChange sees the final rotation.
	if lvc := LastVisualChange(v); lvc != 5*time.Second {
		t.Fatalf("LVC = %v, want 5s (the last rotation)", lvc)
	}
	// SpeedIndex is inflated by the mid-rotation mismatch window.
	plain := webpeg.Render(paints[:1], 6*time.Second, 10)
	if SpeedIndex(v) <= SpeedIndex(plain) {
		t.Fatal("churn did not inflate SpeedIndex")
	}
	// Perception: canonical curves treat the object as present from its
	// first paint.
	pc := Curves(v, nil)
	done, ok := CrossTime(pc.T, pc.All, 1.0)
	if !ok || done != time.Second {
		t.Fatalf("perceptual completion = %v (ok=%v), want 1s", done, ok)
	}
}

func TestCanonicalTileRoundTrip(t *testing.T) {
	base := webpage.TileValue(7)
	if webpage.CanonicalTile(base) != base {
		t.Fatal("base tile not canonical")
	}
	if webpage.CanonicalTile(base+webpage.AnimTileOffset) != base {
		t.Fatal("alternate phase does not canonicalise to base")
	}
}
